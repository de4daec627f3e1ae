"""In-memory spans recorded around calls into the program, and their self times.

The benchmark records spans from its own files: ``instrument`` replaces a
function with a wrapper everywhere the package holds a reference to it, so
calls through names imported with ``from module import name`` are seen too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str                   # "<layer>.<function>"
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; a span's parent is the innermost open span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._open[-1] if self._open else None, self.clock())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()


@dataclass(frozen=True)
class Probe:
    """A function to wrap: ``qualname`` is ``func`` or ``Class.method`` in ``module``.

    ``attrs(args, kwargs, result)`` returns the counts recorded on the span.
    """

    layer: str
    module: str
    qualname: str
    attrs: Optional[Callable] = None


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if attrs is not None:
            s.attrs = attrs(args, kwargs, result)
        return result
    return wrapper


def instrument(tracer: Tracer, probes: list[Probe]) -> Callable[[], None]:
    """Wrap every probe; return a function that restores the originals."""
    undo = []
    for probe in probes:
        package = probe.module.split(".", 1)[0]
        owner = importlib.import_module(probe.module)
        *path, attr = probe.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, f"{probe.layer}.{attr}", original, probe.attrs)
        targets = {(owner, attr)}
        if not path:
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and (mod_name == package or mod_name.startswith(package + ".")):
                    targets.update((mod, k) for k, v in vars(mod).items() if v is original)
        for target, name in targets:
            setattr(target, name, wrapper)
            undo.append((target, name, original))

    def restore() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)
    return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.duration - covered
    return out
