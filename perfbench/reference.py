"""Data sections of CLI outputs and their comparison with recorded references.

A reference is the data section an invocation produced at the commit that
recorded it.  A difference is a failed invocation: it is investigated and
reported, never re-pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def data_section(command: str, output: str):
    """The part of a CLI output that must be byte-identical across reruns.

    ``estimate`` and ``bijection`` print a JSON document whose ``data`` member
    is the data section.  ``crossings`` prints CSV: the data section is its
    rows plus the ``indeterminate_cells`` and ``truncated`` fields of the
    config line.
    """
    if command in ("estimate", "bijection"):
        return json.loads(output)["data"]
    if command == "crossings":
        lines = output.splitlines()
        if len(lines) < 3 or not lines[1].startswith("# config "):
            raise ValueError("crossings output lacks its config line or header")
        config = json.loads(lines[1][len("# config "):])
        return {"rows": lines[3:],
                "indeterminate_cells": config["indeterminate_cells"],
                "truncated": config["truncated"]}
    raise ValueError(f"no data section defined for {command!r}")


def canonical(data) -> str:
    """Byte form used for comparison; float reprs round-trip, so equal text means equal values."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str) -> dict:
    """Map of case key to recorded data section."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def mismatch(references: dict, key: str, data) -> str | None:
    """None when ``data`` equals the reference for ``key``, else a one-line reason."""
    if key not in references:
        return f"no reference recorded for {key!r}"
    expected = references[key]
    if canonical(data) == canonical(expected):
        return None
    if isinstance(data, dict) and isinstance(expected, dict):
        differing = sorted(k for k in set(data) | set(expected)
                           if canonical(data.get(k)) != canonical(expected.get(k)))
        return f"data section differs from the reference in {differing} for {key!r}"
    return f"data section differs from the reference for {key!r}"
