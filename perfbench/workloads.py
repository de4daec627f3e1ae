"""Workload definitions: the CLI invocations each workload runs, grouped in rounds.

Every workload draws its invocations from a fixed pool whose data sections
were recorded as references (see ``record.py``), so every invocation of every
seed is checked byte for byte.  The pool is split into blocks of ``block``
rounds; the workload seed picks the starting block and shuffles the order of
rounds and of invocations inside each round.  Seed 0 (the default) and seed 1
(held out) therefore start on disjoint blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

ESTIMATE_SAMPLES = 32
ESTIMATE_WORKERS = 2
CROSSINGS_SEED = 1
CROSSINGS_PER_ROUND = 4

# The model flags of each workload, as (set, weights or None).
K2 = ("-1,1", None)
K3_WEIGHTED = ("-1,0,1", "1/4,1/4,1/2")
K2_WEIGHTED = ("-1,1", "1/4,3/4")
K3 = ("-1,0,1", None)

ESTIMATE_FLAGS = ("--depth", "1e-5", "--ratio", "0.5", "--eps", "0.01", "--threshold", "5")
CROSSINGS_FLAGS = ("--y", "0", "--window", "1e-2:1e-5", "--eps", "1e-3")


def _model_flags(model: tuple) -> tuple[str, ...]:
    spec, weights = model
    return ("--set", spec) + (("--weights", weights) if weights else ())


@dataclass(frozen=True)
class Case:
    """One CLI invocation; ``argv`` leaves out ``--workers``, which never changes data."""

    argv: tuple[str, ...]
    items: int          # samples, streams or words completed by the invocation

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def cli_args(self, workers: int) -> list[str]:
        if self.command == "estimate":
            return list(self.argv) + ["--workers", str(workers)]
        return list(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[tuple, ...]         # built during set-up
    pool: tuple[tuple[Case, ...], ...]  # rounds; each round is timed as a whole
    block: int                         # rounds per seed block

    def rounds_for_seed(self, seed: int) -> Iterator[tuple[Case, ...]]:
        """Endless, seed-determined sequence of rounds drawn from the pool."""
        rng = random.Random(seed)
        blocks = [self.pool[i:i + self.block] for i in range(0, len(self.pool), self.block)]
        start = seed % len(blocks)
        for _ in count():
            for b in range(len(blocks)):
                rounds = [list(r) for r in blocks[(start + b) % len(blocks)]]
                rng.shuffle(rounds)
                for r in rounds:
                    rng.shuffle(r)
                    yield tuple(r)

    def cases(self) -> list[Case]:
        return [c for r in self.pool for c in r]


def _estimate_case(model: tuple, master_seed: int) -> Case:
    argv = (("estimate",) + _model_flags(model)
            + ("--seed", str(master_seed), "--samples", str(ESTIMATE_SAMPLES)) + ESTIMATE_FLAGS)
    return Case(argv, ESTIMATE_SAMPLES)


def _crossings_case(index: int) -> Case:
    argv = (("crossings",) + _model_flags(K2)
            + ("--seed", str(CROSSINGS_SEED), "--index", str(index)) + CROSSINGS_FLAGS)
    return Case(argv, 1)


def _bijection_case(model: tuple, n: int) -> Case:
    k = len(model[0].split(","))
    return Case(("bijection", "verify") + _model_flags(model) + ("--n", str(n)), k ** n)


def _build() -> dict[str, Workload]:
    estimate = Workload(
        name="estimate",
        models=(K2, K3_WEIGHTED),
        pool=tuple((_estimate_case(K2, m), _estimate_case(K3_WEIGHTED, m)) for m in range(48)),
        block=16,
    )
    crossings = Workload(
        name="crossings",
        models=(K2,),
        pool=tuple(tuple(_crossings_case(CROSSINGS_PER_ROUND * r + j)
                         for j in range(CROSSINGS_PER_ROUND)) for r in range(48)),
        block=12,
    )
    bijection = Workload(
        name="bijection",
        models=(K2_WEIGHTED, K3),
        pool=((_bijection_case(K2_WEIGHTED, 16), _bijection_case(K3, 10)),),
        block=1,
    )
    return {w.name: w for w in (estimate, crossings, bijection)}


WORKLOADS = _build()
