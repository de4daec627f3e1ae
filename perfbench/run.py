"""Benchmark of the randseries CLI: three workloads run in-process through ``cli.run``.

Usage, from the repository root:

    python3 perfbench/run.py --workload estimate --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: ``items_per_s``
(median over timed rounds), ``setup_s`` (median of several cold starts) and
``peak_rss_mb``.  ``--trace 1`` measures the same cases untraced and then
traced, and reports the per-layer metrics of ``layers.PER_LAYER``, checking
their counts against closed forms and between two traced passes.  Every
invocation's data section is checked against the recorded reference; the last
line of standard output is the JSON result.  BLAS is pinned to one thread per
process and ``estimate`` uses a pool of 2 workers.  Per-run records, with
provenance and (for traced runs) every span, are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import data_section, load_references, mismatch
from spans import Tracer, instrument
from workloads import ESTIMATE_WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_STARTS = 9
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def prepare() -> None:
    """Pin BLAS to one thread and import the package from this checkout's ``src``.

    Raises SystemExit(2) when the sources are missing or another copy is imported.
    """
    if not (SRC / "randseries" / "__init__.py").is_file():
        print(f"error: randseries sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import randseries
    if Path(randseries.__file__).resolve().parent != (SRC / "randseries").resolve():
        print(f"error: imported randseries from {randseries.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def call_cli(case, workers: int) -> tuple[int, str, str]:
    """Run one invocation through ``randseries.cli.run``; return (exit code, stdout, stderr)."""
    from randseries import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(case.cli_args(workers))
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs invocations, checks each data section and counts failed operations."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, case, workers: int, tracer=None) -> bool:
        self.attempted += 1
        try:
            if tracer is None:
                code, out, err = call_cli(case, workers)
            else:
                with tracer.span("cli.run") as span:
                    code, out, err = call_cli(case, workers)
                span.attrs["bytes_written"] = len(out.encode())
            if code != 0:
                problem = f"exit code {code} for {case.key!r}: {err.strip()[-300:]}"
            else:
                problem = mismatch(self.references, case.key, data_section(case.command, out))
        except Exception:  # one crashing invocation is a failed operation; the run goes on
            problem = f"{case.key!r} raised:\n{traceback.format_exc()}"
        if problem:
            self.failures.append(problem)
            print(f"FAILED: {problem}", file=sys.stderr)
        return problem is None

    def round(self, cases, workers: int, tracer=None) -> tuple[int, float]:
        """Run one round; return (items completed, wall seconds)."""
        t0 = time.perf_counter()
        items = sum(c.items for c in cases if self.invoke(c, workers, tracer))
        return items, time.perf_counter() - t0


def setup_seconds(workload) -> list[float]:
    """Cold starts in fresh interpreters: import the CLI and build the workload's models."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    specs = [spec if weights is None else f"{spec};{weights}" for spec, weights in workload.models]
    out = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *specs],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "randseries").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    """Machine, toolchain and code identity of a run."""
    import numpy
    import randseries
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "randseries": randseries.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def measure(workload, seed: int, seconds: float, runner: Runner) -> dict:
    """Untraced closed loop: one checked warm-up invocation, then timed rounds for ``seconds``."""
    rounds = workload.rounds_for_seed(seed)
    runner.round(next(rounds)[:1], ESTIMATE_WORKERS)
    rates = []
    deadline = time.perf_counter() + seconds
    while True:
        items, dt = runner.round(next(rounds), ESTIMATE_WORKERS)
        rates.append(items / dt)
        if time.perf_counter() >= deadline:
            break
    return {"rates": rates}


def measure_traced(workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics over the seed's first round, plus untraced rates on the same round.

    Untraced passes alternate 1 and 2 workers for ``estimate``; the two traced
    passes use 1 worker, so every span is recorded in this process.
    """
    import layers   # imports randseries, so only after prepare()
    cases = next(workload.rounds_for_seed(seed))
    worker_counts = (1, ESTIMATE_WORKERS) if workload.name == "estimate" else (1,)
    runner.round(cases[:1], 1)
    times = {w: [] for w in worker_counts}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not times[1]:
        for w in worker_counts:
            times[w].append(runner.round(cases, w)[1])

    passes = []
    for _ in range(2):
        tracer = Tracer()
        restore = instrument(tracer, layers.probes())
        try:
            _, dt = runner.round(cases, 1, tracer)
        finally:
            restore()
        passes.append((tracer.spans, dt))

    items = sum(c.items for c in cases)
    t1 = statistics.median(times[1])
    rates = {"untraced": items / t1, "traced": items / passes[1][1]}
    print(f"tracing overhead at 1 worker: traced {rates['traced']:.6g} items/s against "
          f"untraced {rates['untraced']:.6g} items/s")
    extras = {"trace.overhead_frac": 1.0 - rates["traced"] / rates["untraced"]}
    if workload.name == "estimate":
        t2 = statistics.median(times[ESTIMATE_WORKERS])
        extras["montecarlo.scaling_eff"] = t1 / (ESTIMATE_WORKERS * t2)
        extras["montecarlo.pool_overhead_s"] = (t2 - t1 / ESTIMATE_WORKERS) / len(cases)
    first = layers.layer_metrics(passes[0][0], extras)
    metrics = layers.layer_metrics(passes[1][0], extras)

    problems = [f"{name} differs between traced passes: {first[name]} vs {metrics[name]}"
                for name in layers.COUNTS if first[name] != metrics[name]]
    for name, want in layers.expected_counts(cases).items():
        if metrics[name] != want:
            problems.append(f"{name} = {metrics[name]}, closed form gives {want}")
    record = {
        "cases": [c.key for c in cases],
        "untraced_pass_s": {str(w): t for w, t in times.items()},
        "traced_pass_s": [dt for _, dt in passes],
        "items_per_s_1_worker": rates,
        "count_problems": problems,
        "spans": [vars(s) for s in passes[1][0]],
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(load_references(workload.name))
    record = {"provenance": dict(
        provenance(), workload=workload.name, seed=args.seed, trace=args.trace,
        workers=ESTIMATE_WORKERS if workload.name == "estimate" else 1)}

    if args.trace:
        import layers
        metrics, traced = measure_traced(workload, args.seed, args.seconds, runner)
        record.update(traced)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        correct = not runner.failures and not traced["count_problems"]
        for problem in traced["count_problems"]:
            print(f"COUNT CHECK FAILED: {problem}", file=sys.stderr)
    else:
        starts = setup_seconds(workload)
        loop = measure(workload, args.seed, args.seconds, runner)
        record.update(loop, setup_starts=starts)
        metrics = {"items_per_s": statistics.median(loop["rates"]),
                   "setup_s": statistics.median(starts),
                   "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
        correct = not runner.failures
        q = _quartiles(loop["rates"])
        print(f"workload {workload.name}, seed {args.seed}: {len(loop['rates'])} timed rounds, "
              f"items_per_s quartiles {q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}")

    failed = len(runner.failures)
    failed_ops_frac = failed / runner.attempted
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'failed_ops_frac':32s} {failed_ops_frac:.6g} ratio ({failed} of {runner.attempted} "
          f"invocations)")
    record.update(failed_ops_frac=failed_ops_frac, failures=runner.failures,
                  metrics={name: {"value": v, "unit": units[name]} for name, v in metrics.items()})
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
