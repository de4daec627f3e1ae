"""Record the CLI corpus: stdout, stderr summary and exit code of each recorded command.

Usage, from the repository root, at the commit whose outputs are the reference:

    PYTHONPATH=src python3 -m tests.record_cli_corpus

Each case runs in-process through ``cli.run``, in a fresh temporary working
directory (a case with a config file gets it there as ``config.json``), with
the case's environment variables, if any, set for the run.  The package
version in the provenance header (``"version": "..."`` of a JSON document,
``# randseries ...`` of a CSV one) is recorded as the token ``<version>``, so
a version bump alone does not change an entry and a recorded document still
parses.  A file the case writes there (an ``--svg`` plot) is recorded under
``files``.  To add a case, append it to ``CASES`` and run the script.

Entries already recorded are never replaced.  The script re-runs them and
exits with 1 if any output differs, so a difference is reported, not re-pinned.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from randseries.cli import run

CORPUS_PATH = Path(__file__).parent / "data" / "cli_corpus.json"
FIELDS = ("exit", "stdout", "stderr", "files")
_VERSION = re.compile(r'^(    "version": "|# randseries )[^"\n]*', re.MULTILINE)

_ORBIT_SETS = ["-1,1", "0,1", "-1,0,1", "-2,1/3,1,5/7", "1e-3,-7,2"]

# (argv, config file text or None[, environment variables])
CASES = [
    *[(["orbit-check", "--set", s, "--x", x, "--n", "5000"], None)
      for s in _ORBIT_SETS for x in ("0.5", "0.999")],
    (["witness", "--set", "-1,1", "--prefix", "1,-1,1", "--target", "10"], None),
    (["witness", "--set", "-1,0,1", "--prefix", "-1,-1,0,1,-1", "--target", "3"], None),
    (["witness", "--set", "-2,1/3,1,5/7", "--prefix", "5/7,-2,1/3,-2", "--target", "2.5"], None),
    (["bijection", "verify", "--set", "-1,1", "--n", "10"], None),
    (["bijection", "verify", "--set", "-1,0,1", "--n", "6"], None),
    # the benchmark's bijection pool, whose data sections it records under perfbench/references
    (["bijection", "verify", "--set", "-1,1", "--weights", "1/4,3/4", "--n", "16"], None),
    (["bijection", "verify", "--set", "-1,0,1", "--n", "10"], None),
    # inputs these commands reject with exit 2
    (["orbit-check", "--set", "-1,1", "--x", "1.5"], None),
    (["orbit-check", "--set", "1e308,-1e308", "--n", "1000"], None),
    (["orbit-check", "--set", "1.79e305,1.78e305", "--n", "1000"], None),
    (["witness", "--set", "-1,1", "--prefix", "a,b"], None),
    (["witness", "--set", "-1,1", "--prefix", "1", "--target", "inf"], None),
    (["witness", "--set", "-1,1", "--prefix", "1", "--grid-size", "0"], None),
    (["witness", "--set", "-1,1", "--prefix", "1", "--grid-size", "-5"], None),
    (["witness", "--set", "-1,1", "--prefix", "1", "--target", "1e308"], None),
    (["witness", "--set", "-1,1", "--prefix", ","], None),
    (["witness", "--set", "1e308,-1e308", "--prefix", "1e308,1e308"], None),
    (["witness", "--set", "-1,1", "--prefix", "2", "--target", "1"], None),
    (["witness", "--set", "-1,0", "--prefix", "0", "--target", "1"], None),
    (["bijection", "verify", "--set", "-1,1", "--n", "-1"], None),
    (["bijection", "verify", "--set", "-1,1", "--n", "0"], None),
    (["bijection", "verify", "--set", "-1,1"], None),
    (["bijection", "verify", "--set", "-1,1", "--config", "config.json"],
     '{"bijection": {"n": true}}'),
    # scan, estimate and crossings; estimate pins --workers, which the header echoes
    *[(["scan", *flags, "--depth", "1e-5"], None)
      for flags in (["--set", "-1,1"], ["--set", "-1,0,1", "--weights", "1/4,1/4,1/2"],
                    ["--set", "-2,1/3,1,5/7"])],
    *[(["estimate", *flags, "--seed", seed, "--samples", "32", "--depth", "1e-5", "--ratio",
        "0.5", "--eps", "0.01", "--threshold", "5", "--workers", "1"], None)
      for flags, seed in ((["--set", "-1,1"], "0"),
                          (["--set", "-1,0,1", "--weights", "1/4,1/4,1/2"], "1"))],
    *[(["crossings", "--set", "-1,1", "--seed", "1", "--index", index, "--window", "1e-2:1e-5",
        "--eps", "1e-3"], None) for index in ("0", "1")],
    # inputs over the work budget or the grid-point cap, which exit with 3
    (["scan", "--set", "-1,1", "--depth", "1e-9"], None),
    (["scan", "--set", "-1,1", "--ratio", "0.99999"], None),
    (["estimate", "--set", "-1,1", "--samples", "2", "--workers", "1", "--depth", "1e-9"], None),
    (["crossings", "--set", "-1,1", "--window", "1e-2:1e-9"], None),
    # counts and indices below their minimum, which exit with 2
    (["estimate", "--set", "-1,1", "--samples", "0"], None),
    (["estimate", "--set", "-1,1", "--workers", "0"], None),
    (["orbit-check", "--set", "-1,1", "--n", "0"], None),
    (["scan", "--set", "-1,1", "--index", "-1"], None),
    # the rest of the inputs that exit with 2, and a scan that writes its plot
    (["crossings", "--set", "-1,1", "--eps", "0"], None),
    (["scan", "--set", "-1,1", "--eps", "nan"], None),
    (["crossings", "--set", "-1,1", "--max-brackets", "0"], None),
    (["crossings", "--set", "-1,1", "--max-brackets", "-3"], None),
    (["crossings", "--set", "-1,1", "--window", "1e-5:1e-2"], None),
    (["crossings", "--set", "-1,1", "--window", "1e-2:0"], None),
    *[(["scan", "--set", "-1,1", "--config", "config.json"], text)
      for text in ("[1]", '{"scan": {"seed": "abc"}}', '{"scan": 5}',
                   '{"scan": {"dept": 1e-3}}')],
    (["estimate", "--set", "-1,1", "--config", "config.json"], '{"estimate": {"samples": 2.7}}'),
    (["scan", "--set", "1e400,1"], None),
    (["scan", "--set", "1e308,-1e308", "--depth", "1e-2"], None),
    (["crossings", "--set", "1e308,-1e308", "--window", "1e-1:1e-2"], None),
    *[(["scan", "--set", "-1,1", "--depth", "1e-2"], None, {"RANDSERIES_TERM_BUDGET": budget})
      for budget in ("abc", "0", "-5", "0.5", "1e400")],
    (["scan", "--set", "-1,1", "--threshold", "-1", "--depth", "1e-6"], None),
    (["scan", "--set", "-1,1", "--depth", "0"], None),
    (["scan", "--set", "-1,1", "--depth", "0.5"], None),
    (["scan", "--set", "-1,1", "--ratio", "1"], None),
    (["crossings", "--set", "-1,1", "--y", "nan"], None),
    (["scan", "--set", "-1,1", "--depth", "1e-5", "--svg", "plot.svg"], None),
    # a model, a config file or a window that cannot be read, and argparse's own errors
    (["estimate", "--set", "1"], None),
    (["scan", "--depth", "1e-2"], None),
    (["scan", "--set", "0,1", "--config", "nope.json"], None),
    (["crossings", "--set", "-1,1", "--window", "oops"], None),
    (["scan", "--set", "-1,1", "--seed", "abc"], None),
    (["bijection", "check", "--set", "-1,1", "--n", "3"], None),
    (["scan", "--set", "0,1", "--no-such-flag", "1"], None),
    (["nosuch"], None),
    # scans whose CSV goes to stdout, with their verdict lines
    (["scan", "--set", "1,2", "--depth", "1e-3", "--threshold", "5"], None),
    (["scan", "--set", "-1,1", "--seed", "0", "--depth", "1e-3"], None),
    (["scan", "--set", "0,1", "--depth", "1e-2"], None),
]


def case_key(argv: list[str], config: str | None, env: dict | None = None) -> str:
    key = shlex.join(argv)
    if env:
        key = " ".join([*(f"{name}={shlex.quote(value)}" for name, value in sorted(env.items())),
                        key])
    return key if config is None else f"{key}  # config.json: {config}"


def run_case(argv: list[str], config: str | None, env: dict | None = None) -> dict:
    """Exit code, stdout (with the version token) and stderr of one ``cli.run``, and
    the files it wrote, if any."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                Path("config.json").write_text(config, encoding="utf-8")
            with (mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = run(argv)
            files = {path.name: path.read_text(encoding="utf-8")
                     for path in sorted(Path(tmp).iterdir()) if path.name != "config.json"}
        finally:
            os.chdir(cwd)
    got = {"exit": code, "stdout": _VERSION.sub(r"\g<1><version>", out.getvalue()),
           "stderr": err.getvalue()}
    return {**got, "files": files} if files else got


def load() -> dict:
    with open(CORPUS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _recorded_with() -> dict:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=Path(__file__).parent).stdout.strip()
    return {"git_commit": commit or None, "python": platform.python_version(),
            "numpy": np.__version__}


def _one_case_per_line(doc: dict) -> str:
    cases = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
                       for key, entry in sorted(doc["cases"].items()))
    return (f'{{"recorded_with": {json.dumps(doc["recorded_with"], sort_keys=True)},\n'
            f' "cases": {{\n{cases}\n }}\n}}\n')


def record() -> bool:
    doc = load() if CORPUS_PATH.exists() else {"recorded_with": _recorded_with(), "cases": {}}
    ok = True
    for case in CASES:
        key = case_key(*case)
        got = run_case(*case)
        entry = doc["cases"].get(key)
        if entry is None:
            argv, config, *env = case
            doc["cases"][key] = {"argv": argv, "config": config,
                                 **({"env": env[0]} if env else {}), **got}
            continue
        for field in FIELDS:
            if entry.get(field) != got.get(field):
                print(f"{key}: {field} differs from the recorded reference", file=sys.stderr)
                ok = False
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text(_one_case_per_line(doc), encoding="utf-8")
    return ok


if __name__ == "__main__":
    sys.exit(0 if record() else 1)
