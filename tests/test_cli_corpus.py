"""The CLI reproduces the recorded corpus: stdout, stderr and exit code.

The corpus is written by ``tests/record_cli_corpus.py``; see its docstring.
"""

import json
from pathlib import Path

import pytest

from randseries import cli

from .record_cli_corpus import CASES, FIELDS, case_key, load, run_case

CORPUS = load()["cases"]
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references"


def test_every_case_is_recorded():
    assert sorted(CORPUS) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_corpus_entry(key):
    entry = CORPUS[key]
    got = run_case(entry["argv"], entry["config"], entry.get("env"))
    assert got == {field: entry[field] for field in FIELDS if field in entry}


def test_every_failure_is_one_error_line_and_no_output():
    # the error rule, read from the recorded entries: a failed run prints no stdout and
    # one "error: " line; a run that succeeds prints at most a one-line summary
    broken = []
    for key, entry in CORPUS.items():
        err = entry["stderr"]
        lines = err.split("\n")        # one line and its newline split to [line, ""]
        one_line = len(lines) == 2 and lines[1] == ""
        if entry["exit"]:
            ok = entry["stdout"] == "" and one_line and err.startswith("error: ")
        else:
            ok = (err == "" or one_line) and not err.startswith("error:")
        broken += [] if ok else [key]
    assert broken == []


@pytest.mark.parametrize("key", ["orbit-check --set -1,1 --x 0.5 --n 5000",   # a JSON document
                                 "scan --set 0,1 --depth 1e-2"])              # a CSV document
def test_a_version_bump_moves_no_entry(key, monkeypatch):
    monkeypatch.setattr(cli, "__version__", "99.0.0")
    test_corpus_entry(key)


@pytest.mark.parametrize("workload,count", [("estimate", 2), ("bijection", 2)])
def test_benchmark_cases_keep_their_recorded_data(workload, count):
    # a corpus entry on a benchmark case holds the data section the benchmark checks
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as fh:
        references = json.load(fh)["cases"]
    # the corpus pins an estimate's --workers, which its data section does not depend on
    matched = {key: key.replace(" --workers 1", "") for key in CORPUS}
    matched = {key: ref for key, ref in matched.items() if ref in references}
    assert len(matched) == count
    for key, ref in matched.items():
        assert json.loads(CORPUS[key]["stdout"])["data"] == references[ref], key
