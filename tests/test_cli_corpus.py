"""The CLI reproduces the recorded corpus: stdout, stderr and exit code.

The corpus is written by ``tests/record_cli_corpus.py``; see its docstring.
"""

import json
from pathlib import Path

import pytest

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


def _data_section(stdout: str):
    # the data member opens the document; a recorded stdout lacks its version line,
    # so the member is read on its own
    start = stdout.index('"data": ') + len('"data": ')
    return json.JSONDecoder().raw_decode(stdout, start)[0]


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
        assert _data_section(CORPUS[key]["stdout"]) == references[ref], key
