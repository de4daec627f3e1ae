"""The CLI reproduces the recorded corpus: stdout, stderr and exit code.

The corpus is written by ``tests/record_cli_corpus.py``; see its docstring.
"""

import pytest

from .record_cli_corpus import CASES, FIELDS, case_key, load, run_case

CORPUS = load()["cases"]


def test_every_case_is_recorded():
    assert sorted(CORPUS) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_corpus_entry(key):
    entry = CORPUS[key]
    got = run_case(entry["argv"], entry["config"], entry.get("env"))
    assert got == {field: entry[field] for field in FIELDS if field in entry}
