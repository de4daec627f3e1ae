"""Record the reference data section of every pooled invocation.

Usage, from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py [WORKLOAD ...]

Entries already recorded are never replaced.  The script re-runs them and
exits with 1 if any output differs, so a difference is reported, not re-pinned.
"""

from __future__ import annotations

import json
import sys

from reference import canonical, data_section, reference_path
from run import call_cli, prepare, provenance
from workloads import ESTIMATE_WORKERS, WORKLOADS


def record(name: str) -> bool:
    path = reference_path(name)
    doc = {"recorded_with": None, "cases": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    ok = True
    for case in WORKLOADS[name].cases():
        code, out, err = call_cli(case, ESTIMATE_WORKERS)
        if code != 0:
            print(f"{case.key}: exit code {code}: {err}", file=sys.stderr)
            return False
        data = data_section(case.command, out)
        if case.key not in doc["cases"]:
            doc["cases"][case.key] = data
        elif canonical(doc["cases"][case.key]) != canonical(data):
            print(f"{case.key}: differs from the recorded reference", file=sys.stderr)
            ok = False
    if doc["recorded_with"] is None:
        prov = provenance()
        doc["recorded_with"] = {k: prov[k] for k in ("git_commit", "src_sha256", "python",
                                                     "numpy", "randseries")}
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_one_case_per_line(doc))
    return ok


def _one_case_per_line(doc: dict) -> str:
    cases = ",\n".join(f"  {json.dumps(key)}: {canonical(data)}"
                       for key, data in sorted(doc["cases"].items()))
    return (f'{{"recorded_with": {json.dumps(doc["recorded_with"], sort_keys=True)},\n'
            f' "cases": {{\n{cases}\n }}\n}}\n')


def main(argv: list[str]) -> int:
    prepare()
    names = argv or sorted(WORKLOADS)
    results = [record(name) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
