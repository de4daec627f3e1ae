"""Tests of the benchmark's own machinery: spans, reference checks, names and closed forms."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Span, Tracer, instrument, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench_json():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(0, "cli.run", None, 0.0, 10.0),
            Span(1, "series_eval.eval_to_eps", 0, 1.0, 3.0),
            Span(2, "coefficients.float_coefficients", 1, 1.5, 2.5),
            Span(3, "series_eval.eval_to_eps", 0, 6.0, 7.0),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 2.0 - 1.0)   # grandchild not subtracted twice
        assert own[1] == pytest.approx(2.0 - 1.0)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(1.0)

    def test_overlapping_and_protruding_children_count_once(self):
        spans = [
            Span(0, "a.f", None, 0.0, 10.0),
            Span(1, "b.g", 0, 2.0, 5.0),
            Span(2, "b.g", 0, 4.0, 6.0),
            Span(3, "b.g", 0, 9.0, 12.0),
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)

    def test_tracer_links_parents_with_a_fake_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("cli.run"):
            with tracer.span("boundary_scan.scan"):
                with tracer.span("series_eval.eval_to_eps"):
                    pass
            with tracer.span("boundary_scan.verdict"):
                pass
        run_, scan_, eval_, verdict_ = tracer.spans
        assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
        own = self_times(tracer.spans)
        assert own[run_.id] == run_.duration - scan_.duration - verdict_.duration
        assert own[scan_.id] == scan_.duration - eval_.duration

    def test_instrument_sees_calls_through_imported_names_and_restores(self):
        from randseries import boundary_scan, series_eval
        from randseries.boundary_scan import ScanGrid
        from randseries.coefficients import SequenceStream, parse_model

        originals = (series_eval.eval_to_eps, boundary_scan.eval_to_eps, boundary_scan.scan)
        tracer = Tracer()
        restore = instrument(tracer, layers.probes())
        try:
            stream = SequenceStream(parse_model("-1,1"), 3, 0)
            boundary_scan.scan(stream, ScanGrid(delta_min=1e-2), 0.01)
        finally:
            restore()
        assert (series_eval.eval_to_eps, boundary_scan.eval_to_eps,
                boundary_scan.scan) == originals
        names = [s.name for s in tracer.spans]
        deltas = ScanGrid(delta_min=1e-2).deltas()
        assert names.count("series_eval.eval_to_eps") == len(deltas)
        metrics = layers.layer_metrics(tracer.spans, {})
        terms = layers.scan_terms(1.0, ScanGrid(delta_min=1e-2), 0.01)
        assert metrics["series_eval.terms"] == sum(terms)
        assert metrics["coefficients.draws"] == max(terms)


class TestReferenceCheck:
    def test_recorded_section_passes_and_tampered_one_fails(self):
        refs = reference.load_references("bijection")
        key, data = next(iter(refs.items()))
        assert reference.mismatch(refs, key, json.loads(json.dumps(data))) is None
        tampered = dict(data, matched_count=data["matched_count"] + 1)
        reason = reference.mismatch(refs, key, tampered)
        assert reason is not None and "matched_count" in reason

    def test_tampered_crossings_row_fails(self):
        refs = reference.load_references("crossings")
        key, data = next(iter(refs.items()))
        config = {"indeterminate_cells": data["indeterminate_cells"],
                  "truncated": data["truncated"]}
        text = ("# randseries 0.1.0\n# config " + json.dumps(config) + "\n"
                "a,b,sign_at_a,depth_decade\n" + "".join(r + "\n" for r in data["rows"]))
        section = reference.data_section("crossings", text)
        assert reference.mismatch(refs, key, section) is None
        section["indeterminate_cells"] += 1
        assert reference.mismatch(refs, key, section) is not None

    def test_unknown_case_fails(self):
        assert reference.mismatch({}, "estimate --seed 99", {}) is not None

    def test_every_pooled_case_has_a_reference(self):
        for name, workload in WORKLOADS.items():
            refs = reference.load_references(name)
            assert {c.key for c in workload.cases()} <= set(refs)


class TestNames:
    def test_metric_and_workload_names(self):
        bench = _bench_json()
        names = ([m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
                 + [w["name"] for w in bench["workloads"]])
        emitted = list(layers.layer_metrics([], {})) + list(END_TO_END)
        for name in names + emitted:
            assert NAME.fullmatch(name) and len(name) <= 64, name
        assert len(set(names)) == len(names)

    def test_benchmark_json_matches_emitted_metrics(self):
        bench = _bench_json()
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
        assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
            (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()]
        assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


class TestClosedForms:
    def test_published_counts(self):
        from randseries.boundary_scan import ScanGrid
        est = next(WORKLOADS["estimate"].rounds_for_seed(0))
        counts = layers.expected_counts(est)
        samples = sum(c.items for c in est)
        assert counts["series_eval.terms"] == 4_106_209 * samples
        assert counts["series_eval.evals"] == 15 * samples
        n_max = max(layers.scan_terms(1.0, ScanGrid(delta_min=1e-5), 0.01))
        assert counts["coefficients.draws"] == n_max * samples
        cross = next(WORKLOADS["crossings"].rounds_for_seed(0))
        assert layers.expected_counts(cross)["crossings.grid_evals"] == 194 * len(cross)
        bij = WORKLOADS["bijection"].cases()
        assert layers.expected_counts(bij)["combinatorics.words"] == 124_585


class TestSeeds:
    def test_same_seed_same_inputs_and_held_out_seed_disjoint(self):
        for workload in WORKLOADS.values():
            def first(seed):
                rounds = workload.rounds_for_seed(seed)
                return [next(rounds) for _ in range(workload.block)]

            assert first(0) == first(0)
            if workload.block < len(workload.pool):
                keys = [{c.key for r in first(s) for c in r} for s in (0, 1)]
                assert not keys[0] & keys[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bijection",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
