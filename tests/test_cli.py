import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import randseries
from randseries import boundary_scan, cli, crossings, montecarlo, symmetry, witnesses
from randseries.cli import run
from randseries.coefficients import SequenceStream


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestScanCommand:
    def test_writes_csv_with_provenance(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run(["scan", "--set", "0,1", "--seed", "1", "--depth", "1e-3",
                    "--out", str(out)])
        assert code == 0
        text = read(out)
        lines = text.splitlines()
        assert lines[0].startswith("# randseries ")
        assert lines[1].startswith("# config ")
        assert lines[2] == "m,x,N_used,value,lower,upper,running_sup_lower,running_inf_upper"
        assert len(lines) > 3
        assert "verdict:" in capsys.readouterr().err

    @pytest.mark.parametrize("args,summary", [
        (["--set", "1,2", "--depth", "1e-3", "--threshold", "5"],
         "verdict: PlusInfinityLike (threshold 5.0)\n"),
        (["--set", "-1,1", "--seed", "0", "--depth", "1e-3"],
         "verdict: Inconclusive (threshold 10.0)\n"),
    ])
    def test_stderr_summary(self, capsys, args, summary):
        assert run(["scan", *args]) == 0
        assert capsys.readouterr().err == summary

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "scan.csv"
        args = ["scan", "--set", "-1,1", "--seed", "9", "--depth", "1e-3",
                "--out", str(out)]
        assert run(args) == 0
        first = read(out)
        assert run(args) == 0
        assert read(out) == first

    def test_svg_side_channel(self, tmp_path):
        out = tmp_path / "scan.csv"
        svg = tmp_path / "scan.svg"
        code = run(["scan", "--set", "0,1", "--depth", "1e-2",
                    "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert read(svg).startswith("<svg ")

    def test_stdout_when_no_out(self, capsys):
        assert run(["scan", "--set", "0,1", "--depth", "1e-2"]) == 0
        assert "running_sup_lower" in capsys.readouterr().out


class TestConfigHandling:
    def test_config_error_exit_two(self, capsys):
        assert run(["estimate", "--set", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exit_two(self, capsys):
        assert run(["scan", "--set", "0,1", "--no-such-flag", "1"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["scan", "--help"]) == 0

    def test_missing_set_exit_two(self, capsys):
        assert run(["scan", "--depth", "1e-2"]) == 2

    def test_config_file_merged_and_overridden(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan": {"set": "0,1", "depth": 1e-2, "seed": 4}}))
        out = tmp_path / "scan.csv"
        code = run(["scan", "--config", str(cfg), "--depth", "1e-3",
                    "--out", str(out)])
        assert code == 0
        header = read(out).splitlines()[1]
        echoed = json.loads(header[len("# config "):])
        assert echoed["set"] == "0,1"
        assert echoed["seed"] == 4
        assert echoed["depth"] == 1e-3          # flag overrides file

    def test_flat_and_keyed_config_files_shared_between_subcommands(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"set": "-1,1", "depth": 1e-2, "window": "1e-1:1e-2",
                                    "samples": 2, "workers": 1}))
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps({"scan": {"set": "-1,1", "depth": 1e-2},
                                     "orbit-check": {"n": 100}}))
        assert run(["estimate", "--config", str(flat)]) == 0
        assert run(["crossings", "--config", str(flat)]) == 0
        assert run(["scan", "--config", str(keyed)]) == 0
        assert run(["crossings", "--set", "-1,1", "--window", "1e-1:1e-2",
                    "--config", str(keyed)]) == 0

    def test_flat_keys_apply_under_the_section_of_the_running_subcommand(self, tmp_path,
                                                                          capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "depth": 1e-1, "ratio": 0.25,
                                   "scan": {"set": "-1,1", "depth": 1e-2, "ratio": 0.5}}))
        out = tmp_path / "scan.csv"
        assert run(["scan", "--config", str(cfg), "--ratio", "0.4", "--out", str(out)]) == 0
        echoed = json.loads(read(out).splitlines()[1][len("# config "):])
        assert echoed["seed"] == 4              # flat key kept beside the section
        assert echoed["depth"] == 1e-2          # the section overrides the flat key
        assert echoed["ratio"] == 0.4           # the flag overrides both
        cfg.write_text(json.dumps({"dept": 1e-2, "scan": {"set": "-1,1", "depth": 1e-2}}))
        assert run(["scan", "--config", str(cfg)]) == 2
        assert "unknown key 'dept'" in capsys.readouterr().err

    def test_unreadable_config_exit_two(self, tmp_path, capsys):
        assert run(["scan", "--set", "0,1", "--config", str(tmp_path / "nope.json")]) == 2


class TestEstimateCommand:
    def test_json_report_structure(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["estimate", "--set", "-1,1", "--samples", "20", "--seed", "7",
                    "--depth", "1e-3", "--threshold", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(read(out))
        assert doc["provenance"]["tool"] == "randseries"
        data = doc["data"]
        assert sum(data["counts"].values()) + data["budget_errors"] == 20
        assert set(data["counts"]) == {"PlusInfinityLike", "MinusInfinityLike",
                                       "OscillationLike", "Inconclusive"}
        assert "per_depth" in data and "wilson_95" in data

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["estimate", "--set", "-1,1", "--samples", "10", "--seed", "3",
                "--depth", "1e-3", "--out", str(out)]
        assert run(args) == 0
        first = read(out)
        assert run(args) == 0
        assert read(out) == first


class TestBijectionCommand:
    def test_verify_report(self, tmp_path):
        out = tmp_path / "bij.json"
        code = run(["bijection", "verify", "--set", "-1,1", "--n", "6",
                    "--out", str(out)])
        assert code == 0
        data = json.loads(read(out))["data"]
        assert data["matched_count"] == 44
        assert data["domain_fraction"] == "11/16"
        assert data["injective"] and data["sum_shift_exact"]

    def test_weighted_verify(self, tmp_path):
        out = tmp_path / "bij.json"
        code = run(["bijection", "verify", "--set", "-1,1",
                    "--weights", "1/4,3/4", "--n", "5", "--out", str(out)])
        assert code == 0
        data = json.loads(read(out))["data"]
        assert data["measure_ratio"] == "3"


class TestOrbitCheckCommand:
    def test_zero_sum_alphabet(self, capsys):
        code = run(["orbit-check", "--set", "-1,0,1", "--seed", "2",
                    "--x", "0.9", "--n", "500"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        data = doc["data"]
        assert abs(data["orbit_sum"]) < 1e-9
        assert "nonneg_index" in data and "nonpos_index" in data

    def test_nonzero_sum_closed_form(self, capsys):
        code = run(["orbit-check", "--set", "0,1", "--seed", "2",
                    "--x", "0.5", "--n", "100"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert abs(data["residual"]) < 1e-12

    @pytest.mark.parametrize("values,k", [("-1,0,1", 3), ("0,1", 2)])
    def test_each_rotation_evaluated_once(self, values, k, monkeypatch, capsys):
        calls = []
        real = symmetry.eval_prefix

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(symmetry, "eval_prefix", counting)
        assert run(["orbit-check", "--set", values, "--x", "0.9", "--n", "300"]) == 0
        assert len(calls) == k


class TestCrossingsCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "roots.csv"
        code = run(["crossings", "--set", "-1,1", "--seed", "12", "--y", "0",
                    "--window", "1e-1:1e-3", "--eps", "1e-3", "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[2] == "a,b,sign_at_a,depth_decade"

    def test_bad_window_exit_two(self):
        assert run(["crossings", "--set", "-1,1", "--window", "oops"]) == 2


class TestWitnessCommand:
    def test_witness_fields(self, tmp_path):
        out = tmp_path / "w.json"
        code = run(["witness", "--set", "-1,1", "--prefix", "1,-1,1",
                    "--target", "10", "--out", str(out)])
        assert code == 0
        data = json.loads(read(out))["data"]
        assert data["N"] > data["M"] > 3
        assert data["margin"] > 0
        assert data["x_expression"] == f"1-2^-{data['t']}"


# subcommand -> (leading arguments, options given as flags or as a config file)
EMISSION_CASES = {
    "scan": (["scan"], {"set": "0,1", "seed": 3, "depth": 1e-2}),
    "estimate": (["estimate"], {"set": "-1,1", "samples": 4, "workers": 1, "depth": 1e-3,
                                "threshold": 2.0}),
    "bijection": (["bijection", "verify"], {"set": "-1,1", "n": 5}),
    "orbit-check": (["orbit-check"], {"set": "-1,0,1", "x": 0.9, "n": 200}),
    "crossings": (["crossings"], {"set": "-1,1", "seed": 12, "window": "1e-1:1e-3"}),
    "witness": (["witness"], {"set": "-1,1", "prefix": "1,-1,1", "target": 10.0}),
}


def echoed_config(doc):
    if doc.startswith("{"):
        return json.loads(doc)["provenance"]["config"]
    line = doc.splitlines()[1]
    assert line.startswith("# config ")
    return json.loads(line[len("# config "):])


class TestSingleEmission:
    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("command", list(EMISSION_CASES))
    def test_out_file_holds_the_stdout_document(self, command, via_config, tmp_path, capsys):
        head, options = EMISSION_CASES[command]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({command: options}), encoding="utf-8")
            argv = head + ["--config", str(cfg)]
        else:
            argv = head + [a for key, value in options.items()
                           for a in ("--" + key, str(value))]
        assert run(argv) == 0
        printed = capsys.readouterr()
        out = tmp_path / "doc"
        assert run(argv + ["--out", str(out)]) == 0
        written = capsys.readouterr()
        assert written.out == ""
        assert written.err == printed.err
        # the two documents differ only in the echoed --out value
        assert read(out) == printed.out.replace('"out": null', f'"out": {json.dumps(str(out))}')
        echoed = echoed_config(printed.out)
        assert {key: echoed[key] for key in options} == options


def _forbid(monkeypatch, target, name, what):
    """Replace ``target.name`` by a function that fails the test: ``what`` happened."""
    def forbidden(*args, **kwargs):
        raise AssertionError(what)

    monkeypatch.setattr(target, name, forbidden)


def _error_line(capsys) -> str:
    """The stderr of a failed run, checked to be one ``error: `` line with no stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestFailFast:
    @pytest.mark.parametrize("argv,env", [
        (["orbit-check", "--set", "-1,1", "--x", "1.5"], {}),
        (["witness", "--set", "-1,1", "--prefix", "a,b"], {}),
        (["witness", "--set", "-1,1", "--prefix", "1", "--target", "inf"], {}),
        (["crossings", "--set", "-1,1", "--eps", "0"], {}),
        (["scan", "--set", "-1,1", "--eps", "nan"], {}),
        (["scan", "--set", "-1,1", "--depth", "1e-2"], {"RANDSERIES_TERM_BUDGET": "abc"}),
        (["scan", "--set", "-1,1", "--depth", "1e-2"], {"RANDSERIES_TERM_BUDGET": "0"}),
        (["scan", "--set", "-1,1", "--depth", "1e-2"], {"RANDSERIES_TERM_BUDGET": "-5"}),
        (["scan", "--set", "-1,1", "--depth", "1e-2"], {"RANDSERIES_TERM_BUDGET": "0.5"}),
        (["scan", "--set", "-1,1", "--depth", "1e-2"], {"RANDSERIES_TERM_BUDGET": "1e400"}),
        (["bijection", "verify", "--set", "-1,1", "--n", "-1"], {}),
        (["bijection", "verify", "--set", "-1,1", "--n", "0"], {}),
        (["witness", "--set", "-1,1", "--prefix", "1", "--grid-size", "0"], {}),
        (["witness", "--set", "-1,1", "--prefix", "1", "--grid-size", "-5"], {}),
        (["witness", "--set", "-1,1", "--prefix", "1", "--target", "1e308"], {}),
        (["witness", "--set", "-1,1", "--prefix", ","], {}),
        (["crossings", "--set", "-1,1", "--max-brackets", "0"], {}),
        (["crossings", "--set", "-1,1", "--max-brackets", "-3"], {}),
        (["crossings", "--set", "-1,1", "--window", "1e-5:1e-2"], {}),
        (["scan", "--set", "-1,1", "--config", "[1]"], {}),
        (["scan", "--set", "-1,1", "--config", '{"scan": {"seed": "abc"}}'], {}),
        (["scan", "--set", "-1,1", "--config", '{"scan": 5}'], {}),
        (["scan", "--set", "-1,1", "--config", '{"scan": {"dept": 1e-3}}'], {}),
        (["estimate", "--set", "-1,1", "--config", '{"estimate": {"samples": 2.7}}'], {}),
        (["bijection", "verify", "--set", "-1,1", "--config", '{"bijection": {"n": true}}'], {}),
        (["scan", "--set", "1e400,1"], {}),
        (["scan", "--set", "1e308,-1e308", "--depth", "1e-2"], {}),
        (["crossings", "--set", "1e308,-1e308", "--window", "1e-1:1e-2"], {}),
        (["orbit-check", "--set", "1e308,-1e308", "--n", "1000"], {}),
        (["orbit-check", "--set", "1.79e305,1.78e305", "--n", "1000"], {}),
        (["witness", "--set", "1e308,-1e308", "--prefix", "1e308,1e308"], {}),
    ])
    def test_invalid_input_exit_two(self, argv, env, monkeypatch, capsys, tmp_path):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        if "--config" in argv:   # the row holds the file's JSON text; pass a file with it
            i = argv.index("--config") + 1
            path = tmp_path / "config.json"
            path.write_text(argv[i], encoding="utf-8")
            argv = argv[:i] + [str(path)] + argv[i + 1:]
        assert run(argv) == 2
        _error_line(capsys)

    def test_estimate_over_budget_exit_three_before_sampling(self, monkeypatch, capsys):
        _forbid(monkeypatch, montecarlo, "scan", "a sample was scanned")
        assert run(["estimate", "--set", "-1,1", "--samples", "4", "--workers", "1",
                    "--depth", "1e-9"]) == 3
        assert "required" in _error_line(capsys)

    @pytest.mark.parametrize("module,argv", [
        (boundary_scan, ["scan", "--set", "-1,1", "--depth", "1e-9"]),
        (crossings, ["crossings", "--set", "-1,1", "--window", "1e-2:1e-9"]),
    ])
    def test_grid_over_budget_exit_three_before_evaluating(self, module, argv,
                                                            monkeypatch, capsys):
        _forbid(monkeypatch, module, "eval_to_eps", "a grid point was evaluated")
        assert run(argv) == 3
        assert f"{argv[0]} grid point" in _error_line(capsys)

    @pytest.mark.parametrize("ratio", ["0.999999", "0.9999999999999999"])
    def test_grid_point_count_over_budget_exit_three(self, ratio, monkeypatch, capsys):
        _forbid(monkeypatch, boundary_scan, "eval_to_eps", "a grid point was evaluated")
        start = time.perf_counter()
        assert run(["scan", "--set", "-1,1", "--delta-start", "0.5", "--ratio", ratio,
                    "--depth", "1e-5"]) == 3
        assert time.perf_counter() - start < 5.0     # no grid list is built
        assert "scan grid point count" in _error_line(capsys)

    def test_scan_bad_threshold_exit_two_before_scanning(self, monkeypatch, capsys):
        _forbid(monkeypatch, boundary_scan, "eval_to_eps", "a grid point was evaluated")
        assert run(["scan", "--set", "-1,1", "--threshold", "-1", "--depth", "1e-6"]) == 2
        assert _error_line(capsys) == "error: threshold must lie in (0, inf), got -1.0\n"

    def test_orbit_check_over_budget_exit_three_before_prefix(self, monkeypatch, capsys):
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "1000")
        _forbid(monkeypatch, SequenceStream, "prefix", "the prefix was built")
        assert run(["orbit-check", "--set", "-1,1", "--n", "1001"]) == 3
        assert "required 1001 > budget 1000" in _error_line(capsys)

    def test_witness_grid_over_budget_exit_three_before_allocating(self, monkeypatch,
                                                                   capsys):
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "1000")
        _forbid(monkeypatch, witnesses.np, "arange", "the grid was allocated")
        assert run(["witness", "--set", "-1,1", "--prefix", "1", "--grid-size", "1000"]) == 3
        assert "required 1001 > budget 1000" in _error_line(capsys)

    def test_bijection_over_word_budget_exit_three(self, capsys):
        assert run(["bijection", "verify", "--set", "-1,1", "--n", "22"]) == 3
        assert "required 92274688" in capsys.readouterr().err


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*args, timeout=120):
        env = dict(os.environ)
        src = str(Path(randseries.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "randseries.cli", *args],
                              capture_output=True, text=True, env=env, timeout=timeout)

    def test_bijection_verify_prints_report(self):
        proc = self.run_module("bijection", "verify", "--set", "-1,1", "--n", "4")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["data"]["matched_count"] == 10

    def test_invalid_length_exit_two(self):
        proc = self.run_module("bijection", "verify", "--set", "-1,1", "--n", "0")
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["scan", "--depth", "1e-2"],
        ["estimate", "--samples", "2", "--workers", "1", "--depth", "1e-2"],
        ["crossings", "--window", "1e-1:1e-2"],
    ])
    def test_eps_below_the_tail_floor_exit_two(self, argv):
        # no tail bound falls below 1e-300; in a child process, so a settle loop
        # that never ends fails the test at the timeout instead of hanging it
        proc = self.run_module(*argv, "--set", "-1,1", "--eps", "1e-301", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr == (
            "error: eps must lie in (1e-300, inf), got 1e-301\n")


class TestOneProcess:
    SEQUENCE = [
        ["estimate", "--set", "1"],
        ["--version"],
        ["crossings", "--set", "-1,1", "--seed", "12", "--window", "1e-1:1e-3"],
        ["bijection", "verify", "--set", "-1,1", "--n", "4"],
        ["crossings", "--set", "-1,1", "--seed", "12", "--window", "1e-1:1e-3"],
    ]

    def test_commands_in_sequence_match_each_run_alone(self, capsys):
        outcomes = []
        for argv in self.SEQUENCE:
            code = run(argv)
            out, err = capsys.readouterr()
            outcomes.append((code, out, err))
        assert [code for code, _, _ in outcomes] == [2, 0, 0, 0, 0]
        assert outcomes[4] == outcomes[2]
        assert cli._build_parser() is cli._build_parser()
        for argv, outcome in zip(self.SEQUENCE, outcomes):
            proc = TestModuleEntryPoint.run_module(*argv)
            assert outcome == (proc.returncode, proc.stdout, proc.stderr), argv


class TestAtomicWrites:
    def test_files_follow_the_umask(self, tmp_path):
        out, svg = tmp_path / "o.csv", tmp_path / "o.svg"
        old = os.umask(0o022)
        try:
            assert run(["scan", "--set", "0,1", "--depth", "1e-2",
                        "--out", str(out), "--svg", str(svg)]) == 0
        finally:
            os.umask(old)
        assert [oct(p.stat().st_mode & 0o777) for p in (out, svg)] == ["0o644", "0o644"]

    def test_no_temp_residue(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--set", "0,1", "--depth", "1e-2", "--out", str(out)]) == 0
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".randseries-")]
        assert not leftovers

    def test_unwritable_out_names_the_out_path(self, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "x.csv")
        errors = []
        for _ in range(2):
            assert run(["scan", "--set", "0,1", "--depth", "1e-2", "--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == f"error: [Errno 2] No such file or directory: {out!r}\n"

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "a-directory"
        target.mkdir()
        assert run(["witness", "--set", "-1,1", "--prefix", "1", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert repr(str(target)) in err and ".randseries-" not in err
        assert sorted(os.listdir(tmp_path)) == ["a-directory"]
