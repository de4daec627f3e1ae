"""Command-line harness: scan, estimate, bijection, orbit-check, crossings, witness.

Every output file starts with a provenance header carrying the package version
and the full merged configuration, and all data sections are byte-identical
across reruns with the same flags.  Exit codes: 0 success, 2 configuration
error, 3 work budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from typing import Optional

from . import __version__
from .boundary_scan import DEFAULT_EPS, ScanGrid, ScanReport, check_threshold, scan, verdict
from .coefficients import FinitePrefix, SequenceStream, _to_fraction, parse_model
from .combinatorics import verify_matching
from .crossings import find_crossings
from .errors import (
    BudgetExceededError,
    ConfigError,
    PreconditionError,
    WitnessImpossibleError,
    check_real,
)
from .montecarlo import ExperimentConfig, estimate_properties
from .series_eval import check_terms
from .symmetry import orbit_values, sign_witness
from .witnesses import witness_positive

__all__ = ["main", "run"]


def _atomic_write(path: str, data: str) -> None:
    """Write through a temp file in the target directory; errors name ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".randseries-")
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)   # mkstemp makes 0600; give the mode open() would
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(doc: str, out: Optional[str]) -> None:
    """Write a finished document to ``out`` atomically, or to stdout."""
    if out:
        _atomic_write(out, doc)
    else:
        sys.stdout.write(doc)


def _provenance(config: dict) -> dict:
    return {"tool": "randseries", "version": __version__, "config": config}


def _json_document(config: dict, data: dict) -> str:
    doc = {"provenance": _provenance(config), "data": data}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_document(config: dict, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(f"# randseries {__version__}\n")
    buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# --- configuration merging -------------------------------------------------

_COMMON = {
    "set": (str, None),
    "weights": (str, None),
    "out": (str, None),
}

_SPECS = {
    "scan": {
        **_COMMON,
        "seed": (int, 0), "index": (int, 0),
        "delta_start": (float, 0.1), "ratio": (float, 0.5), "depth": (float, 1e-5),
        "eps": (float, DEFAULT_EPS), "threshold": (float, 10.0), "svg": (str, None),
    },
    "estimate": {
        **_COMMON,
        "samples": (int, 1000), "seed": (int, 0),
        "delta_start": (float, 0.1), "ratio": (float, 0.5), "depth": (float, 1e-5),
        "eps": (float, DEFAULT_EPS), "threshold": (float, 5.0),
        "workers": (int, None),      # resolved to machine parallelism
    },
    "bijection": {
        **_COMMON,
        "n": (int, None),
    },
    "orbit-check": {
        **_COMMON,
        "seed": (int, 0), "index": (int, 0),
        "x": (float, 0.999), "n": (int, 100_000),
    },
    "crossings": {
        **_COMMON,
        "seed": (int, 0), "index": (int, 0),
        "y": (float, 0.0), "window": (str, "1e-2:1e-5"),
        "eps": (float, 1e-3), "max_brackets": (int, 10_000),
    },
    "witness": {
        **_COMMON,
        "prefix": (str, None), "target": (float, 1.0),
        "grid_size": (int, 1 << 16),
    },
}

# every option of some subcommand: a flat config file may be shared between them
_OPTIONS = set().union(*_SPECS.values())


def _merged_config(command: str, ns: argparse.Namespace) -> dict:
    spec = _SPECS[command]
    merged = {k: default for k, (_t, default) in spec.items()}
    cfg_path = ns.config
    if cfg_path:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {cfg_path!r}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        section = file_cfg.get(command, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config file section {command!r} must be a JSON object")
        # flat keys apply to every subcommand; the running subcommand's section overrides them
        for key, value in [*file_cfg.items(), *section.items()]:
            if key in _SPECS:
                continue
            key = key.replace("-", "_")
            if key not in _OPTIONS:
                raise ConfigError(f"config file {cfg_path!r}: unknown key {key!r}")
            if key in spec:
                typ = spec[key][0]
                try:     # argparse's rule: the type is called on the string
                    merged[key] = typ(str(value)) if value is not None else None
                except (TypeError, ValueError, OverflowError):
                    raise ConfigError(f"config file {cfg_path!r}: {key} must be "
                                      f"{typ.__name__}, got {value!r}") from None
    for key in spec:
        given = getattr(ns, key, None)
        if given is not None:
            merged[key] = given
    for key, (typ, _default) in spec.items():
        if typ is float and merged.get(key) is not None:
            merged[key] = check_real(merged[key], f"{command}: --{key.replace('_', '-')}")
    return merged


def _require(merged: dict, key: str, command: str):
    if merged.get(key) is None:
        raise ConfigError(f"{command}: missing required option --{key.replace('_', '-')}")
    return merged[key]


def _model_from(merged: dict, command: str):
    return parse_model(_require(merged, "set", command), merged.get("weights"))


# --- svg plotting (diagnostic only, no external tooling) ---------------------

def _scan_svg(report: ScanReport) -> str:
    rows = report.rows
    width, height, pad = 720, 420, 45
    ys = [v for r in rows for v in (r.lower, r.upper)]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    span = y_hi - y_lo

    def px(i: int) -> float:
        return pad + (width - 2 * pad) * (i / max(len(rows) - 1, 1))

    def py(v: float) -> float:
        return height - pad - (height - 2 * pad) * ((v - y_lo) / span)

    def poly(vals, color):
        pts = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(vals))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        poly([r.lower for r in rows], "#1f77b4"),
        poly([r.upper for r in rows], "#d62728"),
        poly([r.running_sup_lower for r in rows], "#2ca02c"),
        poly([r.running_inf_upper for r in rows], "#9467bd"),
        f'<text x="{pad}" y="{pad - 12}" font-size="12">certified bounds along the grid '
        f'(blue/red: lower/upper, green/purple: running extrema)</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# --- subcommands: each maps (merged config, model) to (document, stderr summary) ---

def _stream(merged: dict, model) -> SequenceStream:
    return SequenceStream(model, merged["seed"], merged["index"])


def _cmd_scan(merged: dict, model) -> tuple[str, Optional[str]]:
    grid = ScanGrid(merged["delta_start"], merged["ratio"], merged["depth"])
    stream = _stream(merged, model)
    check_threshold(merged["threshold"])
    report = scan(stream, grid, merged["eps"])
    v = verdict(report, merged["threshold"])
    rows = [[r.m, repr(r.x), r.n_terms, repr(r.value), repr(r.lower), repr(r.upper),
             repr(r.running_sup_lower), repr(r.running_inf_upper)] for r in report.rows]
    if merged["svg"]:
        _atomic_write(merged["svg"], _scan_svg(report))
    doc = _csv_document(merged,
                        ["m", "x", "N_used", "value", "lower", "upper",
                         "running_sup_lower", "running_inf_upper"], rows)
    return doc, f"verdict: {v.value} (threshold {merged['threshold']})"


def _cmd_estimate(merged: dict, model) -> tuple[str, Optional[str]]:
    if merged["workers"] is None:
        merged["workers"] = os.cpu_count() or 1
    config = ExperimentConfig(
        model=model,
        num_samples=merged["samples"],
        master_seed=merged["seed"],
        grid=ScanGrid(merged["delta_start"], merged["ratio"], merged["depth"]),
        threshold=merged["threshold"],
        eps=merged["eps"],
        workers=merged["workers"],
    )
    return _json_document(merged, estimate_properties(config).data_dict()), None


def _cmd_bijection(merged: dict, model) -> tuple[str, Optional[str]]:
    n = _require(merged, "n", "bijection")
    report = verify_matching(model, n)
    ok = report.injective and report.sum_shift_exact and report.inverse_roundtrip
    return _json_document(merged, report.to_data()), (
        f"bijection verify N={n}: {'ok' if ok else 'VIOLATIONS FOUND'} "
        f"(domain {report.matched_count}/{report.total_words})")


def _cmd_orbit_check(merged: dict, model) -> tuple[str, Optional[str]]:
    stream = _stream(merged, model)
    check_terms(merged["n"], "orbit-check --n")
    prefix = stream.prefix(merged["n"])
    x = merged["x"]
    witness = sign_witness(prefix, x) if model.coefficient_sum == 0 else None
    vals = witness.values if witness else orbit_values(prefix, x)
    total = sum(v.value for v in vals)      # orbit_sum's float order
    n = len(prefix)
    closed_form = float(model.coefficient_sum) * (x - x ** (n + 1)) / (1.0 - x)
    data = {
        "x": x,
        "n": n,
        "orbit_values": [v.value for v in vals],
        "orbit_sum": total,
        "closed_form": closed_form,
        "residual": total - closed_form,
    }
    if witness:
        data["nonneg_index"] = witness.nonneg_index
        data["nonpos_index"] = witness.nonpos_index
    return _json_document(merged, data), None


def _parse_window(spec: str) -> tuple[float, float]:
    try:
        hi, lo = (float(p) for p in spec.split(":"))
    except ValueError:
        raise ConfigError(f"window must look like '1e-2:1e-6', got {spec!r}")
    hi, lo = (check_real(d, f"window {spec!r} depth", 0.0, 1.0) for d in (hi, lo))
    if not lo < hi:
        raise ConfigError(f"window must be shallow:deep with deep < shallow, got {spec!r}")
    return 1.0 - hi, 1.0 - lo


def _cmd_crossings(merged: dict, model) -> tuple[str, Optional[str]]:
    stream = _stream(merged, model)
    window = _parse_window(merged["window"])
    report = find_crossings(stream, merged["y"], window, merged["eps"],
                            merged["max_brackets"])
    echo = dict(merged, indeterminate_cells=len(report.indeterminate_points),
                truncated=report.truncated)
    rows = [[repr(b.a), repr(b.b), b.sign_at_a, b.depth_decade] for b in report.brackets]
    return _csv_document(echo, ["a", "b", "sign_at_a", "depth_decade"], rows), (
        f"crossings: {len(report.brackets)} certified bracket(s), "
        f"{len(report.indeterminate_points)} indeterminate cell(s)")


def _cmd_witness(merged: dict, model) -> tuple[str, Optional[str]]:
    raw = _require(merged, "prefix", "witness")
    values = [_to_fraction(p, "prefix") for p in raw.split(",") if p.strip()]
    prefix = FinitePrefix.from_values(model, values)
    w = witness_positive(prefix, merged["target"], grid_size=merged["grid_size"])
    data = {
        "prefix": [str(v) for v in prefix.values],
        "target": w.target,
        "r_lower": w.r_lower,
        "M": w.run_end,
        "t": w.t_exponent,
        "x": w.x,
        "x_expression": f"1-2^-{w.t_exponent}",
        "N": w.n_fixed,
        "margin": w.margin,
    }
    return _json_document(merged, data), None


_HANDLERS = {
    "scan": _cmd_scan,
    "estimate": _cmd_estimate,
    "bijection": _cmd_bijection,
    "orbit-check": _cmd_orbit_check,
    "crossings": _cmd_crossings,
    "witness": _cmd_witness,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``ConfigError``, which ``run`` reports in
    one line; its subcommand parsers take the class too."""

    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="randseries",
        description="Simulate random power series near x = 1 with certified bounds.",
    )
    parser.add_argument("--version", action="version", version=f"randseries {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command)
        if command == "bijection":
            p.add_argument("action", choices=["verify"])
        p.add_argument("--config", default=None)
        for key, (typ, _default) in spec.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=typ, default=None)
    return parser


_BARE_FLAGS = {"-h", "--help", "--version"}


def _fuse_flag_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag value`` as ``--flag=value`` where the value starts with a dash.

    Every option here takes exactly one value, and coefficient lists like
    ``--set "-1,1"`` start with a dash, which bare argparse would otherwise
    mistake for an option string.  Other values stay apart, so an error names
    the flags as they were given.
    """
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if (a.startswith("--") and "=" not in a and a not in _BARE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def run(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand: merge the config, build the model, call the handler, emit
    its document, print its summary on stderr.  Returns 0, 2 (config) or 3 (budget)."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parser.parse_args(_fuse_flag_values(list(argv)))
        merged = _merged_config(ns.command, ns)
        model = _model_from(merged, ns.command)
        doc, summary = _HANDLERS[ns.command](merged, model)
        _emit(doc, merged["out"])
    except (ConfigError, PreconditionError, WitnessImpossibleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:     # --help and --version
        return int(exc.code or 0)
    if summary:
        print(summary, file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
