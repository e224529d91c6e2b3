"""Command-line front end.

Subcommands mirror the library layers: `rep` builds a truncated
representation and checks the bracket relations, `field` profiles a
smearing field, `smear` assembles a smeared operator and audits it,
`bounds` runs the constant-estimation sweeps, and `check-all` runs the
full acceptance battery.  A command fails when the rep it uses fails
verma.rep_verdict (the bracket relations and L_-n = L_n^*); exact-mode
`smear` checks the adjointness and, in place of the costlier relation
sweep, the central charge read from the rep against its label.

Each subcommand accepts only the settings it reads (READS below).
Configuration is a flat key=value file overridden by flags; a file may
set any known key, so one file can drive several subcommands: each
parses and validates only the keys it reads and ignores the others, and
a report's config block holds only those keys (inject_fault included,
which is a flag and never a file key).  Reports are
JSON files whose floats are printed with repr so the exact double can be
recovered; rationals are p/q strings.  Output is deterministic for a
fixed configuration except for the timestamp, which lives only in the
meta block.  Exit codes: 0 success, 1 a check failed (or a cache file
is corrupt), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from . import bounds, fields, smear, store, verma
from .rational import CFrac, as_fraction, fmt_rational

FAULTS = ("none", "central-denominator-13")

# Weighted coefficient mass beyond the smearing cutoff above which
# `smear` adds a note to its report.
BIAS_TOL = 1e-8


class UsageError(Exception):
    """Bad flags, config values, or input files; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    c: Fraction = Fraction(1, 2)
    h: Fraction = Fraction(0)
    N: int = 8
    mode: str = "exact"
    eps_grid: str = bounds.DEFAULT_EPS_GRID
    cutoff: Optional[int] = None
    out: Path = Path("out")
    cache: Optional[Path] = None
    inject_fault: str = "none"


# Each RunConfig field's parser, and the kind of value its errors name.
_SETTINGS = {
    "c": (as_fraction, "rational"),
    "h": (as_fraction, "rational"),
    "N": (int, "integer"),
    "cutoff": (int, "integer"),
    "mode": (str, "text"),
    "eps_grid": (str, "text"),
    "out": (Path, "path"),
    "cache": (Path, "path"),
    "inject_fault": (str, "text"),
}

_CONFIG_KEYS = tuple(key for key in _SETTINGS if key != "inject_fault")

# The settings each subcommand reads, beside --config and --out which all
# of them take.  Every entry is a flag; all but inject_fault are also
# config keys.
READS = {
    "rep": ("c", "h", "N", "mode", "cache", "inject_fault"),
    "field": ("cutoff",),
    "smear": ("c", "h", "N", "mode", "cache", "cutoff", "inject_fault"),
    "bounds": ("c", "h", "N", "eps_grid", "cache", "inject_fault"),
    "check-all": (),
}


def parse_config_file(path: Path) -> dict:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def check_point(c: Fraction, h: Fraction) -> None:
    """UsageError unless the central charge c is positive and the lowest
    weight h nonnegative."""
    if c <= 0:
        raise UsageError(f"central charge must be positive, got {fmt_rational(c)}")
    if h < 0:
        raise UsageError(f"lowest weight must be nonnegative, got {fmt_rational(h)}")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags, for the keys the command
    reads; other known keys of the file are ignored, not validated."""
    reads = ("out",) + READS[args.command]
    raw = {}
    if args.config is not None:
        raw.update(parse_config_file(Path(args.config)))
    raw = {key: value for key, value in raw.items() if key in reads}
    for key in reads:
        flag = getattr(args, key)
        if flag is not None:
            raw[key] = flag
    values = {}
    for key, (parse, kind) in _SETTINGS.items():
        if key in raw:
            try:
                values[key] = parse(raw[key])
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad {kind} parameter: {exc}") from exc
    cfg = RunConfig(**values)
    if cfg.N < 2:
        raise UsageError(f"N must be at least 2, got {cfg.N}")
    if cfg.mode not in ("exact", "float"):
        raise UsageError(f"mode must be exact or float, got {cfg.mode!r}")
    if cfg.cutoff is not None and cfg.cutoff < 1:
        raise UsageError(f"cutoff must be at least 1, got {cfg.cutoff}")
    check_point(cfg.c, cfg.h)
    try:
        bounds.parse_eps_grid(cfg.eps_grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# report encoding


def encode(x):
    """JSON-safe form of what reports hold: floats as repr strings,
    rationals as p/q; any other type raises TypeError."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return repr(float(x))  # np.float64 is a float whose repr is np.float64(...)
    if isinstance(x, Fraction):
        return fmt_rational(x)
    if isinstance(x, Mapping):
        return {str(k): encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, Path):
        return str(x)
    raise TypeError(f"reports cannot hold {type(x).__name__}")


def write_report(cfg: RunConfig, name: str, command: str, result) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": {
            "command": command,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "schema": store.SCHEMA_VERSION,
            "float_format": "repr",
        },
        "config": {key: value for key, value in encode(asdict(cfg)).items()
                   if key == "out" or key in READS[command]},
        "result": encode(result),
    }
    path = cfg.out / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_rows_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: encode(v) for k, v in row.items()})


def write_coefficient_csv(path: Path, rows: list[tuple[int, float, float]]) -> None:
    """The n,re,im,abs table of fields.coefficient_rows."""
    write_rows_csv(path, ["n", "re", "im", "abs"],
                   [{"n": n, "re": re, "im": im, "abs": math.hypot(re, im)}
                    for n, re, im in rows])


def report_summary(br: bounds.BoundReport) -> dict:
    """BoundReport's fields minus its table: the table goes to CSV, not JSON."""
    return {key: value for key, value in vars(br).items() if key != "table"}


# ---------------------------------------------------------------------------
# field specification parsing


def parse_field_spec(spec: str):
    if spec == "piecewise-mobius":
        return fields.build_piecewise_mobius()
    if spec.startswith("mode:"):
        try:
            n = int(spec[len("mode:"):])
        except ValueError as exc:
            raise UsageError(f"bad mode spec {spec!r}: {exc}") from exc
        return fields.mode_field(n)
    return load_field_csv(Path(spec))


def _parse_component(s: str):
    """Exact when the text is exact (p/q or integer), float otherwise."""
    s = s.strip()
    try:
        return Fraction(s) if ("." not in s and "e" not in s and "E" not in s) else float(s)
    except (ValueError, ZeroDivisionError):
        return float(s)


def load_field_csv(path: Path):
    """Coefficient table: rows n,re,im; declared real, so conjugate symmetry
    is enforced and violations are reported by mode."""
    if not path.is_file():
        raise UsageError(f"field spec {path} is neither a named field nor a file")
    coeffs = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == "n"):
                continue
            if len(row) != 3:
                raise UsageError(f"{path}:{lineno}: expected n,re,im, got {len(row)} fields")
            try:
                n = int(row[0])
                re, im = _parse_component(row[1]), _parse_component(row[2])
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
            if n in coeffs:
                raise UsageError(f"{path}:{lineno}: duplicate mode {n}")
            if isinstance(re, Fraction) and isinstance(im, Fraction):
                coeffs[n] = CFrac(re, im)
            else:
                coeffs[n] = complex(re, im)
    try:
        return fields.FourierField(coeffs, real=True)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _build_rep(cfg: RunConfig):
    """Load or build the configured rep, with the fault injected if asked.

    The central-denominator-13 fault needs no builder setting: the central
    term c (n^3 - n)/13 is exactly c' (n^3 - n)/12 with c' = 12c/13, and c
    enters the action only there.  So the rep is built (and cached) at c'
    and then labelled c, and every check that reads c from the label sees
    the faulted algebra.  A build that fails at c' says so, and names the
    requested c and the fault.
    """
    faulted = cfg.inject_fault == "central-denominator-13"
    c = cfg.c * Fraction(12, 13) if faulted else cfg.c
    try:
        rep, source = store.load_or_build_rep(cfg.cache, c, cfg.h, cfg.N, cfg.mode)
    except verma.NonUnitaryError as exc:
        if not faulted:
            raise
        raise type(exc)(f"{exc}; the rep was built at c={c} = 12c/13 for the requested "
                        f"c={cfg.c} by --inject-fault central-denominator-13") from exc
    if c != cfg.c:
        rep = replace(rep, c=cfg.c)
    return rep, source


def cmd_rep(cfg: RunConfig, args: argparse.Namespace) -> int:
    rep, source = _build_rep(cfg)
    summary, ok, rep_lines = verma.rep_verdict(rep)
    measured = verma.measure_central_charge(rep)
    admissible = verma.is_admissible(cfg.c)
    result = {
        "source": source,
        "level_dims": list(rep.level_dims),
        "total_dim": rep.total_dim(),
        "relations": summary,
        "measured_central_charge": measured,
        "admissible_central_charge": admissible,
        "relations_ok": ok,
    }
    write_report(cfg, "rep_report.json", "rep", result)
    write_rows_csv(cfg.out / "level_dims.csv", ["level", "dimension"],
                   [{"level": k, "dimension": d} for k, d in enumerate(rep.level_dims)])
    print(f"rep c={fmt_rational(cfg.c)} h={fmt_rational(cfg.h)} N={cfg.N} "
          f"mode={cfg.mode} ({source})")
    print(f"level dims: {list(rep.level_dims)}")
    print("\n".join(rep_lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_field(cfg: RunConfig, args: argparse.Namespace) -> int:
    field = parse_field_spec(args.spec)
    piecewise = isinstance(field, fields.PiecewiseMobiusField)
    cutoff = cfg.cutoff
    if cutoff is None:
        cutoff = 400 if piecewise else max([1, *(abs(n) for n in field.support)])
    norm = fields.norm_three_halves(field, cutoff)
    result = {
        "spec": args.spec,
        "kind": "piecewise-mobius" if piecewise else "fourier",
        "cutoff": cutoff,
        # every field's tail bound is finite
        "norm": {"partial_sum": norm.partial_sum, "tail_bound": norm.tail_bound,
                 "total_bound": norm.total_bound(), "verdict": "finite"},
    }
    if piecewise:
        corners = fields.corner_table(field)
        result["corners"] = corners
        result["decay"] = report_summary(bounds.decay_report(field, max(cutoff, 400)))
    else:
        result["support"] = sorted(field.support)
        result["real"] = bool(field.real)
    rows = fields.coefficient_rows(field, cutoff)
    write_coefficient_csv(cfg.out / "field_coefficients.csv", rows)
    write_report(cfg, "field_report.json", "field", result)
    print(f"field {args.spec}: {len(rows)} modes up to |n| <= {cutoff}")
    print(f"norm |f|_3/2 partial {norm.partial_sum!r}, bound {norm.total_bound()!r} (finite)")
    if piecewise:
        print("corners: values match exactly" if all(
            c["value_left"] == c["value_right"] == 0 for c in corners)
            else "corners: one-sided values differ")
    return 0


def cmd_smear(cfg: RunConfig, args: argparse.Namespace) -> int:
    field = parse_field_spec(args.field)
    if cfg.mode == "exact" and not getattr(field, "is_exact", False):
        raise UsageError(
            f"exact representation needs an exact field, and {args.field} is not "
            "one: use a rational field (mode:n or a CSV of p/q entries), or --mode float")
    rep, source = _build_rep(cfg)
    cutoff = min(cfg.cutoff, rep.N) if cfg.cutoff is not None else rep.N
    op = smear.smear(rep, field, cutoff=cutoff)
    bias = op.truncation_bias
    bias_notes = [] if bias <= BIAS_TOL else [
        f"smearing cutoff {cutoff} discards weighted coefficient mass "
        f"~{bias:.3e} (tolerance {BIAS_TOL:.1e})"]

    herm, herm_ok, herm_line = None, True, "skipped (field is not real)"
    if getattr(field, "real", True):
        herm = smear.hermiticity_residual(op)
        herm_ok, herm_line = verma.residual_verdict(cfg.mode, herm.zero, herm.max_abs)

    vac, vac_ok = None, True
    if float(rep.h) == 0.0:
        closed = smear.vacuum_norm(field, cfg.c, cutoff=cutoff)
        matrix = smear.vacuum_norm_from_rep(op)
        diff, vac_ok = smear.vacuum_norm_agreement(closed, matrix)
        vac = {"closed": closed, "matrix": matrix, "difference": diff, "ok": vac_ok}

    # exact mode reads c back from the rep (one 1x1 product) in place of the
    # relation sweep, which costs more than the smear
    if cfg.mode == "float":
        _, rep_ok, rep_lines = verma.rep_verdict(rep)
    else:
        measured = verma.measure_central_charge(rep)
        adjoint_ok, adjoint_line = verma.adjointness_verdict(rep)
        rep_ok = measured == rep.c and adjoint_ok
        rep_lines = [f"central charge read from the rep: {fmt_rational(measured)}, "
                     f"label {fmt_rational(rep.c)}"] + ([] if adjoint_ok else [adjoint_line])
    ok = herm_ok and vac_ok and rep_ok
    result = {
        "field": args.field,
        "rep_source": source,
        "cutoff": cutoff,
        "truncation_bias": op.truncation_bias,
        "bias_warnings": bias_notes,
        "hermiticity": None if herm is None else
        {"max_abs": herm.max_abs, "exact_zero": herm.zero if cfg.mode == "exact" else None},
        "hermiticity_ok": herm_ok,
        "vacuum_norm": vac,
        "ok": bool(ok),
    }
    write_report(cfg, "smear_report.json", "smear", result)
    print(f"smear {args.field} on c={fmt_rational(cfg.c)} h={fmt_rational(cfg.h)} "
          f"N={cfg.N} mode={cfg.mode}, cutoff {cutoff}")
    print(f"hermiticity: {herm_line}")
    if vac is not None:
        print(f"vacuum norm closed vs matrix: {vac['closed']} vs {vac['matrix']} "
              f"({'ok' if vac_ok else 'MISMATCH'})")
    if bias_notes:
        print(f"note: {bias_notes[0]}")
    if not rep_ok:
        print("\n".join(rep_lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


_FM_KS = (0, 1, 2, 5, 10, 25, 50)
_FM_MS = (1, 2, 3, 5, 10, 50)


def cmd_bounds(cfg: RunConfig, args: argparse.Namespace) -> int:
    grid = bounds.parse_eps_grid(cfg.eps_grid)
    rep, _ = _build_rep(replace(cfg, mode="float"))
    r_report = bounds.estimate_r(cfg.c, cfg.N, h=cfg.h, rep=rep)
    q_report = bounds.estimate_q(cfg.c, cfg.N, grid, h=cfg.h, rep=rep, r_report=r_report)

    fm_rows = []
    for k in _FM_KS:
        for m in _FM_MS:
            eps_max, sup_sq = smear.fm_sup(k, m)
            sampled = (np.exp(-grid * k) - np.exp(-grid * (k + m))) ** 2
            worst = float(sampled.max())
            violated = worst > sup_sq * bounds.FM_SUP_SLACK
            fm_rows.append({"k": k, "m": m, "eps_max": eps_max, "sup_sq": sup_sq,
                            "grid_max": worst, "violated": violated})
    fm_violations = sum(row["violated"] for row in fm_rows)

    _, rep_ok, rep_lines = verma.rep_verdict(rep)
    chain = q_report.derived
    ok = (r_report.verdict == "pass" and q_report.verdict == "pass"
          and fm_violations == 0 and rep_ok)
    result = {
        "r": report_summary(r_report),
        "q": report_summary(q_report),
        "chain": {"q_hat": chain.get("q_hat"), "bound": chain.get("chain_bound"),
                  "ok": chain.get("chain_ok")},
        "fm_violations": fm_violations,
        "ok": bool(ok),
    }
    for name, rows in (("r_cells.csv", r_report.table), ("q_grid.csv", q_report.table),
                       ("fm_table.csv", fm_rows)):
        write_rows_csv(cfg.out / name, list(rows[0]), rows)
    write_report(cfg, "bounds_report.json", "bounds", result)
    print(f"bounds c={fmt_rational(cfg.c)} h={fmt_rational(cfg.h)} N={cfg.N}, "
          f"eps grid {cfg.eps_grid}")
    print(f"r_hat^2 = {r_report.constant!r} ({r_report.verdict})")
    print(f"q_hat   = {q_report.constant!r} ({q_report.verdict}), "
          f"3 r_hat^2 = {chain.get('chain_bound')!r}, chain {'ok' if chain.get('chain_ok') else 'VIOLATED'}")
    print(f"heat-kernel sup table: {fm_violations} grid violations")
    for w in r_report.warnings + q_report.warnings:
        print(f"warning: {w}")
    if not rep_ok:
        print("\n".join(rep_lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_check_all(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all()
    rows = []
    for i, res in enumerate(results, start=1):
        status = "PASS" if res.passed else "FAIL"
        print(f"[{i:2d}/{len(results)}] {status} {res.name:<28s} {res.seconds:7.2f}s  {res.detail}")
        rows.append({"name": res.name, "passed": res.passed,
                     "seconds": res.seconds, "detail": res.detail})
    ok = all(res.passed for res in results)
    write_report(cfg, "acceptance_report.json", "check-all",
                 {"criteria": rows, "all_passed": bool(ok)})
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser and entry point


_FLAGS = {
    "config": dict(metavar="FILE", help="flat key=value config file"),
    "out": dict(help="report directory (default out/)"),
    "c": dict(help="central charge, p/q"),
    "h": dict(help="lowest weight, p/q"),
    "N": dict(type=int, help="energy truncation level"),
    "mode": dict(choices=("exact", "float"), help="arithmetic mode"),
    "eps_grid": dict(metavar="LO:HI:COUNT", help="geometric heat-parameter grid"),
    "cutoff": dict(type=int, help="Fourier mode cutoff"),
    "cache": dict(metavar="DIR", help="representation cache directory"),
    "inject_fault": dict(choices=FAULTS, default="none",
                         help="deliberately break an invariant"),
}

_COMMANDS = {
    "rep": (cmd_rep, "build a truncated representation and check relations"),
    "field": (cmd_field, "profile a smearing field"),
    "smear": (cmd_smear, "smear a field against a representation"),
    "bounds": (cmd_bounds, "estimate the energy-bound and commutator constants"),
    "check-all": (cmd_check_all, "run the acceptance battery"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vircut",
        description="energy-truncated smeared Virasoro representations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for key in ("config", "out") + READS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
        p.set_defaults(func=func)
    sub.choices["field"].add_argument(
        "spec", help="piecewise-mobius | mode:n | coefficient CSV path")
    sub.choices["smear"].add_argument(
        "--field", default="piecewise-mobius", help="field spec (default piecewise-mobius)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(build_config(args), args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (store.CacheError, verma.NonUnitaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
