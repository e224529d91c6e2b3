#!/usr/bin/env python3
"""Sweep the bound constants r_hat^2 and q_hat over truncation levels.

Builds one float-mode representation at (c, h) per level, reuses it for both
estimates, and writes one CSV row per level so the stabilization of the
constants is visible at a glance.  A level whose rep fails verma.rep_verdict
counts as failed, like a failed verdict, and the script exits 1.  A bad
argument, c <= 0 or h < 0 included, exits 2, and a non-unitary point
prints `error: ...` and exits 1, as in `vircut bounds`.

Examples
--------
  python3 scripts/run_bounds_sweep.py --c 1/2 --levels 4:12 --out out/sweep
  python3 scripts/run_bounds_sweep.py --c 1 --levels 4,6,8 --eps-grid 1e-4:20:200
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from vircut import bounds, cli, verma


def parse_levels(spec: str) -> list[int]:
    """lo:hi (inclusive) or a comma list; ValueError names a bad spec."""
    try:
        if ":" in spec:
            lo, hi = (int(p) for p in spec.split(":", 1))
            levels = list(range(lo, hi + 1))
        else:
            levels = [int(p) for p in spec.split(",")]
    except ValueError:
        raise ValueError(f"bad levels {spec!r}: want lo:hi or a comma list "
                         f"of integers") from None
    if not levels:
        raise ValueError(f"levels {spec!r} are empty: want lo <= hi")
    if min(levels) < 2:
        raise ValueError(f"levels {spec!r} go below 2: a truncation level N "
                         f"must be at least 2")
    return levels


def parse_fraction(flag: str, spec: str) -> Fraction:
    """A p/q argument; ValueError names the flag on a bad or zero q."""
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {flag} {spec!r}: want a fraction p/q with "
                         f"q != 0") from None


def sweep_level(c: Fraction, h: Fraction, N: int, grid) -> dict:
    """The CSV row of level N, scalars only: the rep and the r and q reports
    (whose tables hold a column per field, a value per cell) are dropped
    on return, before the next level is built."""
    start = time.perf_counter()
    rep = verma.truncated_rep(c, h, N, mode="float")
    r = bounds.estimate_r(c, N, h=h, rep=rep)
    q = bounds.estimate_q(c, N, grid, h=h, rep=rep, r_report=r)
    _, rep_ok, rep_lines = verma.rep_verdict(rep)
    seconds = time.perf_counter() - start
    ok = r.verdict == "pass" and q.verdict == "pass" and rep_ok
    print(f"{N:>3} {r.constant!r:>22} {q.constant!r:>22} "
          f"{q.derived['chain_bound']!r:>22} {seconds:7.2f}")
    if not ok:
        note = "" if rep_ok else "; " + "; ".join(rep_lines)
        print(f"    WARNING: verdicts r={r.verdict} q={q.verdict}{note}")
    return {
        "N": N, "r_sq": r.constant, "q_hat": q.constant,
        "chain_bound": q.derived["chain_bound"],
        "chain_ok": q.derived["chain_ok"],
        "r_witness_k": r.witness["k"], "r_witness_n": r.witness["n"],
        "q_witness_n": q.witness["n"], "q_witness_eps": q.witness["eps"],
        "verdicts_ok": ok, "seconds": round(seconds, 3),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--c", default="1/2", help="central charge, p/q")
    ap.add_argument("--h", default="0", help="lowest weight, p/q")
    ap.add_argument("--levels", default="4:10",
                    help="truncation levels, lo:hi or comma list")
    ap.add_argument("--eps-grid", default=bounds.DEFAULT_EPS_GRID, metavar="LO:HI:COUNT")
    ap.add_argument("--out", default="out/bounds_sweep", help="output directory")
    args = ap.parse_args()

    try:
        c, h = parse_fraction("--c", args.c), parse_fraction("--h", args.h)
        cli.check_point(c, h)
        levels = parse_levels(args.levels)
        grid = bounds.parse_eps_grid(args.eps_grid)
    except (ValueError, cli.UsageError) as exc:
        ap.error(str(exc))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the sweep

    print(f"{'N':>3} {'r_hat^2':>22} {'q_hat':>22} {'3 r_hat^2':>22} {'sec':>7}")
    try:
        rows = [sweep_level(c, h, N, grid) for N in levels]
    except verma.NonUnitaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    path = out / "bounds_sweep.csv"
    cli.write_rows_csv(path, list(rows[0]), rows)
    print(f"wrote {path}")
    return 0 if all(r["verdicts_ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
