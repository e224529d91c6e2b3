#!/usr/bin/env python3
"""Mollifier convergence curve in the weighted 3/2 norm.

Runs the Fejer error ladder for the glued Mobius field next to a cosine
control whose error is exactly 2/(k+1), so the curve's shape and the
implementation's bookkeeping can be checked against each other.

Examples
--------
  python3 scripts/mollifier_curve.py --k-max 67108864 --out out/mollifier
  python3 scripts/mollifier_curve.py --k-max 8388608 --tol 0.01
"""

import argparse
import sys
from pathlib import Path

from vircut import bounds, cli, fields


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-max", type=int, default=1 << 26,
                    help="largest smoothing order on the ladder")
    ap.add_argument("--tol", type=float, default=1e-3,
                    help="target error at the top of the ladder")
    ap.add_argument("--out", default="out/mollifier_curve",
                    help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the ladder

    try:
        piecewise = bounds.mollifier_report(fields.build_piecewise_mobius(),
                                            k_max=args.k_max, tol=args.tol)
    except ValueError as exc:
        ap.error(str(exc))
    control = bounds.mollifier_report(fields.cosine_field(1),
                                      k_max=args.k_max, tol=args.tol,
                                      ladder=[r["k"] for r in piecewise.table])

    path = out / "mollifier_curve.csv"
    cli.write_rows_csv(path, ["k", "piecewise_error", "piecewise_tail", "cosine_error"],
                       [{"k": pw["k"], "piecewise_error": pw["error"],
                         "piecewise_tail": pw["tail_bound"], "cosine_error": cos["error"]}
                        for pw, cos in zip(piecewise.table, control.table)])

    print(f"{'k':>10} {'piecewise':>14} {'cosine 2/(k+1)':>16}")
    for pw, cos in zip(piecewise.table, control.table):
        print(f"{pw['k']:>10} {pw['error']:>14.6e} {cos['error']:>16.6e}")
    print(f"piecewise verdict: {piecewise.verdict} "
          f"(final {piecewise.constant:.3e} vs tol {args.tol:g}, "
          f"monotone {piecewise.derived['monotone']})")
    print(f"wrote {path}")
    return 0 if piecewise.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
