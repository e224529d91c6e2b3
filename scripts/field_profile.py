#!/usr/bin/env python3
"""Tabulate the glued Mobius field: dense values and Fourier data.

Writes theta-value samples (exact piecewise evaluation next to the
truncated Fourier series, with the pointwise gap), the coefficient table,
and prints the corner diagnostics.

Examples
--------
  python3 scripts/field_profile.py --samples 2000 --cutoff 200 --out out/profile
"""

import argparse
import math
import sys
from pathlib import Path

from vircut import cli, fields


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=1000,
                    help="theta samples on [0, 2 pi)")
    ap.add_argument("--cutoff", type=int, default=200,
                    help="Fourier modes kept in the series comparison")
    ap.add_argument("--out", default="out/field_profile", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the samples
    if args.samples < 1:
        ap.error(f"--samples must be >= 1, got {args.samples}")
    if args.cutoff < 1:
        ap.error(f"--cutoff must be >= 1, got {args.cutoff}")

    field = fields.build_piecewise_mobius()

    samples = []
    worst = 0.0
    for i in range(args.samples):
        theta = 2.0 * math.pi * i / args.samples
        value = fields.evaluate(field, theta)
        series = fields.evaluate_series(field, theta, args.cutoff)
        gap = abs(value - series)
        worst = max(worst, gap)
        samples.append({"theta": theta, "value": value, "series": series, "gap": gap})
    cli.write_rows_csv(out / "profile.csv", ["theta", "value", "series", "gap"], samples)

    rows = fields.coefficient_rows(field, args.cutoff)
    cli.write_coefficient_csv(out / "coefficients.csv", rows)

    print(f"{args.samples} samples, {len(rows)} modes up to |n| <= {args.cutoff}")
    print(f"worst pointwise series gap: {worst:.3e}")
    print("corners (value left/right, d1 left/right, d2 left/right):")
    for row in fields.corner_table(field):
        print(f"  z = {row['corner']:>2}: value {row['value_left']}/{row['value_right']}, "
              f"d1 {row['d1_left']}/{row['d1_right']}, "
              f"d2 {row['d2_left']}/{row['d2_right']} (jump {row['d2_jump']})")
    norm = fields.norm_three_halves(field, args.cutoff)
    print(f"|f|_3/2 partial {norm.partial_sum!r} + tail bound {norm.tail_bound!r}")
    print(f"wrote {out / 'profile.csv'} and {out / 'coefficients.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
