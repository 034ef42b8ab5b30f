#!/usr/bin/env python3
"""Run the standard strong-form sweep: weight-addressed families over
ell in {3, 5, 7}, all divisor order parameters, a in {1, 2}, w up to 8.

The exit code is the census exit code (2 if any VIOLATION row shows up,
which would be news).

Usage:
  python scripts/strong_form_sweep.py
  python scripts/strong_form_sweep.py --ell 3,5 --wmax 12 --format json
  python scripts/strong_form_sweep.py --out sweep.csv
"""

from __future__ import annotations

import argparse
import sys

from blockcensus import cli


def main() -> int:
    ap = argparse.ArgumentParser(description="strong-form block census sweep")
    ap.add_argument("--families", default="GL,Sp,GOevenPlus")
    ap.add_argument("--ell", default="3,5,7")
    ap.add_argument("--a", default="1,2")
    ap.add_argument("--wmax", type=int, default=8)
    ap.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    ap.add_argument("--out")
    ap.add_argument("--keep-timestamp", action="store_true")
    args = ap.parse_args()

    argv = [
        "census",
        "--family", args.families,
        "--ell", args.ell,
        "--a", args.a,
        "--w", f"0..{args.wmax}",
        "--format", args.format,
    ]
    if not args.keep_timestamp:
        argv.append("--strip-timestamp")
    if args.out:
        argv.extend(["--out", args.out])
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
