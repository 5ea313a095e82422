#!/usr/bin/env python3
"""Reproduce the full convergence study in one go.

Runs the level sweeps behind the acceptance suite, each a
``robinsplit compare`` at the case's default element order, and leaves the
CSV tables under an output directory:

  * example1, linear elements: original vs improved start
  * example2, quadratic elements, improved start
  * example3, quadratic elements, improved start

The end time defaults to 0.25 so the coarsest level (k=3, four steps) is
meaningful; the pinned reference numbers in tests/test_acceptance.py were
measured at this T.  Levels 7 and 8 take a while, ask for them with --large.

Usage:
    python scripts/reproduce_tables.py
    python scripts/reproduce_tables.py --kmax 8 --large --jobs 4
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from robinsplit.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=3)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--T", type=float, default=0.25)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--large", action="store_true", help="admit levels 7 and 8")
    ap.add_argument("--out", default="results", help="directory for the CSV tables")
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    common = [
        "--kmin", str(args.kmin),
        "--kmax", str(args.kmax),
        "--T", str(args.T),
        "--jobs", str(args.jobs),
    ]
    if args.large:
        common.append("--large")

    studies = [
        (
            "example1 P1, original vs improved start",
            ["compare", "--case", "example1",
             "--variant", "original", "--variant", "improved",
             "--out", str(out / "example1")] + common,
        ),
        (
            "example2 P2, improved start",
            ["compare", "--case", "example2", "--variant", "improved",
             "--out", str(out / "example2")] + common,
        ),
        (
            "example3 P2, improved start",
            ["compare", "--case", "example3", "--variant", "improved",
             "--out", str(out / "example3")] + common,
        ),
    ]

    t0 = time.perf_counter()
    for title, argv in studies:
        print(f"\n### {title}")
        code = cli_main(argv)
        if code != 0:
            print(f"study failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nall tables written to {out}/ in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
