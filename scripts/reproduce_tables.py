#!/usr/bin/env python3
"""Reproduce the full convergence study in one go.

Runs the level sweeps behind the acceptance suite, each a
``robinsplit compare`` at the case's default element order, and leaves the
CSV tables under an output directory:

  * example1, linear elements: original vs improved start
  * example2, quadratic elements, improved start
  * example3, quadratic elements, improved start

The script itself takes only --out; every other flag (--kmin, --kmax, --T,
--jobs, --large, --alpha, ...) goes unchanged to each study's ``robinsplit
compare``, which parses and checks it as it does on its own command line.
Each study sets its own --case, --variant and --out, so those compare flags
are refused here, before any level runs.  Only --T has a default of its own
here, 0.25, so the coarsest level (k=3, four steps) is meaningful; the
pinned reference numbers in tests/test_acceptance.py were measured at this
T.  Levels 7 and 8 take a while, ask for them with --large.  BLAS and OpenMP
run on one thread unless the environment says otherwise: with --jobs N the
runs already share the cores, and a small matrix product handed to a
second, busy core costs far more than it saves.

Usage:
    python scripts/reproduce_tables.py
    python scripts/reproduce_tables.py --kmax 8 --large --jobs 4
"""

import argparse
import os
import pathlib
import sys
import time

# before numpy is first imported (by robinsplit), as tests/conftest.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from robinsplit import cli  # noqa: E402
from robinsplit.errors import ConfigurationError  # noqa: E402

# (title, case, variants) of each study
STUDIES = (
    ("example1 P1, original vs improved start", "example1", ("original", "improved")),
    ("example2 P2, improved start", "example2", ("improved",)),
    ("example3 P2, improved start", "example3", ("improved",)),
)
# the compare flags that each study sets, by the ExperimentConfig field each sets
STUDY_FLAGS = {"case": "--case", "variants": "--variant", "out": "--out"}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Every other flag (--kmin, --kmax, --T (default 0.25 here), --jobs, "
        "--large, --alpha, ...) is passed to each study's robinsplit compare; "
        "compare's --case, --variant and --out are refused, as each study sets them.",
        allow_abbrev=False,
    )
    ap.add_argument("--out", default="results", help="directory for the CSV tables")
    args, passed = ap.parse_known_args(argv)
    try:
        # compare's own parser, so an abbreviated or --flag=value form counts
        given = vars(cli.parse_flags(["compare", *passed]))
        for field, flag in STUDY_FLAGS.items():
            if field in given:
                raise ConfigurationError(f"{flag} is set by each study; leave it out")
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    for title, case, variants in STUDIES:
        print(f"\n### {title}")
        # a --T of the user's comes later, so it wins
        argv = ["compare", "--T", "0.25", *passed, "--case", case]
        argv += [f"--variant={v}" for v in variants] + ["--out", str(out / case)]
        code = cli.main(argv)
        if code != 0:
            print(f"study failed with exit code {code}", file=sys.stderr)
            return code
    print(f"\nall tables written to {out}/ in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
