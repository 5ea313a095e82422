"""Shared fixtures: the convergence sweeps behind the acceptance checks.

The sweeps are expensive (tens of seconds each), so they are computed once
per session and reused by every test that needs them.  STUDY_T is the final
time of the benchmark study; level k uses dt = (1/2)^(k+1) and nx = 2^(k+1)
so the mesh width tracks the time step (``cli.level_config``).

BLAS and OpenMP run on one thread: the suite's matrix products are small,
and on a busy machine handing them to more threads costs more than it saves.
The pins must be set before numpy is first imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

import pytest  # noqa: E402

from robinsplit.cli import level_config  # noqa: E402
from robinsplit.cli import main as cli_main  # noqa: E402
from robinsplit.diagnostics import run_with_errors  # noqa: E402
from robinsplit.manufactured import get_case  # noqa: E402

from oracles import read_csv  # noqa: E402

STUDY_T = 0.25


def sweep(case_name, variant, fe_order, ks, T=STUDY_T):
    case = get_case(case_name)
    return {
        k: run_with_errors(case, level_config(k, variant, fe_order, T), k=k) for k in ks
    }


@pytest.fixture(scope="session")
def compare_artifacts(tmp_path_factory):
    """Run the comparison command end to end on the primary study.

    Returns the parsed per-variant tables plus the wall time of the sweep.
    """
    out = tmp_path_factory.mktemp("compare") / "study"
    t0 = time.perf_counter()
    code = cli_main(
        [
            "compare",
            "--case",
            "example1",
            "--variant",
            "original",
            "--variant",
            "improved",
            "--kmin",
            "3",
            "--kmax",
            "6",
            "--T",
            str(STUDY_T),
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0, "comparison sweep failed"
    base = out.parent
    variants = ("original", "improved")
    return {
        "elapsed": elapsed,
        "final": {
            v: read_csv(base / f"study_{v}_final.csv") for v in variants
        },
        "sums": {
            v: read_csv(base / f"study_{v}_sums.csv") for v in variants
        },
    }


@pytest.fixture(scope="session")
def example2_reports():
    return sweep("example2", "improved", 2, range(3, 7))


@pytest.fixture(scope="session")
def example3_reports():
    return sweep("example3", "improved", 2, range(3, 7))


@pytest.fixture(scope="session")
def monolithic_reports():
    return sweep("example1", "monolithic", 1, range(3, 6))
