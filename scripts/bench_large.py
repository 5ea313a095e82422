#!/usr/bin/env python3
"""Write BENCH_large.json: the paper's two studies at the large levels.

Runs example1 P1 and example3 P2, each in the variants original, improved
and monolithic, at k = 6, 7 and 8 with T = 0.25, and writes one record per
run to BENCH_large.json at the root of the checkout:

  wall_s          wall time of ``diagnostics.run_with_errors``
  vmhwm_mib       peak resident set of the run's process (VmHWM)
  factors         every sparse LU in the order it is built: its kind (the
                  ``Discretization`` method that built it: startup, robin or
                  monolithic), n, nnz(A), SuperLU's ``nnz`` (read from the
                  factor, without building L and U) and the seconds of
                  ``linalg.factorize``
  startup         improved only: the nine-block system's size (Dirichlet
                  dofs included), the seconds of the whole start-up solve,
                  and its GMRES iterations, restarts, Schur applications
                  and seconds
  quantities      the nine error quantities of the report

The factors and the start-up are the records that ``run_with_errors``
returns on its report; this script only times the call and reads VmHWM.

plus the 6 -> 7 and 7 -> 8 orders of each quantity per (case, variant) and
the machine, recorded as the benchmark records it (``perfbench/run.py``'s
``machine``: nproc, cpu_model, ram_gb, the python, numpy and scipy versions,
and the thread variables).  Each run gets a fresh process, one after the
other, with the BLAS/OpenMP threads pinned to 1 as the benchmark pins them
(importing ``perfbench/rep.py``): example3 P2 improved k = 8 alone peaks
near 4 GB, so two runs must never overlap.  The whole command took 451 s on
the 2-core machine that BENCH_large.json names.  VmHWM and the machine are
read from /proc (Linux).

Usage:
    python3 scripts/bench_large.py
"""

import json
import math
import pathlib
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rep  # noqa: E402,F401  pins the BLAS/OpenMP threads to 1 before numpy loads
from run import machine  # noqa: E402

from robinsplit import cli, diagnostics, schemes  # noqa: E402
from robinsplit.manufactured import get_case  # noqa: E402

OUT = ROOT / "BENCH_large.json"
STUDIES = (("example1", 1), ("example3", 2))
LEVELS = (6, 7, 8)
T = 0.25


def _vmhwm_mib():
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def measure(case_name, order, variant, k):
    """The record of one ``run_with_errors`` call in this process;
    ``measure_each`` gives every call its own process, so VmHWM is the run's
    own peak."""
    case, config = get_case(case_name), cli.level_config(k, variant, order, T)
    t0 = time.perf_counter()
    report = diagnostics.run_with_errors(case, config, k=k)
    wall = time.perf_counter() - t0
    return {
        "case": case_name,
        "order": order,
        "variant": variant,
        "k": k,
        "dt": config.dt,
        "nx": config.nx,
        "wall_s": wall,
        "vmhwm_mib": _vmhwm_mib(),
        "factors": report.factors,
        "startup": report.startup,
        "quantities": report.values(),
    }


def measure_each(specs):
    """Yield the record of each (case, order, variant, k) in ``specs``, each
    measured in a fresh process and none started before the last ended."""
    pool = ProcessPoolExecutor(1, mp_context=get_context("spawn"), max_tasks_per_child=1)
    with pool:
        for spec in specs:
            yield pool.submit(measure, *spec).result()


def orders(records):
    """{"<case> P<order> <variant>": {quantity: [6 -> 7, 7 -> 8]}}; None
    where an order is undefined."""
    out = {}
    for case_name, order in STUDIES:
        for variant in schemes.VARIANTS:
            runs = sorted(
                (r for r in records
                 if (r["case"], r["order"], r["variant"]) == (case_name, order, variant)),
                key=lambda r: r["k"],
            )
            out[f"{case_name} P{order} {variant}"] = {
                q: [
                    None if math.isnan(o) else o
                    for o in diagnostics.convergence_orders(
                        [r["quantities"][q] for r in runs]
                    )[1:]
                ]
                for q in diagnostics.ALL_QUANTITIES
            }
    return out


def _checkout():
    """``git describe`` of the checkout, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main():
    specs = [
        (case_name, order, variant, k)
        for case_name, order in STUDIES
        for variant in schemes.VARIANTS
        for k in LEVELS
    ]
    records = []
    t0 = time.perf_counter()
    for record in measure_each(specs):
        records.append(record)
        print(
            f"{record['case']} P{record['order']} {record['variant']} k={record['k']}: "
            f"{record['wall_s']:.1f} s, {record['vmhwm_mib']:.0f} MiB",
            flush=True,
        )
    result = {
        "command": "python3 scripts/bench_large.py",
        "checkout": _checkout(),
        "T": T,
        "machine": machine(),
        "runs": records,
        "orders": orders(records),
    }
    OUT.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
