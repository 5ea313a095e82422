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
                  factor, without building L and U) and seconds in ``splu``
  startup         improved only: the nine-block system's size (Dirichlet
                  dofs included), the seconds of the whole start-up solve,
                  and its GMRES iterations, restarts, Schur applications
                  and seconds
  quantities      the nine error quantities of the report

plus the 6 -> 7 and 7 -> 8 orders of each quantity per (case, variant) and
the machine.  Each run gets a fresh process, one after the other, with BLAS
threads pinned to 1: example3 P2 improved k = 8 alone peaks near 4 GB, so
two runs must never overlap.  The whole command took 451 s on the 2-core
machine that BENCH_large.json names.  VmHWM and the machine are read from
/proc (Linux).

Usage:
    python3 scripts/bench_large.py
"""

import contextlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from robinsplit import cli, diagnostics, linalg, schemes  # noqa: E402
from robinsplit.manufactured import get_case  # noqa: E402

OUT = ROOT / "BENCH_large.json"
STUDIES = (("example1", 1), ("example3", 2))
LEVELS = (6, 7, 8)
T = 0.25
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FACTOR_KINDS = {
    "first_block_factorization": "startup",
    "robin_factorizations": "robin",
    "monolithic_factorization": "monolithic",
}


@contextlib.contextmanager
def _wrapped(owner, attr, wrap):
    """``owner.attr`` replaced by ``wrap(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _vmhwm_mib():
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def measure(case_name, order, variant, k):
    """The record of one ``run_with_errors`` call in this process.

    The factorizations, the start-up and its GMRES are timed through
    wrappers around the names the package looks up at call time; the
    arithmetic of the run is unchanged.  ``measure_each`` gives every call
    its own process, so VmHWM is the run's own peak.
    """
    factors = []
    kind = [None]
    startup = {}

    def track_kind(name):
        def wrap(method):
            def tracked(disc):
                kind.append(name)
                try:
                    return method(disc)
                finally:
                    kind.pop()

            return tracked

        return wrap

    def time_splu(splu):
        def timed(matrix, **kwargs):
            t0 = time.perf_counter()
            lu = splu(matrix, **kwargs)
            factors.append(
                {
                    "kind": kind[-1],
                    "n": matrix.shape[0],
                    "nnz_a": int(matrix.nnz),
                    "nnz_lu": int(lu.nnz),
                    "seconds": time.perf_counter() - t0,
                }
            )
            return lu

        return timed

    def count_gmres(gmres):
        def counted(op, rhs, **kwargs):
            # with a zero initial guess each GMRES cycle applies the operator
            # once per iteration and once more for its true residual
            counts = {"iterations": 0, "applications": 0}
            callback = kwargs["callback"]

            def matvec(x):
                counts["applications"] += 1
                return op.matvec(x)

            def per_iteration(residual):
                counts["iterations"] += 1
                callback(residual)

            counting = linalg.spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            t0 = time.perf_counter()
            out = gmres(counting, rhs, **{**kwargs, "callback": per_iteration})
            cycles = counts["applications"] - counts["iterations"]
            startup["gmres"] = {
                **counts,
                "restarts": max(cycles - 1, 0),
                "seconds": time.perf_counter() - t0,
            }
            return out

        return counted

    def time_startup(solve):
        def timed(*args):
            disc = args[-1]
            startup["unknowns"] = 3 * (disc.fluid.ndof + disc.solid.ndof + disc.n_sig)
            t0 = time.perf_counter()
            states = solve(*args)
            startup["seconds"] = time.perf_counter() - t0
            return states

        return timed

    case = get_case(case_name)
    config = cli.level_config(k, variant, order, T)
    with contextlib.ExitStack() as patches:
        for attr, name in FACTOR_KINDS.items():
            patches.enter_context(_wrapped(schemes.Discretization, attr, track_kind(name)))
        patches.enter_context(_wrapped(linalg.spla, "splu", time_splu))
        patches.enter_context(_wrapped(linalg.spla, "gmres", count_gmres))
        patches.enter_context(
            _wrapped(schemes, "solve_first_block_improved", time_startup)
        )
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
        "factors": factors,
        "startup": startup or None,
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


def machine():
    """The machine and the numerical stack the records were measured on."""
    import numpy
    import scipy

    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kib = int(next(line for line in fh if line.startswith("MemTotal:")).split()[1])
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "mem_total_mib": mem_kib // 1024,
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }


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
    for var in THREAD_VARS:  # inherited by every run's process
        os.environ[var] = "1"
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
