"""One repetition of one workload, in a fresh process.

run.py starts this once per repetition, so each repetition pays the
interpreter start and the imports, as a user's command does.  The last line
of stdout is one JSON object:

    setup_s      launch (the --t-launch stamp) until the inputs are built
    wall_s       the timed call into robinsplit, tracing on or off
    cpu_s        user+sys CPU of this process and its reaped children
                 during the timed call
    peak_rss_mb  peak RSS of the process, the larger of self and children
    ok, problems correctness of the output against the stored reference
    digest       hash of the normalised output
    layers       per-layer metrics (traced repetitions only)

Exit code 3, with no JSON, means the benchmark cannot run here: robinsplit
is not importable from this checkout's ``src`` or a reference is missing.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in pool workers
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CANNOT_RUN = 3


def _import_checkout():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import robinsplit
    except ImportError as exc:
        print(f"cannot import robinsplit from {src}: {exc}", file=sys.stderr)
        sys.exit(CANNOT_RUN)
    if src.resolve() not in Path(robinsplit.__file__).resolve().parents:
        print(f"robinsplit was imported from {robinsplit.__file__}, not {src}", file=sys.stderr)
        sys.exit(CANNOT_RUN)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def main():
    ap = argparse.ArgumentParser(description="one benchmark repetition")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-launch", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--level", type=int, default=None, help="override the workload's level")
    ap.add_argument("--reference-dir", default=None, help="read references from here")
    ap.add_argument("--scratch", required=True, help="an empty directory for the run's files")
    args = ap.parse_args()

    _import_checkout()
    import workloads

    if args.reference_dir:
        workloads.REFERENCE_DIR = Path(args.reference_dir).resolve()
    workload = workloads.get(args.workload, args.level)
    if not workload.reference.exists():
        print(f"no reference at {workload.reference}", file=sys.stderr)
        return CANNOT_RUN

    scratch = Path(args.scratch)
    call = workload.prepare(scratch)
    setup_s = time.monotonic() - args.t_launch
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(scratch)
        tracing.install(tracer)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        result, problems = call(), []
    except Exception as exc:  # a failed run is a measured outcome
        result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = _peak_rss_mb()

    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb, "digest": None}
    if not problems:
        output = workload.output(result, scratch)
        problems = workload.check(output, workload.load_reference())
        out["digest"] = workloads.digest(output)
    if tracer is not None:
        tracer.finish()
        out["layers"] = tracing.layer_metrics(tracer.collect())
    out["ok"] = not problems
    out["problems"] = problems[:10]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
