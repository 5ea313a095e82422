#!/usr/bin/env python3
"""Benchmark of robinsplit: every workload and metric from one command.

    python3 perfbench/run.py --workload startup_p2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1 \\
        --out perfbench/baseline/run.json

Run from the root of a checkout.  The workloads and the metric names,
units and bounds are those of BENCHMARK.json at the root; README.md beside
this file says why each was chosen.

A run starts repetitions of the workload until --seconds have passed,
each in a fresh process (rep.py), one after another, and before each a
set-up-only process, so that the set-up samples span the whole run.  With --trace 0 it reports the end-to-end
metrics as medians over the repetitions.  With --trace 1 it alternates
untraced and traced repetitions and reports the per-layer metrics as
medians over the traced ones; ``trace.overhead_s`` is the traced median
wall time minus the untraced one.  Every repetition's output is checked
against the stored reference, and a traced output must equal the untraced
one exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 all outputs correct, 1 some
repetition failed (the JSON is still printed), 2 the benchmark cannot run
here (no JSON is printed).
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# importing rep pins the BLAS/OpenMP thread variables to 1 in this process,
# so every repetition and its pool workers inherit them
from rep import CANNOT_RUN, THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".scratch"
TIME_LIMIT_S = 170  # a whole invocation, per workload
# Runnable by name but not listed in BENCHMARK.json: its layer,
# diagnostics, is also the largest share of sweep_compare, and a third
# workload would leave each run too little time for steady medians.
EXTRA_WORKLOADS = ("diag_p1",)


class CannotRun(Exception):
    """The benchmark cannot run in this directory."""


def _spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CannotRun(f"cannot read {path}: {exc}") from exc


def machine():
    """Where the results were measured, for the results file."""
    model, ram_kib = "unknown", 0
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    with open("/proc/meminfo", encoding="utf-8") as fh:
        ram_kib = next((int(line.split()[1]) for line in fh
                        if line.startswith("MemTotal:")), ram_kib)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "ram_gb": round(ram_kib * 1024 / 1e9, 2),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _repetition(workload, seed, deadline, trace=0, setup_only=False, level=None,
                reference_dir=None):
    """Start one repetition process and return its JSON result.

    A repetition that crashes, prints no result or outlives the deadline
    comes back as a failed result; one that says the benchmark cannot run
    here raises CannotRun.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if level is not None:
        cmd += ["--level", str(level)]
    if reference_dir is not None:
        cmd += ["--reference-dir", str(reference_dir)]
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH, prefix=f"{workload}-s{seed}-")
    cmd += ["--scratch", scratch]
    launch = time.monotonic()
    cmd += ["--t-launch", repr(launch)]
    # its own session, so that a timeout also stops the pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    stdout = None
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        pass
    finally:
        _reap_group(proc.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    if stdout is None:
        proc.communicate()
        return {"ok": False, "problems": ["timed out"], "trace": trace}
    if proc.returncode == CANNOT_RUN:
        raise CannotRun(stderr.strip())
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "problems": [f"crashed: {tail[0]}"], "trace": trace}
    result = json.loads(lines[-1])
    result["trace"] = trace
    return result


def _reap_group(pgid):
    """Stop the repetition's process group: a repetition that timed out, or
    pool workers it left behind."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def measure(workload, seed, seconds, trace, level=None, reference_dir=None):
    """All repetitions of one workload, with the set-up probes."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    kw = {"level": level, "reference_dir": reference_dir}
    probes, reps = [], []
    kinds = (0, 1) if trace else (0,)
    longest = 0.0
    while True:
        started = time.monotonic()
        probes.append(_repetition(workload, seed, deadline, setup_only=True, **kw))
        reps.append(_repetition(workload, seed, deadline, trace=kinds[len(reps) % len(kinds)], **kw))
        now = time.monotonic()
        longest = max(longest, now - started)
        # start another repetition only if it would end closer to --seconds
        # than stopping now does, so a run lasts about --seconds
        if now - start + longest / 2 > seconds and len(reps) >= len(kinds):
            break
        if now + 1.5 * longest > deadline:
            break

    # the output of every repetition must equal the first untraced one's
    plain = [r for r in reps if r["trace"] == 0 and r["ok"]]
    for r in reps:
        if r["ok"] and plain and r["digest"] != plain[0]["digest"]:
            r["ok"] = False
            r["problems"] = ["output differs from the first untraced repetition"]
    return {"probes": probes, "reps": reps}


def _median(values):
    return statistics.median(values) if values else 0.0


def summarise(measured, spec, trace):
    """The contract's result object plus every sample behind it."""
    reps = measured["reps"]
    failed = sum(not r["ok"] for r in reps)
    timed = [r for r in reps if r["trace"] == 0 and "wall_s" in r]
    samples = {}
    if trace:
        traced = [r for r in reps if r["trace"] == 1 and "layers" in r]
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                continue
            samples[m["name"]] = [r["layers"][m["name"]] for r in traced]
        overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in timed])
        samples["trace.overhead_s"] = [overhead]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        shares = {
            name: _median([r["layers"][name] / r["wall_s"] for r in traced])
            for name in samples
            if units[name] == "s" and name != "trace.overhead_s"
        }
    else:
        setups = [r["setup_s"] for r in measured["probes"] + reps if "setup_s" in r]
        for m in spec["end_to_end"]:
            if m["name"] == "setup_s":
                samples["setup_s"] = setups
            else:
                samples[m["name"]] = [r[m["name"]] for r in timed if m["name"] in r]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        shares = {}
    metrics = {name: {"value": _median(v), "unit": units[name]} for name, v in samples.items()}
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    problems = [p for r in reps for p in r.get("problems", [])]
    return result, samples, shares, problems


def report(workload, result, samples, shares, problems):
    """Human-readable lines: every metric by name, with its unit."""
    print(f"workload {workload}")
    for name, m in result["metrics"].items():
        values = samples[name]
        spread = f"min {min(values):.6g}  max {max(values):.6g}" if values else "no samples"
        share = f"; {shares[name]:.1%} of traced wall" if name in shares else ""
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:6s} median of n={len(values)}; "
              f"{spread}{share}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':34s} {frac:<14.6g} {'ratio':6s} {result['failed']} of "
          f"{result['attempted']} repetitions failed")
    for p in problems[:10]:
        print(f"    problem: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the results to this JSON file")
    ap.add_argument("--level", type=int, default=None,
                    help="run the workloads at this level (smoke tests)")
    ap.add_argument("--reference-dir", default=None,
                    help="read the references from here instead")
    args = ap.parse_args(argv)
    # a terminated run still stops the repetition it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        known = names + list(EXTRA_WORKLOADS)
        if args.workload != "all" and args.workload not in known:
            raise CannotRun(f"unknown workload {args.workload!r}; choose from {known} or all")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        chosen = names if args.workload == "all" else [args.workload]
        record = {"command": sys.argv if argv is None else argv, "seed": args.seed,
                  "seconds": seconds, "trace": args.trace, "workloads": {}}
        for name in chosen:
            measured = measure(name, args.seed, seconds, args.trace, args.level,
                               args.reference_dir)
            result, samples, shares, problems = summarise(measured, spec, args.trace)
            record["workloads"][name] = dict(result, samples=samples, shares_of_traced_wall=shares,
                                             problems=problems)
            report(name, result, samples, shares, problems)
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    if args.out:
        record["machine"] = machine()
        print("machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}")
    runs = record["workloads"]
    if len(runs) == 1:
        final = {k: v for k, v in next(iter(runs.values())).items()
                 if k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{w}/{k}": v for w, r in runs.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
