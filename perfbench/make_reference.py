#!/usr/bin/env python3
"""Write the stored correctness references of the benchmark's workloads.

    python3 perfbench/make_reference.py            # every missing reference
    python3 perfbench/make_reference.py --overwrite

Runs each workload once, in this process and untraced, at its own level and
at the smoke level, and stores the output under perfbench/reference/.  An
existing reference is never replaced without --overwrite: the benchmark
itself only reads them, so a stale or wrong reference shows up as failed
repetitions rather than being rewritten from whatever the code now does.
"""

import argparse
import shutil
import subprocess
import sys
import tempfile

from rep import HERE, ROOT  # importing rep pins the BLAS/OpenMP threads to 1, as in a run

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--overwrite", action="store_true")
    args = ap.parse_args()

    note = (f"perfbench/make_reference.py at commit {_commit()}: one untraced "
            "in-process run of the workload; compare within workloads.RTOL")
    for name in workloads.WORKLOADS:
        for level in sorted({workloads.WORKLOADS[name].level, workloads.SMOKE_LEVEL}):
            workload = workloads.get(name, level)
            if workload.reference.exists():
                if not args.overwrite:
                    print(f"kept {workload.reference.name}")
                    continue
                if workload.reference.is_dir():
                    shutil.rmtree(workload.reference)
                else:
                    workload.reference.unlink()
            with tempfile.TemporaryDirectory(dir=HERE) as scratch:
                result = workload.prepare(scratch)()
                workload.write_reference(workload.output(result, scratch), note)
            print(f"wrote {workload.reference.name}")


if __name__ == "__main__":
    main()
