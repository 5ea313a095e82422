import os
import pathlib
import re
import subprocess
import sys
import textwrap

import robinsplit


def test_all_exports_resolve():
    missing = [name for name in robinsplit.__all__ if not hasattr(robinsplit, name)]
    assert missing == []


def test_readme_layout_counts_the_package_lines():
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"^src/robinsplit/ +the package, ([\d,]+) lines$", readme, re.MULTILINE)
    assert stated, "README layout has no package line count"
    lines = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "robinsplit").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines


def test_benchmark_tracer_installs(tmp_path):
    # perfbench/tracing.py wraps package names given as strings and reads
    # their positional arguments (the start-up's (case, config, disc), passed
    # on to block_residuals; the accumulator's disc), so a rename or a
    # signature change must fail here rather than in a benchmark run.  One
    # traced start-up workload at the smoke level runs each of those reads.
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(str(root / d) for d in ("perfbench", "src"))
    code = textwrap.dedent(
        """
        import sys, tracing, workloads
        call = workloads.get("startup_p2", workloads.SMOKE_LEVEL).prepare(sys.argv[1])
        tracer = tracing.Tracer(sys.argv[1])
        tracing.install(tracer)
        call()
        tracer.finish()
        metrics = tracing.layer_metrics(tracer.collect())
        assert 0 < metrics["schemes.block_residual_max"] < 1e-9, metrics
        assert metrics["diagnostics.reported_frac"] == 1.0, metrics
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_smoke_outputs_match_references(tmp_path, monkeypatch):
    # the benchmark refuses outputs that move past workloads.RTOL from its
    # stored references; its k = 3 workloads run here, so such a change
    # fails this suite before a benchmark run reports it
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        workload = workloads.get(name, workloads.SMOKE_LEVEL)
        scratch = tmp_path / name
        scratch.mkdir()
        output = workload.output(workload.prepare(scratch)(), scratch)
        assert workload.check(output, workload.load_reference()) == [], name
