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


def test_module_entry_point_exits_with_main_code():
    # python -m robinsplit runs __main__.py, which exits with main()'s code
    root = pathlib.Path(__file__).resolve().parents[1]

    def robinsplit(*args):
        return subprocess.run(
            [sys.executable, "-m", "robinsplit", *args],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
        )

    done = robinsplit("--help")
    assert done.returncode == 0, done.stderr
    assert "run" in done.stdout and "compare" in done.stdout
    done = robinsplit("compare", "--kmin", "0")
    assert done.returncode == 2
    assert done.stderr.startswith("config error:"), done.stderr


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    # every command line that the README shows names a subcommand and flags
    # that the CLI still takes; parsing and merging check a line as the CLI
    # does, without running a level
    from robinsplit import cli

    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line$.*?^```$(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    lines = [line.split() for line in block.group(1).splitlines() if line.startswith("robinsplit ")]
    assert lines
    monkeypatch.chdir(tmp_path)  # the lines' --out targets are relative
    parser = cli.build_parser()
    for words in lines:
        cli._merge(parser, parser.parse_args(words[1:]))


def test_reproduce_tables_writes_the_study(tmp_path):
    # scripts/reproduce_tables.py runs its three studies through the CLI;
    # its example2 table is the one that compare writes with the same flags
    from robinsplit import cli

    root = pathlib.Path(__file__).resolve().parents[1]
    levels = ["--kmin", "1", "--kmax", "2", "--T", "1.0"]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_tables.py"), *levels,
         "--out", str(tmp_path / "study")],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    tables = ("final", "sums")
    names = {f"example1_{v}_{t}.csv" for v in ("original", "improved") for t in tables}
    names |= {"example1_orders.csv"} | {f"example{n}_{t}.csv" for n in (2, 3) for t in tables}
    assert {p.name for p in (tmp_path / "study").iterdir()} == names
    argv = ["compare", "--case", "example2", "--variant", "improved", *levels]
    assert cli.main(argv + ["--out", str(tmp_path / "direct")]) == 0
    direct = (tmp_path / "direct_final.csv").read_bytes()
    assert (tmp_path / "study" / "example2_final.csv").read_bytes() == direct


def test_benchmark_tracer_installs(tmp_path):
    # perfbench/tracing.py wraps package names given as strings and reads
    # their positional arguments (the start-up's (case, config, disc), passed
    # on to block_residuals; the accumulator's disc; the sweep level's config
    # and its k keyword), so a rename or a signature change must fail here
    # rather than in a benchmark run.  The traced start-up and sweep
    # workloads at the smoke level run each of those reads, the sweep's in
    # the pool workers whose spans the tracer merges.
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(str(root / d) for d in ("perfbench", "src"))
    code = textwrap.dedent(
        """
        import sys, tracing, workloads
        name, scratch = sys.argv[1], sys.argv[2]
        workload = workloads.get(name, workloads.SMOKE_LEVEL)
        call = workload.prepare(scratch)
        tracer = tracing.Tracer(scratch)
        tracing.install(tracer)
        result = call()
        tracer.finish()
        metrics = tracing.layer_metrics(tracer.collect())
        output = workload.output(result, scratch)
        assert workload.check(output, workload.load_reference()) == [], name
        if name == "startup_p2":
            assert 0 < metrics["schemes.block_residual_max"] < 1e-9, metrics
            assert metrics["diagnostics.reported_frac"] == 1.0, metrics
        else:
            # k = 3: 4 original, 1 improved and 4 monolithic steps; the P1
            # tables drop e_ggdus, one of the nine quantities
            for variant in workload.variants:
                assert metrics[f"cli.level_s.{variant}.k3"] > 0, metrics
            assert metrics["schemes.steps"] == 9, metrics
            assert metrics["diagnostics.reported_frac"] == 8 / 9, metrics
        """
    )
    for name in ("startup_p2", "sweep_compare"):
        scratch = tmp_path / name
        scratch.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", code, name, str(scratch)],
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


def test_bench_large_records_one_small_run(monkeypatch):
    # scripts/bench_large.py writes BENCH_large.json from records measured in
    # fresh processes: the factors and the start-up are the records that
    # run_with_errors returns on its report; one small run shows every field
    # is filled and that the nine quantities are those run_with_errors reports
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "scripts"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # as importing the script pins them, undone after
    import bench_large
    from robinsplit.cli import level_config

    (record,) = bench_large.measure_each([("example1", 1, "improved", 3)])
    assert set(record) == {
        "case", "order", "variant", "k", "dt", "nx", "wall_s", "vmhwm_mib",
        "factors", "startup", "quantities",
    }
    assert record["wall_s"] > 0 and record["vmhwm_mib"] > 0
    assert [f["kind"] for f in record["factors"]] == ["startup"] * 5 + ["robin"] * 2
    for factor in record["factors"]:
        assert set(factor) == {"kind", "n", "nnz_a", "nnz_lu", "seconds"}, factor
        assert factor["nnz_lu"] >= factor["nnz_a"] >= factor["n"] > 0, factor
    startup = record["startup"]
    assert set(startup) == {"unknowns", "seconds", "gmres"}
    assert startup["unknowns"] == 3 * (17 * 13 + 17 * 5 + 17)  # P1, nx = 16
    gmres = startup["gmres"]
    assert set(gmres) == {"iterations", "applications", "restarts", "seconds"}
    assert gmres["applications"] == gmres["iterations"] + gmres["restarts"] + 1 > 1
    config = level_config(3, "improved", 1, bench_large.T)
    want = robinsplit.run_with_errors(robinsplit.get_case("example1"), config, k=3)
    assert record["quantities"] == want.values()
