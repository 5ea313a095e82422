import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import Future

import pytest

from robinsplit import cli, linalg
from robinsplit.cli import ExperimentConfig, level_config, main
from robinsplit.diagnostics import ALL_QUANTITIES
from robinsplit.errors import ConfigurationError, SingularSystemError

from oracles import read_csv


def test_run_prints_all_quantities(capsys):
    code = main(
        ["run", "--case", "example1", "--variant", "improved", "--kmin", "1", "--T", "1.0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "case=example1 variant=improved k=1" in out
    for q in ALL_QUANTITIES:
        assert q in out


def test_run_writes_csv(tmp_path, capsys):
    path = tmp_path / "single.csv"
    code = main(
        [
            "run",
            "--case",
            "example1",
            "--variant",
            "original",
            "--kmin",
            "1",
            "--T",
            "1.0",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "k,dt,h," + ",".join(ALL_QUANTITIES)
    row = lines[1].split(",")
    assert row[0] == "1"
    assert float(row[1]) == 0.25
    assert len(row) == 3 + len(ALL_QUANTITIES)


def test_run_output_byte_identical(tmp_path, capsys):
    args = ["run", "--case", "example2", "--variant", "improved", "--kmin", "1", "--T", "1.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_one_variant_writes_tables(tmp_path, capsys):
    base = tmp_path / "conv"
    code = main(
        [
            "compare",
            "--case",
            "example1",
            "--variant",
            "original",
            "--kmin",
            "1",
            "--kmax",
            "2",
            "--T",
            "1.0",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    final = read_csv(tmp_path / "conv_final.csv")
    sums = read_csv(tmp_path / "conv_sums.csv")
    assert final.ks == (1, 2)
    assert final.quantities == ("e_u", "e_du", "e_dw", "e_gdu")
    # P1 drops the broken second-derivative sum
    assert sums.quantities == ("e_gdus", "e_gdws", "e_gdu2s", "e_dls")
    assert all(v > 0 for v in final.values["e_u"])
    out = capsys.readouterr().out
    assert "e_gdus" in out


def test_compare_p2_keeps_full_sums(tmp_path, capsys):
    base = tmp_path / "p2"
    code = main(
        [
            "compare",
            "--case",
            "example3",
            "--variant",
            "improved",
            "--kmin",
            "1",
            "--kmax",
            "1",
            "--T",
            "1.0",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    sums = read_csv(tmp_path / "p2_sums.csv")
    assert sums.quantities == ("e_gdus", "e_gdws", "e_gdu2s", "e_dls", "e_ggdus")


def test_startup_gmres_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(linalg, "GMRES_MAXITER", 2)
    args = ["run", "--case", "example1", "--variant", "improved", "--kmin", "3", "--T", "0.25"]
    assert main(args) == 1
    assert "GMRES did not converge" in capsys.readouterr().err


_HUGE_ALPHA = ["--case", "example1", "--kmin", "2", "--T", "0.5", "--alpha", "1e200"]


@pytest.mark.parametrize(
    "args, causes",
    [
        # the squared flux increments overflow in the accumulator
        (["run", "--variant", "original"], ["non-finite error quantities: e_dls = inf"]),
        # the start-up right-hand side has no finite norm; the original level
        # fails as above
        (
            ["compare", "--variant", "original", "--variant", "improved", "--kmax", "2"],
            [
                "level k=2 (original) failed: non-finite error quantities: e_dls = inf",
                "level k=2 (improved) failed: GMRES right-hand side has norm inf",
            ],
        ),
    ],
    ids=["run", "compare"],
)
def test_non_finite_level_exit_code(tmp_path, capsys, args, causes):
    # each overflow is refused by name, without a RuntimeWarning
    assert main(args + _HUGE_ALPHA + ["--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    for cause in causes:
        assert cause in err
    assert list(tmp_path.iterdir()) == []  # no CSV


_RUN_ONE = cli._run_one


def _fail_at_k2(monkeypatch):
    def run_one(exp, variant, k):
        if k == 2:
            raise SingularSystemError("singular matrix")
        return _RUN_ONE(exp, variant, k)

    monkeypatch.setattr(cli, "_run_one", run_one)


def test_run_reports_its_level_from_run_one(monkeypatch, capsys):
    # run goes through the one function every sweep level runs
    _fail_at_k2(monkeypatch)
    args = ["run", "--case", "example1", "--variant", "improved", "--kmin", "2", "--T", "1.0"]
    assert main(args) == 1
    assert capsys.readouterr().err == "run failed: singular matrix\n"


def test_compare_one_variant_partial_failure_exit_code(monkeypatch, capsys):
    # k=2 fails to solve; k=1 still completes and the partial table is flagged
    _fail_at_k2(monkeypatch)
    args = ["compare", "--case", "example1", "--variant", "improved"]
    code = main(args + ["--kmin", "1", "--kmax", "2", "--T", "1.0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "partial results" in captured.out
    assert "run failed" in captured.err


def test_compare_partial_failure_prints_every_variant(monkeypatch, capsys):
    _fail_at_k2(monkeypatch)
    args = ["compare", "--case", "example1", "--variant", "original", "--variant", "improved"]
    assert main(args + ["--kmin", "1", "--kmax", "2", "--T", "1.0"]) == 1
    captured = capsys.readouterr()
    for variant in ("original", "improved"):
        assert f"partial results (example1, {variant}): levels [1] completed" in captured.out
        assert f"level k=2 ({variant}) failed: singular matrix" in captured.err


def test_compare_writes_variant_files(tmp_path, capsys):
    base = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--case",
            "example1",
            "--variant",
            "original",
            "--variant",
            "improved",
            "--kmin",
            "1",
            "--kmax",
            "2",
            "--T",
            "1.0",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    for variant in ("original", "improved"):
        assert (tmp_path / f"cmp_{variant}_final.csv").exists()
        assert (tmp_path / f"cmp_{variant}_sums.csv").exists()
    orders = (tmp_path / "cmp_orders.csv").read_text().splitlines()
    assert orders[0].startswith("k,")
    assert "original_e_u_order" in orders[0]
    assert "improved_e_u_order" in orders[0]
    out = capsys.readouterr().out
    assert "observed orders by variant" in out


@pytest.mark.parametrize(
    "variants", [["improved"], ["original", "improved", "monolithic"]], ids=["one", "three"]
)
def test_compare_writes_and_names_every_csv_path(tmp_path, monkeypatch, capsys, variants):
    # the files compare writes are exactly those ExperimentConfig.csv_paths
    # names, and its last line announces all of them
    monkeypatch.chdir(tmp_path)
    flags = [f"--variant={v}" for v in variants]
    assert main(["compare", *flags, "--kmin", "1", "--kmax", "2", "--T", "1.0", "--out", "cmp"]) == 0
    exp = ExperimentConfig("example1", tuple(variants), 1, 2, T=1.0, out="cmp")
    assert sorted(os.listdir(tmp_path)) == sorted(exp.csv_paths.values())
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "wrote " + " and ".join(exp.csv_paths.values())


def test_parallel_sweep_matches_serial(tmp_path, capsys):
    common = [
        "compare",
        "--case",
        "example1",
        "--variant",
        "original",
        "--kmin",
        "1",
        "--kmax",
        "2",
        "--T",
        "1.0",
    ]
    a, b = tmp_path / "serial", tmp_path / "par"
    assert main(common + ["--out", str(a)]) == 0
    assert main(common + ["--out", str(b), "--jobs", "2"]) == 0
    assert (tmp_path / "serial_final.csv").read_bytes() == (tmp_path / "par_final.csv").read_bytes()
    assert (tmp_path / "serial_sums.csv").read_bytes() == (tmp_path / "par_sums.csv").read_bytes()


def test_pool_never_outnumbers_level_runs(monkeypatch, capsys):
    # a forked pool starts all max_workers at the first submit; this stand-in
    # records the count and runs each level inline, starting no process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self):
            pass

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    args = ["compare", "--case", "example1", "--variant", "original"]
    assert main(args + ["--kmin", "1", "--kmax", "2", "--T", "1.0", "--jobs", "512"]) == 0
    assert sizes == [2]


def _run_one_dying_at_k2(exp, variant, k):
    if k == 2:
        os._exit(1)  # a worker killed mid-level, as by the OOM killer
    return _RUN_ONE(exp, variant, k)


def test_crashed_worker_reported_per_level(monkeypatch, capsys):
    # pool workers are forked, so they run the patched function
    monkeypatch.setattr(cli, "_run_one", _run_one_dying_at_k2)
    args = ["compare", "--case", "example1", "--variant", "original"]
    code = main(args + ["--kmin", "1", "--kmax", "2", "--T", "1.0", "--jobs", "2"])
    assert code == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert lines[0].startswith("run failed: ")
    assert "level k=2 (original) failed: worker process died; level not completed" in err
    # one line per level the broken pool left unfinished, and nothing else
    assert all(line.endswith("failed: worker process died; level not completed") for line in lines)
    assert 1 <= len(lines) <= 2


_INTERRUPTED_SWEEP = textwrap.dedent(
    """
    import sys, time
    from robinsplit import cli

    def run_one(exp, variant, k):  # module level, so the pool can pickle it
        open(sys.argv[1], "a").close()
        time.sleep(600)

    cli._run_one = run_one
    cli.main(["compare", "--case", "example1", "--variant", "original",
              "--kmin", "1", "--kmax", "2", "--T", "1.0", "--jobs", "2"])
    """
)


def test_interrupt_ends_a_parallel_sweep(tmp_path):
    # SIGINT to the parent alone, once a level runs in the pool, ends the
    # sweep at once, as it ends a serial one, and leaves no worker behind;
    # the pool's shutdown must not wait on levels that would run for minutes
    root = pathlib.Path(__file__).resolve().parents[1]
    marker = tmp_path / "started"
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTED_SWEEP, str(marker)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == -signal.SIGINT, err
        with pytest.raises(ProcessLookupError):  # no process left in its group
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_unknown_case_is_config_error(capsys):
    code = main(["run", "--case", "example7", "--variant", "improved", "--kmin", "1"])
    assert code == 2
    assert "example7" in capsys.readouterr().err


def test_large_levels_need_opt_in(capsys):
    code = main(["run", "--case", "example1", "--variant", "improved", "--kmin", "7"])
    assert code == 2
    assert "--large" in capsys.readouterr().err


def test_level_ceiling_is_hard(capsys):
    code = main(
        ["run", "--case", "example1", "--variant", "improved", "--kmin", "9", "--large"]
    )
    assert code == 2


def test_huge_T_is_config_error(monkeypatch, capsys):
    # T/dt past schemes.MAX_STEPS is refused before any level starts
    def no_level(*args, **kwargs):
        raise AssertionError("a level was started")

    monkeypatch.setattr(cli, "run_with_errors", no_level)
    code = main(
        ["run", "--case", "example1", "--variant", "original", "--kmin", "3", "--T", "1e300"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "MAX_STEPS" in err


def test_kmax_below_kmin_rejected(capsys):
    code = main(
        [
            "compare",
            "--case",
            "example1",
            "--variant",
            "original",
            "--kmin",
            "3",
            "--kmax",
            "2",
        ]
    )
    assert code == 2


HELP_KMAX = {
    "run": "--kmax KMAX last level; must equal KMIN (default KMIN)",
    "compare": "--kmax KMAX last level (default max(KMIN, 6))",
}


@pytest.mark.parametrize(
    "command, kmin, kmax", [("run", 4, 4), ("compare", 4, 6), ("compare", 7, 7)]
)
def test_help_states_the_defaults_applied(capsys, command, kmin, kmax):
    # --help's --case, --variant and --kmax lines say what an unset flag
    # becomes; whitespace is collapsed, so line wrapping does not matter
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for line in (
        "--case {example1,example2,example3} manufactured case (default example1)",
        "--variant VARIANT scheme variant; repeat the flag under compare (default improved)",
        HELP_KMAX[command],
    ):
        assert line in text
    exp = cli._merge(cli.parse_flags([command, "--kmin", str(kmin), "--large"]))
    assert (exp.case, exp.variants, exp.k_max) == ("example1", ("improved",), kmax)


def test_run_rejects_multiple_variants(capsys):
    code = main(
        [
            "run",
            "--case",
            "example1",
            "--variant",
            "original",
            "--variant",
            "improved",
            "--kmin",
            "1",
            "--T",
            "1.0",
        ]
    )
    assert code == 2


_SWEEP = ["compare", "--case", "example1", "--variant", "original", "--kmin", "1"]


_PAIR = ["compare", "--case", "example1", "--variant", "original", "--variant", "improved",
         "--kmin", "1", "--kmax", "2", "--T", "1.0"]


_RUN = ["run", "--case", "example1", "--variant", "original", "--kmin", "1"]


@pytest.mark.parametrize(
    "made, args",
    [
        ((), ["run", "--kmin", "abc"]),
        ((), _SWEEP + ["--kmax", "2", "--T", "1.0", "--jobs", "0"]),
        ((), _SWEEP + ["--kmax", "3", "--T", "0.25"]),  # k=1 has one step
        ((), _SWEEP + ["--kmax", "2", "--T", "1.0", "--alpha", "-1"]),
        ((), _RUN + ["--T", "nan"]),
        ((), _SWEEP + ["--kmax", "2", "--T", "1.0", "--out", "{tmp}/missing/study"]),
        ((), _RUN + ["--T", "1.0", "--out", "{tmp}"]),
        ((), _SWEEP + ["--kmax", "2", "--T", "1.0", "--out", "{tmp}/"]),
        # a directory in the way of a table that the sweep writes at its end
        (("study_final.csv",), _SWEEP + ["--kmax", "2", "--T", "1.0", "--out", "{tmp}/study"]),
        (("study_improved_sums.csv",), _PAIR + ["--out", "{tmp}/study.csv"]),
        (("study_orders.csv",), _PAIR + ["--out", "{tmp}/study"]),
        ((), ["convergence"] + _SWEEP[1:] + ["--kmax", "2", "--T", "1.0"]),
        ((), _SWEEP + ["--kmax", "2", "--T", "1.0", "--out", ""]),
        # an experiment is stated by its flags alone; a file is not read
        ((), _RUN + ["--T", "1.0", "--config", "{tmp}/exp.cfg"]),
        ((), _RUN + ["--T", "1.0", "--bogus"]),
    ],
    ids=["malformed-value", "jobs-zero", "infeasible-level", "alpha", "nan", "out-dir",
         "run-out-is-dir", "sweep-out-is-dir", "sweep-table-is-dir", "compare-table-is-dir",
         "compare-orders-is-dir", "removed-command", "out-empty", "config-flag",
         "unknown-flag"],
)
def test_bad_input_refused_before_any_level(tmp_path, monkeypatch, capsys, made, args):
    levels = []
    real = cli.run_with_errors

    def recorded(*args, **kwargs):
        levels.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_with_errors", recorded)
    for name in made:
        (tmp_path / name).mkdir()
    # a file of valid key = value lines, which no flag reads
    (tmp_path / "exp.cfg").write_text("kmin = 1\nT = 1.0\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert levels == []


def test_file_error_inside_a_level_is_a_run_failure(monkeypatch, capsys):
    # only a file that the command line names is a configuration error
    def missing(*args, **kwargs):
        raise FileNotFoundError("no such file: table.dat")

    monkeypatch.setattr(cli, "run_with_errors", missing)
    assert main(["run", "--case", "example1", "--variant", "original", "--kmin", "1"]) == 1
    assert capsys.readouterr().err.startswith("run failed: ")


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("original", "original"), k_min=1, k_max=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("improved",), k_min=0, k_max=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("improved",), k_min=1, k_max=1, jobs=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("improved",), k_min=1, k_max=1, fe_order=3)
    with pytest.raises(ConfigurationError, match="variant"):
        ExperimentConfig(case="example1", variants=("magic",), k_min=1, k_max=1)
    with pytest.raises(ConfigurationError, match="k=1 .* T/dt"):
        ExperimentConfig(case="example1", variants=("improved",), k_min=1, k_max=3, T=0.25)


def test_experiment_config_level_mapping():
    exp = ExperimentConfig(case="example1", variants=("improved",), k_min=3, k_max=3)
    config = exp.scheme_config(3, "improved")
    assert config.dt == 1.0 / 16.0
    assert config.nx == 16
    assert config.fe_order == 1  # per-case default
    exp2 = ExperimentConfig(case="example3", variants=("improved",), k_min=3, k_max=3)
    assert exp2.scheme_config(3, "improved").fe_order == 2


def test_level_config_is_the_one_level_map():
    for k in range(1, 9):
        config = level_config(k, "original", 2, 1.0)
        assert config.dt == 0.5 ** (k + 1) and config.nx == 2 ** (k + 1)
        assert (config.T, config.alpha, config.fe_order) == (1.0, 4.0, 2)
    exp = ExperimentConfig(
        case="example2", variants=("monolithic",), k_min=2, k_max=4, alpha=2.5, T=0.5
    )
    for k in range(2, 5):
        assert exp.scheme_config(k, "monolithic") == level_config(k, "monolithic", 2, 0.5, 2.5)
