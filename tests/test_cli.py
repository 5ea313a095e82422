import os

import pytest

from robinsplit import cli, linalg
from robinsplit.cli import ExperimentConfig, level_config, main
from robinsplit.diagnostics import ALL_QUANTITIES, ConvergenceTable
from robinsplit.errors import ConfigurationError


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


def test_convergence_writes_tables(tmp_path, capsys):
    base = tmp_path / "conv"
    code = main(
        [
            "convergence",
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
    final = ConvergenceTable.read_csv(tmp_path / "conv_final.csv")
    sums = ConvergenceTable.read_csv(tmp_path / "conv_sums.csv")
    assert final.ks == (1, 2)
    assert final.quantities == ("e_u", "e_du", "e_dw", "e_gdu")
    # P1 drops the broken second-derivative sum
    assert sums.quantities == ("e_gdus", "e_gdws", "e_gdu2s", "e_dls")
    assert all(v > 0 for v in final.values["e_u"])
    out = capsys.readouterr().out
    assert "e_gdus" in out


def test_convergence_p2_keeps_full_sums(tmp_path, capsys):
    base = tmp_path / "p2"
    code = main(
        [
            "convergence",
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
    sums = ConvergenceTable.read_csv(tmp_path / "p2_sums.csv")
    assert sums.quantities == ("e_gdus", "e_gdws", "e_gdu2s", "e_dls", "e_ggdus")


def test_startup_gmres_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(linalg, "GMRES_MAXITER", 2)
    args = ["run", "--case", "example1", "--variant", "improved", "--kmin", "3", "--T", "0.25"]
    assert main(args) == 1
    assert "GMRES did not converge" in capsys.readouterr().err


def test_convergence_partial_failure_exit_code(capsys):
    # k=2 gives only two steps at T=0.25, which the start-up block rejects;
    # k=3 still completes and the partial table is flagged
    code = main(
        [
            "convergence",
            "--case",
            "example1",
            "--variant",
            "improved",
            "--kmin",
            "2",
            "--kmax",
            "3",
            "--T",
            "0.25",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "partial results" in captured.out
    assert "run failed" in captured.err


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


def test_parallel_sweep_matches_serial(tmp_path, capsys):
    common = [
        "convergence",
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


_RUN_ONE = cli._run_one


def _run_one_dying_at_k2(exp, variant, k):
    if k == 2:
        os._exit(1)  # a worker killed mid-level, as by the OOM killer
    return _RUN_ONE(exp, variant, k)


def test_crashed_worker_reported_per_level(monkeypatch, capsys):
    # pool workers are forked, so they run the patched function
    monkeypatch.setattr(cli, "_run_one", _run_one_dying_at_k2)
    args = ["convergence", "--case", "example1", "--variant", "original"]
    code = main(args + ["--kmin", "1", "--kmax", "2", "--T", "1.0", "--jobs", "2"])
    assert code == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert lines[0].startswith("run failed: ")
    assert "level k=2 (original) failed: worker process died; level not completed" in err
    # one line per level the broken pool left unfinished, and nothing else
    assert all(line.endswith("failed: worker process died; level not completed") for line in lines)
    assert 1 <= len(lines) <= 2


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


def test_kmax_below_kmin_rejected(capsys):
    code = main(
        [
            "convergence",
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


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# study setup\n"
        "case = example1\n"
        "variant = improved\n"
        "kmin = 1\n"
        "T = 1.0\n"
    )
    code = main(["run", "--config", str(cfg)])
    assert code == 0
    assert "case=example1 variant=improved k=1" in capsys.readouterr().out


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("case = example2\nvariant = original\nkmin = 1\nT = 1.0\n")
    code = main(["run", "--config", str(cfg), "--case", "example1"])
    assert code == 0
    assert "case=example1 variant=original" in capsys.readouterr().out


def test_missing_config_file(capsys):
    code = main(["run", "--config", "/nonexistent/path.cfg"])
    assert code == 2


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case example1\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 2


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flavor = spicy\n")
    code = main(["run", "--config", str(cfg)])
    assert code == 2


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("original", "original"), k_min=1, k_max=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("improved",), k_min=0, k_max=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("improved",), k_min=1, k_max=1, jobs=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(case="example1", variants=("improved",), k_min=1, k_max=1, fe_order=3)


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
