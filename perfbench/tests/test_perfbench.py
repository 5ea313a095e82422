"""Tests of the benchmark itself, on the k = 3 smoke level of each workload.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "linalg.fill_nnz.block",
    "linalg.fill_nnz.robin",
    "linalg.fill_nnz.mono",
    "schemes.steps",
    "diagnostics.observe_calls",
)

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SMOKE = str(workloads.SMOKE_LEVEL)


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(tmp_path, trace):
    out = tmp_path / f"trace{trace}.json"
    proc = bench("--workload", "all", "--level", SMOKE, "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(out.read_text())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(tmp_path, trace, kind):
    proc, record = smoke(tmp_path, trace)
    for name in WORKLOADS:
        result = record["workloads"][name]
        assert result["correct"] and result["failed"] == 0
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert f"{m['name']} " in proc.stdout
    for key in ("nproc", "cpu_model", "ram_gb", "python", "numpy", "scipy"):
        assert record["machine"][key]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}


def _break(reference):
    """Perturb one stored value beyond the tolerance."""
    if reference.is_dir():
        table = reference / "study_original_final.csv"
        header, row, *rest = table.read_text().splitlines()
        cells = row.split(",")
        cells[1] = repr(float(cells[1]) * 1.01)
        table.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    else:
        record = json.loads(reference.read_text())
        record["values"]["e_u"] *= 1.01
        reference.write_text(json.dumps(record))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrong_reference_fails_every_repetition(tmp_path, name):
    refs = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, refs)
    _break(refs / workloads.get(name, workloads.SMOKE_LEVEL).reference.name)
    proc = bench("--workload", name, "--level", SMOKE, "--reference-dir", str(refs))
    assert proc.returncode == 1
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not final["correct"]
    assert final["failed"] == final["attempted"] >= 1  # fail_frac = 1


def test_original_fails_the_improved_reference(tmp_path):
    improved = workloads.get("startup_p2")
    original = dataclasses.replace(improved, variant="original")
    report = original.prepare(tmp_path)()
    mismatches = improved.check(original.output(report, tmp_path), improved.load_reference())
    assert len(mismatches) == len(workloads.ALL_QUANTITIES), mismatches


def test_exact_counts_repeat(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = smoke(tmp_path / "a", 1)
    _, second = smoke(tmp_path / "b", 1)
    for name in WORKLOADS:
        a = first["workloads"][name]["samples"]
        b = second["workloads"][name]["samples"]
        for metric in EXACT_COUNTS:
            assert len(set(a[metric] + b[metric])) == 1, (name, metric, a[metric], b[metric])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".scratch", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
