"""The benchmark's workloads and the correctness check of their outputs.

Each workload is a fixed robinsplit problem.  A manufactured-solution study
has no random input: its result is defined by (case, order, variant, level,
T), and the stored references are only meaningful for exactly those inputs.
So the seed does not change the problem; it only names the scratch space.

Outputs are normalised before they are checked or hashed:

* a single run gives {quantity: value} for the nine error quantities;
* the sweep gives {csv file name: file text} for the seven tables the
  ``compare`` command writes.

A check returns a list of mismatch messages; an empty list means correct.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

from robinsplit import cli
from robinsplit.diagnostics import ALL_QUANTITIES, run_with_errors
from robinsplit.manufactured import get_case

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
T_FINAL = 0.25
SMOKE_LEVEL = 3

# Relative tolerance of every reference comparison.  The small quantities
# (increments, second differences) amplify round-off by cancellation: only
# reordering the start-up LU (MMD_AT_PLUS_A instead of COLAMD) already moves
# startup_p2 by 1.2e-7.  Swapping `original` and `improved` moves every
# quantity of startup_p2 by 3e-2 or more, so it fails by orders of magnitude.
RTOL = 1e-4


@dataclasses.dataclass(frozen=True)
class SingleRun:
    """One ``diagnostics.run_with_errors`` call, which builds its own
    discretization."""

    name: str
    case: str
    order: int
    variant: str
    level: int

    @property
    def reference(self):
        return REFERENCE_DIR / f"{self.name}_k{self.level}.json"

    def prepare(self, scratch):
        """Build the inputs; return the call that the benchmark times."""
        case = get_case(self.case)
        exp = cli.ExperimentConfig(
            case=self.case,
            variants=(self.variant,),
            k_min=self.level,
            k_max=self.level,
            T=T_FINAL,
            fe_order=self.order,
        )
        config = exp.scheme_config(self.level, self.variant)
        return lambda: run_with_errors(case, config, k=self.level)

    def output(self, report, scratch):
        return {q: report.values()[q] for q in ALL_QUANTITIES}

    def load_reference(self):
        return json.loads(self.reference.read_text())["values"]

    def write_reference(self, output, note):
        record = {
            "workload": dataclasses.asdict(self),
            "T": T_FINAL,
            "produced_by": note,
            "values": output,
        }
        self.reference.write_text(json.dumps(record, indent=2) + "\n")

    def check(self, output, reference):
        bad = []
        for q in ALL_QUANTITIES:
            got, want = output.get(q), reference[q]
            if got is None or not math.isfinite(got):
                bad.append(f"{q} = {got} is not a finite number")
            elif not math.isclose(got, want, rel_tol=RTOL):
                bad.append(f"{q} = {got!r}, reference {want!r}")
        return bad


@dataclasses.dataclass(frozen=True)
class Sweep:
    """``cli.main(["compare", ...])`` over levels 3..level, writing CSVs."""

    name: str
    case: str
    variants: tuple
    level: int
    jobs: int
    k_min: int = 3

    @property
    def reference(self):
        return REFERENCE_DIR / f"{self.name}_k{self.level}"

    def argv(self, out):
        args = ["compare", "--case", self.case]
        for v in self.variants:
            args += ["--variant", v]
        return args + [
            "--kmin", str(self.k_min),
            "--kmax", str(self.level),
            "--T", str(T_FINAL),
            "--jobs", str(self.jobs),
            "--out", str(out),
        ]

    def prepare(self, scratch):
        argv = self.argv(Path(scratch) / "study")

        def call():
            # the tables the command prints are part of its work; keep them
            # off the benchmark's own stdout
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"robinsplit compare exited with code {code}")

        return call

    def output(self, _result, scratch):
        return {p.name: p.read_text() for p in sorted(Path(scratch).glob("study_*.csv"))}

    def load_reference(self):
        return {p.name: p.read_text() for p in sorted(self.reference.glob("*.csv"))}

    def write_reference(self, output, note):
        self.reference.mkdir()
        for name, text in output.items():
            (self.reference / name).write_text(text)
        (self.reference / "PRODUCED_BY.txt").write_text(note + "\n")

    def check(self, output, reference):
        bad = [f"{name} missing" for name in reference if name not in output]
        bad += [f"{name} not in the reference" for name in output if name not in reference]
        for name in sorted(set(output) & set(reference)):
            bad += [f"{name}: {m}" for m in _compare_csv(output[name], reference[name])]
        return bad


def _compare_csv(text, reference):
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want) or not got or got[0] != want[0]:
        return ["header or row count differs"]
    bad = []
    for row_got, row_want in zip(got[1:], want[1:]):
        if len(row_got) != len(row_want) or row_got[0] != row_want[0]:
            bad.append(f"row {row_got[:1]} does not line up with {row_want[:1]}")
            continue
        for col, a, b in zip(got[0][1:], row_got[1:], row_want[1:]):
            if (a == "") != (b == ""):
                bad.append(f"k={row_got[0]} {col}: {a!r}, reference {b!r}")
                continue
            if a == "":
                continue
            x, y = float(a), float(b)
            if not math.isfinite(x) or not math.isclose(x, y, rel_tol=RTOL, abs_tol=1e-12):
                bad.append(f"k={row_got[0]} {col}: {a}, reference {b}")
    return bad


def digest(output):
    """Hash of a normalised output; equal outputs give equal digests."""
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        SingleRun("startup_p2", case="example3", order=2, variant="improved", level=5),
        SingleRun("diag_p1", case="example1", order=1, variant="original", level=6),
        Sweep(
            "sweep_compare",
            case="example1",
            variants=("original", "improved", "monolithic"),
            level=6,
            jobs=2,
        ),
    )
}


def get(name, level=None):
    """The named workload, at its own level or at ``level``."""
    workload = WORKLOADS[name]
    return workload if level is None else dataclasses.replace(workload, level=level)
