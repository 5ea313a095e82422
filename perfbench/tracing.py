"""Spans around the calls into each robinsplit layer, and the per-layer
metrics derived from them.

Tracing works from the benchmark's side of the boundary: ``install`` swaps
public module and class attributes of robinsplit (and ``splu`` in the
scipy module robinsplit's ``linalg`` calls) for wrappers that record a span
and then call the original.  The program runs its own code path unchanged;
the wrappers only look up names the way the program already does, at call
time.

A span is a dict with its name, start and end (``time.perf_counter``, which
is CLOCK_MONOTONIC and so comparable across processes), the names of the
open spans above it (``path``), the time covered by its direct children
(``child_s``, for self time) and the pid.  Spans stay in memory.  Sweep
levels run in pool workers forked from the traced process; each worker
appends its spans to a file in the trace directory at the end of a level,
and ``collect`` merges those files.

Work the benchmark adds for a metric (counting the entries of L and U,
evaluating the start-up block residuals) runs after the span it belongs to
has closed, with recording switched off.
"""

import functools
import json
import os
import time
from pathlib import Path

from robinsplit import cli, diagnostics, fem, linalg, schemes
from workloads import WORKLOADS

SWEEP = WORKLOADS["sweep_compare"]
FACTOR_KINDS = {
    "schemes.first_block_factorization": "block",
    "schemes.robin_factorizations": "robin",
    "schemes.monolithic_factorization": "mono",
}
# computed, not measured: a float64 value and an int32 row index per entry
BYTES_PER_FACTOR_ENTRY = 12


class Tracer:
    """Spans of one traced repetition; pool workers flush to ``trace_dir``."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.spans = []
        self.recording = True
        self._stack = []
        self._flushed = 0
        self._pending_factors = []
        self._pending_blocks = []

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a recording wrapper around it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            span = {
                "name": name,
                "path": [s["name"] for s in self._stack],
                "pid": os.getpid(),
                "child_s": 0.0,
            }
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child_s"] += span["end"] - span["start"]
                self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    # -- hooks ---------------------------------------------------------------

    def _keep_factor(self, span, args, _kwargs, lu):
        span["shape"] = args[0].shape[0]
        span["a_nnz"] = int(args[0].nnz)
        self._pending_factors.append((span, lu))

    def _keep_block(self, span, args, _kwargs, states):
        self._pending_blocks.append((span, states, args[:3]))

    def _report_done(self, span, args, _kwargs, report):
        span["order"] = args[0].disc.config.fe_order
        span["computed"] = [q for q, v in report.values().items() if v is not None]

    def _level_done(self, span, args, kwargs, _report):
        span["variant"] = args[1].variant
        span["k"] = kwargs["k"]
        self.finish()
        self.flush()

    def finish(self):
        """Add the counts that need work after the run, without recording."""
        self.recording = False
        try:
            for span, lu in self._pending_factors:
                span["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)
            for span, states, (case, config, disc) in self._pending_blocks:
                residuals = schemes.block_residuals(states, case, config, disc)
                span["residual_max"] = max(residuals.values())
        finally:
            self._pending_factors.clear()
            self._pending_blocks.clear()
            self.recording = True

    def flush(self):
        """Append this process's new spans to its file in the trace dir."""
        pid = os.getpid()
        new = [s for s in self.spans[self._flushed:] if s["pid"] == pid]
        self._flushed = len(self.spans)
        with open(self.trace_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in new:
                fh.write(json.dumps(span) + "\n")

    def collect(self):
        """Own spans plus those that pool workers flushed."""
        pid = os.getpid()
        spans = [s for s in self.spans if s["pid"] == pid]
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            if path.name != f"spans-{pid}.jsonl":
                with open(path, encoding="utf-8") as fh:
                    spans += [json.loads(line) for line in fh]
        return spans


def install(tracer):
    """Wrap the layer entry points that the workloads reach."""
    w = tracer.wrap
    w(schemes, "build_two_domain_mesh", "mesh.build")
    w(fem.FeSpace, "__init__", "fem.space")
    for attr in ("assemble_mass", "assemble_stiffness", "interface_mass_matrix"):
        w(fem, attr, "fem.assemble")
    w(fem, "assemble_load", "fem.load")
    w(linalg, "factorize", "linalg.factorize")
    w(linalg.spla, "splu", "linalg.splu", after=tracer._keep_factor)
    w(linalg.Factorization, "solve", "linalg.solve")
    w(schemes, "exact_first_step_data", "manufactured.first_step_data")
    for attr in FACTOR_KINDS:
        w(schemes.Discretization, attr.split(".")[1], attr)
    w(schemes, "solve_first_block_improved", "schemes.startup_block", after=tracer._keep_block)
    w(schemes, "step_original", "schemes.step")
    w(schemes, "step_monolithic", "schemes.step")
    w(diagnostics.ErrorAccumulator, "__init__", "diagnostics.init")
    w(diagnostics.ErrorAccumulator, "observe", "diagnostics.observe")
    w(diagnostics.ErrorAccumulator, "report", "diagnostics.report", after=tracer._report_done)
    w(diagnostics.ConvergenceTable, "to_csv", "cli.csv_write")
    w(cli, "run_with_errors", "cli.level", after=tracer._level_done)


def _reported(order):
    """Quantities the CLI tables carry: ``cli._tables`` drops e_ggdus for P1."""
    return [q for q in diagnostics.ALL_QUANTITIES if not (order == 1 and q == "e_ggdus")]


def layer_metrics(spans):
    """Per-layer metrics from one traced run's spans; see README.md."""

    def named(name, kind=None):
        return [
            s for s in spans
            if s["name"] == name and (kind is None or _kind(s) == kind)
        ]

    def busy(name, kind=None):
        return sum(s["end"] - s["start"] for s in named(name, kind))

    m = {
        "mesh.build_s": busy("mesh.build"),
        "fem.space_s": busy("fem.space"),
        "fem.assemble_s": busy("fem.assemble"),
        "fem.load_s": busy("fem.load"),
        "fem.load_calls": len(named("fem.load")),
        "linalg.solve_s": busy("linalg.solve"),
        "linalg.solve_calls": len(named("linalg.solve")),
        "manufactured.first_step_data_s": busy("manufactured.first_step_data"),
        "schemes.block_assemble_s": sum(
            s["end"] - s["start"] - s["child_s"]
            for s in named("schemes.first_block_factorization")
        ),
        "schemes.startup_block_s": busy("schemes.startup_block"),
        "schemes.block_unknowns": sum(s["shape"] for s in named("linalg.splu", "block")),
        "schemes.block_residual_max": max(
            (s["residual_max"] for s in named("schemes.startup_block")), default=0.0
        ),
        "schemes.step_s": busy("schemes.step"),
        "schemes.steps": len(named("schemes.step")),
        "diagnostics.init_s": busy("diagnostics.init"),
        "diagnostics.observe_s": busy("diagnostics.observe"),
        "diagnostics.observe_calls": len(named("diagnostics.observe")),
        "diagnostics.report_s": busy("diagnostics.report"),
        "cli.csv_write_s": busy("cli.csv_write"),
    }
    for kind in FACTOR_KINDS.values():
        m[f"linalg.factorize.{kind}_s"] = busy("linalg.factorize", kind)
        m[f"linalg.fill_nnz.{kind}"] = sum(s["fill_nnz"] for s in named("linalg.splu", kind))
    block_a = sum(s["a_nnz"] for s in named("linalg.splu", "block"))
    fill = m["linalg.fill_nnz.block"]
    m["linalg.fill_ratio.block"] = fill / block_a if block_a else 0.0
    m["linalg.factor_mb.block"] = fill * BYTES_PER_FACTOR_ENTRY / 1e6

    computed = reported = 0
    for s in named("diagnostics.report"):
        computed += len(s["computed"])
        reported += len(set(s["computed"]) & set(_reported(s["order"])))
    m["diagnostics.reported_frac"] = reported / computed if computed else 0.0

    levels = {(v, k): 0.0 for v in SWEEP.variants for k in range(SWEEP.k_min, SWEEP.level + 1)}
    for s in named("cli.level"):
        levels[s["variant"], s["k"]] += s["end"] - s["start"]
    for (v, k), seconds in levels.items():
        m[f"cli.level_s.{v}.k{k}"] = seconds
    return m


def _kind(span):
    """Which factorization a span belongs to, from the spans above it."""
    for name in reversed(span["path"]):
        if name in FACTOR_KINDS:
            return FACTOR_KINDS[name]
    return None
