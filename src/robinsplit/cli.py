"""Command-line driver for runs, level sweeps, and scheme comparisons.

Level k maps to dt = (1/2)^(k+1) and nx = 2^(k+1), so the mesh size h
equals dt on the unit square.  Levels 7 and 8 multiply runtime and memory
considerably and are only admitted behind ``--large``; nothing above 8 is
accepted.  An experiment is stated by its flags alone.

Exit codes: 0 on success; 2 for a usage or configuration error, found
before any level runs: a malformed or unknown flag, a (level, variant) pair
that ``SchemeConfig`` refuses, an empty ``--out``, or an ``--out`` or a CSV
named after it that is a directory or whose directory does not exist; 1
when a level fails to solve or gives an error quantity that is not finite,
after the tables of the levels that completed.  Every CSV goes through
``diagnostics.write_csv``, whose floats are written at full precision so
parsing a table back yields exactly the in-memory values.
"""

import argparse
import functools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .diagnostics import (
    ALL_QUANTITIES,
    FINAL_QUANTITIES,
    SUMMED_QUANTITIES,
    ConvergenceTable,
    format_columns,
    order_cell,
    run_with_errors,
    write_csv,
)
from .errors import ConfigurationError
from .manufactured import case_names, default_order, get_case
from .schemes import SchemeConfig

HARD_CEILING = 8
LARGE_THRESHOLD = 7
# the study defaults of the ExperimentConfig fields without one; run's only
# level is --kmin, and compare's last is the larger of --kmin and DEFAULT_KMAX
DEFAULT_CASE = "example1"
DEFAULT_VARIANT = "improved"
DEFAULT_KMIN = 3
DEFAULT_KMAX = 6
# a sweep's tables of each variant, by the name its CSV carries
TABLES = {"final": FINAL_QUANTITIES, "sums": SUMMED_QUANTITIES}


def level_config(k, variant, fe_order, T, alpha=SchemeConfig.alpha):
    """Scheme configuration of level k: dt = (1/2)^(k+1), nx = 2^(k+1)."""
    return SchemeConfig(
        dt=0.5 ** (k + 1),
        T=T,
        nx=2 ** (k + 1),
        fe_order=fe_order,
        variant=variant,
        alpha=alpha,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI invocation's worth of experiment parameters.

    Every (level, variant) pair is built here through ``SchemeConfig``, the
    one place that says what a level admits, and every CSV the command will
    write is checked, so a sweep is refused whole before any level runs.
    ``command`` is the subcommand: ``run`` takes one variant and one level,
    ``compare`` sweeps the levels under each of its variants.
    """

    case: str
    variants: tuple
    k_min: int
    k_max: int
    alpha: float = SchemeConfig.alpha
    T: float = 1.0
    fe_order: int = None
    out: str = None
    jobs: int = 1
    allow_large: bool = False
    command: str = "compare"

    def __post_init__(self):
        get_case(self.case)
        if not self.variants:
            raise ConfigurationError("at least one variant is required")
        if len(set(self.variants)) != len(self.variants):
            raise ConfigurationError("variants must not repeat")
        if self.command == "run" and len(self.variants) != 1:
            raise ConfigurationError("run takes exactly one --variant")
        if self.command == "run" and self.k_max != self.k_min:
            raise ConfigurationError("run is a single-level command; use --kmin alone")
        if self.k_min < 1:
            raise ConfigurationError(f"kmin must be >= 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ConfigurationError(
                f"kmax must be >= kmin, got {self.k_min}..{self.k_max}"
            )
        if self.k_max > HARD_CEILING:
            raise ConfigurationError(
                f"level {self.k_max} exceeds the ceiling of {HARD_CEILING}"
            )
        if self.k_max >= LARGE_THRESHOLD and not self.allow_large:
            raise ConfigurationError(
                f"levels {LARGE_THRESHOLD} and above need --large "
                "(they take far longer and much more memory)"
            )
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.out == "":
            raise ConfigurationError("--out is empty; name a file, or leave it out")
        # --out itself too: ending in a separator, it is refused as a
        # directory when that exists, and for its directory when it does not
        for path in (self.out, *self.csv_paths.values()) if self.out else ():
            if os.path.isdir(path):
                raise ConfigurationError(f"--out target {path!r} is a directory, not a file")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigurationError(f"the directory of --out target {path!r} does not exist")
        for k in range(self.k_min, self.k_max + 1):
            for v in self.variants:
                try:
                    self.scheme_config(k, v)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"level k={k} ({v}): {exc}") from None

    @property
    def order(self):
        return self.fe_order if self.fe_order is not None else default_order(self.case)

    def scheme_config(self, k, variant):
        return level_config(k, variant, self.order, self.T, self.alpha)

    @property
    def csv_paths(self):
        """Every CSV the command writes, keyed by table; empty without --out.

        ``run`` writes ``--out``; a sweep names each variant's final and sums
        tables after ``--out`` less ``.csv``, with the variant when there
        are several, and then also writes their orders.
        """
        if not self.out:
            return {}
        if self.command == "run":
            return {"run": self.out}
        stem, several = self.out.removesuffix(".csv"), len(self.variants) > 1
        paths = {
            (v, t): f"{stem}_{v}_{t}.csv" if several else f"{stem}_{t}.csv"
            for v in self.variants
            for t in TABLES
        }
        return {**paths, "orders": f"{stem}_orders.csv"} if several else paths


def _run_one(exp, variant, k):
    case = get_case(exp.case)
    return run_with_errors(case, exp.scheme_config(k, variant), k=k)


def _sweep(exp):
    """Run all (k, variant) pairs; results keyed in deterministic order.

    Returns ({variant: {k: ErrorReport}}, [(k, variant, exception), ...]).
    """
    # finest level first, so a pool does not end on one long level alone
    jobs = [(v, k) for k in range(exp.k_max, exp.k_min - 1, -1) for v in exp.variants]
    results = {}
    failures = []
    if exp.jobs > 1 and len(jobs) > 1:
        # a forked pool starts all its workers at the first submit
        pool = ProcessPoolExecutor(
            max_workers=min(exp.jobs, len(jobs)), mp_context=multiprocessing.get_context("fork")
        )
        try:
            futures = [pool.submit(_run_one, exp, v, k) for v, k in jobs]
            pool.shutdown()
        except KeyboardInterrupt:
            # an interrupted shutdown can wait forever: end every level at
            # once, as a serial sweep's level ends
            for child in multiprocessing.active_children():
                child.kill()
            raise
        outcomes = [fut.result for fut in futures]
    else:
        outcomes = [functools.partial(_run_one, exp, v, k) for v, k in jobs]
    for (v, k), outcome in zip(jobs, outcomes):
        try:
            results.setdefault(v, {})[k] = outcome()
        except BrokenProcessPool:
            failures.append((k, v, RuntimeError("worker process died; level not completed")))
        except Exception as exc:  # collected, reported in order below
            failures.append((k, v, exc))
    failures.sort(key=lambda item: (item[0], exp.variants.index(item[1])))
    return results, failures


def _reported(quantities, order):
    """The quantities the tables carry, in their given order."""
    # the broken second-derivative sum carries no FE content for P1
    return tuple(q for q in quantities if order == 2 or q != "e_ggdus")


def _tables(reports, order):
    return {
        t: ConvergenceTable.from_reports(reports, _reported(quantities, order))
        for t, quantities in TABLES.items()
    }


def cmd_run(exp):
    """Execute one (case, variant, level); print and optionally save it."""
    variant, k = exp.variants[0], exp.k_min
    report = _run_one(exp, variant, k)
    print(
        f"case={exp.case} variant={variant} k={k} "
        f"dt={report.dt:g} nx={exp.scheme_config(k, variant).nx} order={exp.order}"
    )
    for q in ALL_QUANTITIES:
        print(f"  {q:8s} = {getattr(report, q):.6e}")
    if exp.out:
        values = [report.k, report.dt, report.h] + [getattr(report, q) for q in ALL_QUANTITIES]
        write_csv(exp.csv_paths["run"], ["k", "dt", "h", *ALL_QUANTITIES], [values])
        print(f"wrote {exp.csv_paths['run']}")
    return report


def _orders_table(orders, columns, ks, text=False):
    """Header and rows of the observed orders of each (variant, quantity)
    column by level, as text cells or CSV cells."""
    header = ["k"] + [f"{v}:{q}" if text else f"{v}_{q}_order" for v, q in columns]
    rows = [
        [str(k) if text else k] + [order_cell(orders[v][q][i], text) for v, q in columns]
        for i, k in enumerate(ks)
    ]
    return header, rows


def cmd_compare(exp):
    """Sweep kmin..kmax under each variant and emit its final + sums tables;
    with several variants, also their observed orders side by side.

    When a level fails, every variant's completed levels are printed as
    partial tables and the failures are raised.
    """
    results, failures = _sweep(exp)
    several = len(exp.variants) > 1
    out = {}
    for v in (v for v in exp.variants if v in results):
        out[v] = _tables(results[v], exp.order)
        final, sums = out[v].values()
        if failures:
            title = f"partial results ({exp.case}, {v}): levels {sorted(results[v])} completed"
        else:
            title = f"case={exp.case} variant={v} order={exp.order}"
        print(f"{title}\n{final.format_text()}\n\n{sums.format_text()}")
        if several:
            print()
    if failures:  # one line per failed level, raised as the error of the command
        lines = [f"level k={k} ({v}) failed: {exc}" for k, v, exc in failures]
        raise RuntimeError("\n".join(lines)) from failures[0][2]
    orders = {v: {**t["final"].orders, **t["sums"].orders} for v, t in out.items()}
    ks = range(exp.k_min, exp.k_max + 1)
    if several:
        shown = [(v, q) for q in ("e_u", "e_gdus", "e_gdu2s") for v in exp.variants]
        print("observed orders by variant")
        print(format_columns(*_orders_table(orders, shown, ks, text=True)))
    for key, path in exp.csv_paths.items():
        if key == "orders":
            columns = [(v, q) for v in exp.variants for q in _reported(ALL_QUANTITIES, exp.order)]
            write_csv(path, *_orders_table(orders, columns, ks))
        else:
            out[key[0]][key[1]].to_csv(path)
    if exp.csv_paths:
        print("wrote " + " and ".join(exp.csv_paths.values()))
    return out


# ---------------------------------------------------------------------------
# argument handling

def _merge(args):
    """The experiment of the flags given.  A field that no flag sets keeps its
    ``ExperimentConfig`` default, or else takes its ``DEFAULT_*`` above."""
    values = dict(vars(args))
    command = values["command"]
    values["variants"] = tuple(values.get("variants", [DEFAULT_VARIANT]))
    values.setdefault("case", DEFAULT_CASE)
    k_min = values.setdefault("k_min", DEFAULT_KMIN)
    values.setdefault("k_max", k_min if command == "run" else max(k_min, DEFAULT_KMAX))
    return ExperimentConfig(**values)


def parse_flags(argv):
    """The flags given, by ``ExperimentConfig`` field; an unset one is absent.
    A malformed or unknown flag is a ``ConfigurationError``."""
    try:
        args, unknown = build_parser().parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ConfigurationError(exc) from None
    if unknown:
        raise ConfigurationError(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def build_parser():
    # unset flags stay out of the namespace, so the ExperimentConfig and
    # DEFAULT_* defaults are the only ones and a caller sees which flags were
    # given; bad values raise instead of exiting, to be reported as config errors
    parser = argparse.ArgumentParser(
        prog="robinsplit",
        description="Interface-problem splitting schemes: runs and level sweeps.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext, kmax_help in (
        ("run", "one case, one variant, one level", "last level; must equal KMIN (default KMIN)"),
        ("compare", "sweep levels for each variant and tabulate orders",
         f"last level (default max(KMIN, {DEFAULT_KMAX}))"),
    ):
        p = sub.add_parser(
            name, help=helptext, argument_default=argparse.SUPPRESS, exit_on_error=False
        )
        p.add_argument("--case", choices=case_names(), help=f"manufactured case (default {DEFAULT_CASE})")
        # dest: the ExperimentConfig field the flag sets
        p.add_argument(
            "--variant", dest="variants", metavar="VARIANT", action="append",
            help=f"scheme variant; repeat the flag under compare (default {DEFAULT_VARIANT})",
        )
        p.add_argument(
            "--kmin", dest="k_min", metavar="KMIN", type=int, help=f"first level (default {DEFAULT_KMIN})"
        )
        p.add_argument("--kmax", dest="k_max", metavar="KMAX", type=int, help=kmax_help)
        p.add_argument("--alpha", type=float, help=f"Robin parameter (default {SchemeConfig.alpha:g})")
        p.add_argument("--T", type=float, help=f"final time (default {ExperimentConfig.T})")
        p.add_argument(
            "--order", dest="fe_order", metavar="ORDER", type=int,
            help="FE order 1 or 2 (default per case)",
        )
        p.add_argument("--out", help="output CSV path (or path stem)")
        p.add_argument("--jobs", type=int, help="parallel level workers")
        p.add_argument("--large", dest="allow_large", action="store_true", help="admit levels 7 and 8")
    return parser


def main(argv=None):
    try:
        exp = _merge(parse_flags(argv))
        if exp.command == "run":
            cmd_run(exp)
        else:
            cmd_compare(exp)
    except SystemExit as exc:
        # argparse exits on usage errors (code 2) and on --help (code 0)
        return int(exc.code or 0)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0
