"""Command-line driver for runs, level sweeps, and scheme comparisons.

Level k maps to dt = (1/2)^(k+1) and nx = 2^(k+1), so the mesh size h
equals dt on the unit square.  Levels 7 and 8 multiply runtime and memory
considerably and are only admitted behind ``--large``; nothing above 8 is
accepted.

Exit codes: 0 on success, 1 when a solve fails, 2 for configuration or
usage errors.  All CSV output is UTF-8 with LF line endings and a header
row; floats are written at full precision so parsing a table back yields
exactly the in-memory values.
"""

import argparse
import csv
import functools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .diagnostics import (
    ALL_QUANTITIES,
    FINAL_QUANTITIES,
    SUMMED_QUANTITIES,
    ConvergenceTable,
    format_columns,
    run_with_errors,
)
from .errors import ConfigurationError
from .manufactured import case_names, default_order, get_case
from .schemes import VARIANTS, SchemeConfig

HARD_CEILING = 8
LARGE_THRESHOLD = 7


def level_config(k, variant, fe_order, T, alpha=4.0):
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
    """One CLI invocation's worth of experiment parameters."""

    case: str
    variants: tuple
    k_min: int
    k_max: int
    alpha: float = 4.0
    T: float = 1.0
    fe_order: int = None
    out: str = None
    jobs: int = 1
    allow_large: bool = False

    def __post_init__(self):
        get_case(self.case)
        if not self.variants:
            raise ConfigurationError("at least one variant is required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigurationError(
                    f"unknown variant {v!r}; choose from {', '.join(VARIANTS)}"
                )
        if len(set(self.variants)) != len(self.variants):
            raise ConfigurationError("variants must not repeat")
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
        if self.fe_order is not None and self.fe_order not in (1, 2):
            raise ConfigurationError(f"order must be 1 or 2, got {self.fe_order}")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")

    @property
    def order(self):
        return self.fe_order if self.fe_order is not None else default_order(self.case)

    def scheme_config(self, k, variant):
        return level_config(k, variant, self.order, self.T, self.alpha)


def _run_one(exp, variant, k):
    case = get_case(exp.case)
    return run_with_errors(case, exp.scheme_config(k, variant), k=k)


def _sweep(exp, variants=None):
    """Run all (k, variant) pairs; results keyed in deterministic order.

    Returns ({variant: {k: ErrorReport}}, [(k, variant, exception), ...]).
    """
    variants = exp.variants if variants is None else variants
    # finest level first, so a pool does not end on one long level alone
    jobs = [(v, k) for k in range(exp.k_max, exp.k_min - 1, -1) for v in variants]
    results = {}
    failures = []
    if exp.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=exp.jobs) as pool:
            futures = [pool.submit(_run_one, exp, v, k) for v, k in jobs]
        outcomes = [fut.result for fut in futures]
    else:
        outcomes = [functools.partial(_run_one, exp, v, k) for v, k in jobs]
    for (v, k), outcome in zip(jobs, outcomes):
        try:
            results.setdefault(v, {})[k] = outcome()
        except Exception as exc:  # collected, reported in order below
            failures.append((k, v, exc))
    failures.sort(key=lambda item: (item[0], variants.index(item[1])))
    return results, failures


def _csv_base(path):
    return path[:-4] if path.endswith(".csv") else path


def _write_run_csv(path, report):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "dt", "h"] + list(ALL_QUANTITIES))
        writer.writerow(
            [report.k, repr(report.dt), repr(report.h)]
            + [repr(float(getattr(report, q))) for q in ALL_QUANTITIES]
        )


def _reported(quantities, order):
    """The quantities the tables carry, in their given order."""
    # the broken second-derivative sum carries no FE content for P1
    return tuple(q for q in quantities if order == 2 or q != "e_ggdus")


def _tables(reports, order):
    final = ConvergenceTable.from_reports(reports, _reported(FINAL_QUANTITIES, order))
    sums = ConvergenceTable.from_reports(reports, _reported(SUMMED_QUANTITIES, order))
    return final, sums


def cmd_run(exp):
    """Execute one (case, variant, level); print and optionally save it."""
    if len(exp.variants) != 1:
        raise ConfigurationError("run takes exactly one --variant")
    if exp.k_max != exp.k_min:
        raise ConfigurationError("run is a single-level command; use --kmin alone")
    case = get_case(exp.case)
    config = exp.scheme_config(exp.k_min, exp.variants[0])
    report = run_with_errors(case, config, k=exp.k_min)
    print(
        f"case={exp.case} variant={exp.variants[0]} k={exp.k_min} "
        f"dt={report.dt:g} nx={config.nx} order={exp.order}"
    )
    for q in ALL_QUANTITIES:
        print(f"  {q:8s} = {getattr(report, q):.6e}")
    if exp.out:
        _write_run_csv(exp.out, report)
        print(f"wrote {exp.out}")
    return report


def _print_tables(title, final, sums):
    print(title)
    print(final.format_text())
    print()
    print(sums.format_text())


def cmd_convergence(exp, variant=None):
    """Sweep kmin..kmax for one variant and emit final + sums tables."""
    if variant is None:
        if len(exp.variants) != 1:
            raise ConfigurationError("convergence takes exactly one --variant")
        variant = exp.variants[0]
    results, failures = _sweep(exp, variants=(variant,))
    reports = results.get(variant, {})
    if failures:
        if reports:
            final, sums = _tables(reports, exp.order)
            _print_tables(
                f"partial results ({exp.case}, {variant}): levels "
                f"{sorted(reports)} completed",
                final,
                sums,
            )
        k, v, exc = failures[0]
        raise RuntimeError(f"level k={k} ({v}) failed: {exc}") from exc
    final, sums = _tables(reports, exp.order)
    _print_tables(f"case={exp.case} variant={variant} order={exp.order}", final, sums)
    if exp.out:
        base = _csv_base(exp.out)
        final.to_csv(base + "_final.csv")
        sums.to_csv(base + "_sums.csv")
        print(f"wrote {base}_final.csv and {base}_sums.csv")
    return final, sums


def cmd_compare(exp):
    """Sweep the same levels under several variants; compare their orders."""
    if len(exp.variants) == 1:
        final, sums = cmd_convergence(exp)
        return {exp.variants[0]: (final, sums)}
    results, failures = _sweep(exp)
    if failures:
        k, v, exc = failures[0]
        raise RuntimeError(f"level k={k} ({v}) failed: {exc}") from exc
    out = {}
    base = _csv_base(exp.out) if exp.out else None
    for v in exp.variants:
        final, sums = _tables(results[v], exp.order)
        out[v] = (final, sums)
        _print_tables(f"case={exp.case} variant={v} order={exp.order}", final, sums)
        print()
        if base:
            final.to_csv(f"{base}_{v}_final.csv")
            sums.to_csv(f"{base}_{v}_sums.csv")
    orders = {v: {**final.orders, **sums.orders} for v, (final, sums) in out.items()}
    ks = list(range(exp.k_min, exp.k_max + 1))
    shown = ("e_u", "e_gdus", "e_gdu2s")
    print("observed orders by variant")
    header = ["k"] + [f"{v}:{q}" for q in shown for v in exp.variants]
    rows = []
    for i, k in enumerate(ks):
        vals = [orders[v][q][i] for q in shown for v in exp.variants]
        rows.append([str(k)] + ["-" if x != x else f"{x:.2f}" for x in vals])
    print(format_columns(header, rows))
    if base:
        quantities = _reported(ALL_QUANTITIES, exp.order)
        with open(f"{base}_orders.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k"] + [f"{v}_{q}_order" for v in exp.variants for q in quantities])
            for i, k in enumerate(ks):
                vals = [orders[v][q][i] for v in exp.variants for q in quantities]
                writer.writerow([k] + ["" if x != x else repr(float(x)) for x in vals])
        print(f"wrote {base}_orders.csv")
    return out


# ---------------------------------------------------------------------------
# argument handling

def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


_FILE_KEYS = {
    "case": str,
    "variant": str,
    "kmin": int,
    "kmax": int,
    "alpha": float,
    "T": float,
    "order": int,
    "out": str,
    "jobs": int,
    "large": lambda s: s.lower() in ("1", "true", "yes", "on"),
}


def _merge(args, file_values):
    def pick(flag_value, key, cast, default=None):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return cast(file_values[key])
        return default

    for key in file_values:
        if key not in _FILE_KEYS:
            raise ConfigurationError(f"unknown config file key {key!r}")
    variants = args.variant
    if variants is None and "variant" in file_values:
        variants = [v.strip() for v in file_values["variant"].split(",") if v.strip()]
    if variants is None:
        variants = ["improved"]
    k_min = pick(args.kmin, "kmin", int, 3)
    k_max = pick(args.kmax, "kmax", int, None)
    if k_max is None:
        k_max = k_min if args.command == "run" else max(k_min, 6)
    return ExperimentConfig(
        case=pick(args.case, "case", str, "example1"),
        variants=tuple(variants),
        k_min=k_min,
        k_max=k_max,
        alpha=pick(args.alpha, "alpha", float, 4.0),
        T=pick(args.T, "T", float, 1.0),
        fe_order=pick(args.order, "order", int),
        out=pick(args.out, "out", str),
        jobs=pick(args.jobs, "jobs", int, 1),
        allow_large=bool(args.large or _FILE_KEYS["large"](file_values.get("large", ""))),
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robinsplit",
        description="Interface-problem splitting schemes: runs and level sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "one case, one variant, one level"),
        ("convergence", "sweep levels for one variant and tabulate orders"),
        ("compare", "sweep levels for several variants side by side"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--case", choices=case_names(), default=None)
        p.add_argument(
            "--variant",
            action="append",
            default=None,
            help="scheme variant; repeat the flag under compare",
        )
        p.add_argument("--kmin", type=int, default=None, help="first level (default 3)")
        p.add_argument("--kmax", type=int, default=None, help="last level (default 6)")
        p.add_argument("--alpha", type=float, default=None, help="Robin parameter (default 4)")
        p.add_argument("--T", type=float, default=None, help="final time (default 1.0)")
        p.add_argument("--order", type=int, default=None, help="FE order 1 or 2 (default per case)")
        p.add_argument("--out", default=None, help="output CSV path (or path stem)")
        p.add_argument("--jobs", type=int, default=None, help="parallel level workers")
        p.add_argument("--config", default=None, help="key=value file; flags override it")
        p.add_argument("--large", action="store_true", help="admit levels 7 and 8")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (code 2) and on --help (code 0)
        return int(exc.code or 0)
    try:
        file_values = _read_config_file(args.config) if args.config else {}
        exp = _merge(args, file_values)
        if args.command == "run":
            cmd_run(exp)
        elif args.command == "convergence":
            cmd_convergence(exp)
        else:
            cmd_compare(exp)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0
