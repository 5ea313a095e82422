import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from robinsplit import diagnostics, fem, linalg
from robinsplit.cli import level_config
from robinsplit.diagnostics import (
    ALL_QUANTITIES,
    FINAL_QUANTITIES,
    SUMMED_QUANTITIES,
    ConvergenceTable,
    ErrorAccumulator,
    ErrorReport,
    convergence_orders,
    format_columns,
    run_with_errors,
)
from robinsplit.errors import ConfigurationError
from robinsplit.fem import interpolate, interpolate_interface
from robinsplit.manufactured import case_example1, get_case
from robinsplit.schemes import (
    DiscreteState,
    Discretization,
    SchemeConfig,
    run,
)

from oracles import (
    exact_field,
    final_time_errors,
    l2_error,
    read_csv,
    summed_errors,
    track_startup_factors,
    zs_functionals,
)


def test_quantity_partition():
    assert FINAL_QUANTITIES == ("e_u", "e_du", "e_dw", "e_gdu")
    assert SUMMED_QUANTITIES == ("e_gdus", "e_gdws", "e_gdu2s", "e_dls", "e_ggdus")
    assert ALL_QUANTITIES == FINAL_QUANTITIES + SUMMED_QUANTITIES


# -- convergence orders -----------------------------------------------------

def test_orders_exact_ratio():
    orders = convergence_orders([4e-2, 1e-2])
    assert math.isnan(orders[0])
    assert orders[1] == 2.0


def test_orders_match_published_rows():
    # spot ratios taken from tabulated convergence data; the printed orders
    # were computed from unrounded values, so allow one unit in the last digit
    assert abs(convergence_orders([7.35e-5, 1.72e-5])[1] - 2.09) < 0.011
    assert abs(convergence_orders([4.09e-5, 5.03e-6])[1] - 3.02) < 0.011


def test_orders_handle_degenerate_values():
    orders = convergence_orders([1e-2, 0.0, 5e-3, None])
    assert math.isnan(orders[1]) and math.isnan(orders[2]) and math.isnan(orders[3])
    assert len(orders) == 4


# -- Z and S functionals ----------------------------------------------------

def _disc(nx=4, **kw):
    kw.setdefault("dt", 1.0 / 16.0)
    kw.setdefault("T", 0.25)
    return Discretization(SchemeConfig(nx=nx, **kw), case_example1())


def test_zs_zero_fields():
    disc = _disc()
    zeros_f = np.zeros(disc.fluid.ndof)
    zeros_s = np.zeros(disc.solid.ndof)
    zeros_t = np.zeros(disc.n_sig)
    z, s = zs_functionals(
        solid=(zeros_s, zeros_s),
        fluid=(zeros_f, zeros_f),
        trace=(zeros_t, zeros_t),
        alpha=4.0,
        dt=0.1,
        disc=disc,
    )
    assert z == 0.0 and s == 0.0


def test_zs_unit_fluid_field():
    disc = _disc()
    ones_f = np.ones(disc.fluid.ndof)
    zeros_s = np.zeros(disc.solid.ndof)
    zeros_t = np.zeros(disc.n_sig)
    z, s = zs_functionals(
        solid=(zeros_s, zeros_s),
        fluid=(ones_f, ones_f),
        trace=(zeros_t, zeros_t),
        alpha=4.0,
        dt=0.1,
        disc=disc,
    )
    # 0.5 * area + (dt * alpha / 2) * interface length
    assert abs(z - 0.575) < 1e-13
    # constant in space and time: no gradients, no increments
    assert abs(s) < 1e-13


def test_zs_quadratic_scaling():
    disc = _disc()
    rng = np.random.default_rng(8)
    psi = (rng.normal(size=disc.solid.ndof), rng.normal(size=disc.solid.ndof))
    phi = (rng.normal(size=disc.fluid.ndof), rng.normal(size=disc.fluid.ndof))
    theta = (rng.normal(size=disc.n_sig), rng.normal(size=disc.n_sig))
    kw = dict(alpha=4.0, dt=0.05, disc=disc)
    z1, s1 = zs_functionals(solid=psi, fluid=phi, trace=theta, **kw)
    z2, s2 = zs_functionals(
        solid=(2 * psi[0], 2 * psi[1]),
        fluid=(2 * phi[0], 2 * phi[1]),
        trace=(2 * theta[0], 2 * theta[1]),
        **kw,
    )
    # scaling by a power of two is exact in floating point
    assert z2 == 4.0 * z1
    assert s2 == 4.0 * s1


# -- error reports from trajectories ----------------------------------------

def _linear_case():
    # (1 + t) times a linear profile: every FE space reproduces it exactly
    def u0(x):
        return x[..., 0] + 2.0 * x[..., 1] - 0.3

    def grad0(x):
        return np.broadcast_to([1.0, 2.0], x.shape).copy()

    def hess0(x):
        return np.zeros(x.shape[:-1] + (2, 2))

    def l0(x1):
        return np.full(np.shape(x1), 2.0)

    return dataclasses.replace(
        case_example1(),
        u0=u0,
        w0=u0,
        grad_u0=grad0,
        grad_w0=grad0,
        hess_u0=hess0,
        l0=l0,
        time_factor=lambda t: 1.0 + t,
        time_derivative=lambda t: 1.0,
    )


def _interpolant_trajectory(case, config, disc):
    u, w, l = (exact_field(case, p) for p in ("u0", "w0", "l0"))
    states = []
    for n in range(config.n_steps + 1):
        t = n * config.dt
        states.append(
            DiscreteState(
                n=n,
                u=interpolate(disc.fluid, partial(u, t)),
                w=interpolate(disc.solid, partial(w, t)),
                lam=interpolate_interface(disc.fluid, partial(l, t)),
            )
        )
    return states


def test_exact_interpolant_trajectory_has_zero_errors():
    case = _linear_case()
    config = SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=4)
    disc = Discretization(config, case)
    states = _interpolant_trajectory(case, config, disc)
    finals = final_time_errors(states, case, disc)
    sums = summed_errors(states, case, disc)
    acc = ErrorAccumulator(disc)
    for state in states:
        acc.observe(state)
    streamed = acc.report()
    for q in FINAL_QUANTITIES:
        assert getattr(finals, q) <= 1e-12, q
        assert getattr(streamed, q) <= 1e-12, q
    for q in SUMMED_QUANTITIES:
        assert getattr(sums, q) <= 1e-12, q
        assert getattr(streamed, q) <= 1e-12, q


@pytest.mark.parametrize(
    "case_name,fe_order,nx",
    [("example1", 1, 8), ("example3", 2, 8), ("example3", 2, 32)],
    # the finer P2 case pins the precision of differencing coefficients
    # first: differencing O(1) quadrature-point errors missed it at 5.6e-12
    ids=["example1-1", "example3-2", "example3-2-nx32"],
)
def test_streaming_matches_batch(case_name, fe_order, nx):
    case = get_case(case_name)
    config = SchemeConfig(
        dt=1.0 / 32.0, T=0.25, nx=nx, fe_order=fe_order, variant="improved"
    )
    streamed = run_with_errors(case, config, k=4)
    disc = Discretization(config, case)
    states = list(run(disc))
    finals = final_time_errors(states, case, disc)
    sums = summed_errors(states, case, disc)
    for q in FINAL_QUANTITIES:
        a, b = getattr(streamed, q), getattr(finals, q)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), q
    for q in SUMMED_QUANTITIES:
        a, b = getattr(streamed, q), getattr(sums, q)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), q
    assert streamed.k == 4
    assert streamed.dt == config.dt
    assert streamed.h == 1.0 / nx


def test_final_time_triangle_inequality():
    case = case_example1()
    config = SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=16)
    disc = Discretization(config, case)
    states = list(run(disc))
    report = final_time_errors(states, case, disc)
    n = config.n_steps
    e_u_last = l2_error(
        disc.fluid, states[n - 1].u, exact_field(case, "u0"), config.T - config.dt
    )
    assert report.e_du <= report.e_u + e_u_last + 1e-12


def test_accumulator_rejects_level_gaps():
    case = case_example1()
    config = SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=4)
    disc = Discretization(config, case)
    acc = ErrorAccumulator(disc)
    zero = lambda n: DiscreteState(
        n=n,
        u=np.zeros(disc.fluid.ndof),
        w=np.zeros(disc.solid.ndof),
        lam=np.zeros(disc.n_sig),
    )
    acc.observe(zero(0))
    with pytest.raises(ConfigurationError):
        acc.observe(zero(2))


@pytest.mark.parametrize("case_name,fe_order", [("example1", 1), ("example3", 2)])
def test_chunk_size_does_not_change_quantities(monkeypatch, case_name, fe_order):
    # nx = 8: 96 fluid cells, so chunks of 7 leave a remainder; measured
    # 1.4e-16 (P1) and 2.4e-16 (P2), from the order of the chunk sums
    case = get_case(case_name)
    config = SchemeConfig(dt=1.0 / 32.0, T=0.25, nx=8, fe_order=fe_order, variant="improved")
    want = run_with_errors(case, config)
    monkeypatch.setattr(fem, "CHUNK_CELLS", 7)
    got = run_with_errors(case, config)
    for q in ALL_QUANTITIES:
        a, b = getattr(got, q), getattr(want, q)
        assert abs(a - b) <= 1e-13 * max(abs(a), abs(b)), q


def test_derivative_norms_built_after_startup(monkeypatch):
    # the norms are built at level 2, when the start-up's factors are dead
    factors = track_startup_factors(monkeypatch)
    alive_at_build = []
    norm = diagnostics._DerivativeNorm

    def checked(*args):
        alive_at_build.append(sum(ref() is not None for ref in factors))
        return norm(*args)

    monkeypatch.setattr(diagnostics, "_DerivativeNorm", checked)
    case = get_case("example3")
    config = level_config(3, "improved", 2, 0.25)
    disc = Discretization(config, case)
    acc = ErrorAccumulator(disc)
    for state in run(disc):
        acc.observe(state)
        assert (acc._norms is None) == (state.n < 2), state.n
    assert len(factors) == 5
    assert alive_at_build == [0, 0, 0]


FACTOR_KINDS = [
    ("original", ["robin"] * 2),
    ("monolithic", ["monolithic"] * 2),
    ("improved", ["startup"] * 5 + ["robin"] * 2),
]


@pytest.mark.parametrize("variant, kinds", FACTOR_KINDS)
def test_run_steps_the_disc_it_is_given(variant, kinds):
    # the run builds its factors on the disc it is handed and records them
    # there, and its states are the ones run_with_errors reports on
    case = get_case("example1")
    config = level_config(3, variant, 1, 0.25)
    disc = Discretization(config, case)
    acc = ErrorAccumulator(disc)
    for state in run(disc):
        acc.observe(state)
    assert [f["kind"] for f in disc.factors] == kinds
    assert (disc.startup is not None) == (variant == "improved")
    assert acc.report(k=3).values() == run_with_errors(case, config, k=3).values()


@pytest.mark.parametrize("variant, kinds", FACTOR_KINDS)
def test_report_records_factors_and_startup(monkeypatch, variant, kinds):
    built = []
    factorize = linalg.factorize

    def kept(matrix, **options):
        built.append(factorize(matrix, **options))
        return built[-1]

    monkeypatch.setattr(linalg, "factorize", kept)
    case = get_case("example1")
    config = level_config(3, variant, 1, 0.25)
    report = run_with_errors(case, config, k=3)
    assert [f["kind"] for f in report.factors] == kinds
    for record, fact in zip(report.factors, built, strict=True):
        assert record["nnz_lu"] == fact._lu.nnz
        assert record["nnz_lu"] >= record["nnz_a"] >= record["n"] > 0, record
        assert record["seconds"] > 0
    disc = Discretization(config, case)
    robin = [f["n"] for f in report.factors if f["kind"] == "robin"]
    assert robin in ([], [disc.free_f.size, disc.free_s.size])  # the fluid first
    assert disc.free_f.size > disc.free_s.size
    if variant != "improved":
        assert report.startup is None
        return
    assert report.startup["unknowns"] == 3 * (disc.fluid.ndof + disc.solid.ndof + disc.n_sig)
    assert report.startup["seconds"] > 0
    gmres = report.startup["gmres"]
    assert gmres["applications"] == gmres["iterations"] + gmres["restarts"] + 1


def test_p1_run_computes_no_hessians():
    # example3 is forced, so its loads build quadrature tables too
    disc = Discretization(SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=8), get_case("example3"))
    acc = ErrorAccumulator(disc)
    for state in run(disc):
        acc.observe(state)
    acc.report()
    for space in (disc.fluid, disc.solid):
        assert "_hessians" not in vars(space), space.subdomain


def test_report_values_mapping():
    report = ErrorReport(dt=0.1, h=0.1, e_u=1.0)
    vals = report.values()
    assert vals["e_u"] == 1.0
    assert vals["e_gdus"] is None
    assert set(vals) == set(ALL_QUANTITIES)


# -- convergence tables -----------------------------------------------------

def _fake_reports():
    return {
        3: ErrorReport(dt=1.0 / 16, h=1.0 / 16, k=3, e_u=4e-2, e_du=8e-3),
        4: ErrorReport(dt=1.0 / 32, h=1.0 / 32, k=4, e_u=1e-2, e_du=2e-3),
    }


def test_table_from_reports():
    table = ConvergenceTable.from_reports(_fake_reports(), ("e_u", "e_du"))
    assert table.ks == (3, 4)
    assert table.values["e_u"] == [4e-2, 1e-2]
    assert math.isnan(table.orders["e_u"][0])
    assert table.orders["e_u"][1] == 2.0


def test_table_csv_round_trip(tmp_path):
    table = ConvergenceTable.from_reports(_fake_reports(), ("e_u", "e_du"))
    path = tmp_path / "table.csv"
    table.to_csv(path)
    back = read_csv(path)
    assert back.ks == table.ks
    assert back.quantities == table.quantities
    for q in table.quantities:
        assert back.values[q] == table.values[q]  # repr round-trips exactly
        assert back.orders[q][1] == table.orders[q][1]
        assert math.isnan(back.orders[q][0])
    header = path.read_text().splitlines()[0]
    assert header == "k,e_u,e_u_order,e_du,e_du_order"


def test_table_text_format():
    table = ConvergenceTable.from_reports(_fake_reports(), ("e_u",))
    text = table.format_text()
    lines = text.splitlines()
    assert lines[0].split() == ["k", "e_u", "order"]
    assert "4.00e-02" in lines[1]
    assert lines[1].split()[-1] == "-"
    assert lines[2].split()[-1] == "2.00"


def test_format_columns_right_justifies():
    text = format_columns(["a", "bbb"], [["10", "x"], ["2", "yyyy"]])
    assert text == " a   bbb\n10     x\n 2  yyyy"
