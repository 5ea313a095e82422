import dataclasses
import math

import numpy as np
import pytest

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
    zs_functionals,
)
from robinsplit.errors import ConfigurationError
from robinsplit.fem import interpolate, interpolate_interface, l2_error
from robinsplit.manufactured import case_example1, get_case
from robinsplit.schemes import (
    DiscreteState,
    SchemeConfig,
    build_discretization,
    run,
)

from oracles import final_time_errors, summed_errors


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
    return build_discretization(SchemeConfig(nx=nx, **kw))


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
    base = case_example1()

    def u(t, x):
        return (1.0 + t) * (x[..., 0] + 2.0 * x[..., 1] - 0.3)

    def grad(t, x):
        g = np.empty(x.shape)
        g[..., 0] = 1.0 + t
        g[..., 1] = 2.0 * (1.0 + t)
        return g

    def hess(t, x):
        return np.zeros(x.shape[:-1] + (2, 2))

    def l_exact(t, x1):
        return np.full(np.shape(x1), 2.0 * (1.0 + t))

    return dataclasses.replace(
        base,
        u_exact=u,
        w_exact=u,
        grad_u=grad,
        grad_w=grad,
        hess_u=hess,
        hess_w=hess,
        l_exact=l_exact,
    )


def _interpolant_trajectory(case, config, disc):
    states = []
    for n in range(config.n_steps + 1):
        t = n * config.dt
        states.append(
            DiscreteState(
                n=n,
                u=interpolate(disc.fluid, case.u_exact, t),
                w=interpolate(disc.solid, case.w_exact, t),
                lam=interpolate_interface(disc.fluid, case.l_exact, t),
            )
        )
    return states


def test_exact_interpolant_trajectory_has_zero_errors():
    case = _linear_case()
    config = SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=4)
    disc = build_discretization(config)
    states = _interpolant_trajectory(case, config, disc)
    finals = final_time_errors(states, case, disc)
    sums = summed_errors(states, case, disc)
    for q in FINAL_QUANTITIES:
        assert getattr(finals, q) <= 1e-12, q
    for q in SUMMED_QUANTITIES:
        assert getattr(sums, q) <= 1e-12, q


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
    disc = build_discretization(config)
    streamed = run_with_errors(case, config, disc=disc, k=4)
    states = list(run(case, config, disc=disc))
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
    disc = build_discretization(config)
    states = list(run(case, config, disc=disc))
    report = final_time_errors(states, case, disc)
    n = config.n_steps
    e_u_last = l2_error(disc.fluid, states[n - 1].u, case.u_exact, config.T - config.dt)
    assert report.e_du <= report.e_u + e_u_last + 1e-12


def test_accumulator_rejects_level_gaps():
    case = case_example1()
    config = SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=4)
    disc = build_discretization(config)
    acc = ErrorAccumulator(case, disc, config.dt, config.n_steps)
    zero = lambda n: DiscreteState(
        n=n,
        u=np.zeros(disc.fluid.ndof),
        w=np.zeros(disc.solid.ndof),
        lam=np.zeros(disc.n_sig),
    )
    acc.observe(zero(0))
    with pytest.raises(ConfigurationError):
        acc.observe(zero(2))


def test_accumulator_rejects_non_separable_case():
    # the linear case keeps example1's time factor, which does not scale it
    case = dataclasses.replace(case_example1(), grad_u=_linear_case().grad_u)
    config = SchemeConfig(dt=1.0 / 16.0, T=0.25, nx=4)
    disc = build_discretization(config)
    with pytest.raises(ConfigurationError, match="grad_u"):
        ErrorAccumulator(case, disc, config.dt, config.n_steps)


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
    back = ConvergenceTable.read_csv(path)
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
