"""End-to-end acceptance checks for the convergence study.

Each test prints one verdict line with the measured numbers before asserting,
so a failing run still reports the full picture.  Reference rates and error
magnitudes are pinned from the benchmark tables this study reproduces; the
sweeps behind them live in session fixtures (see conftest).
"""

import math

import numpy as np

from robinsplit.fem import assemble_mass, assemble_stiffness
from robinsplit.linalg import factorize
from robinsplit.manufactured import case_example1, get_case
from robinsplit.schemes import (
    DiscreteState,
    Discretization,
    SchemeConfig,
    block_residuals,
    run,
    step_original,
    weak_residuals_original,
)

from conftest import STUDY_T, level_config
from oracles import (
    element_mass,
    element_stiffness,
    exact_field,
    weak_residuals_monolithic,
    zero_case,
    zs_functionals,
)


def _verdict(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _last_order(table, quantity):
    return table.orders[quantity][-1]


# -- acceptance 1: final-time rates of the improved scheme -------------------

EXPECTED_FINAL_ORDERS = {"e_u": 1.23, "e_du": 2.23, "e_dw": 2.33, "e_gdu": 2.22}


def test_final_time_rates_improved(compare_artifacts):
    table = compare_artifacts["final"]["improved"]
    got = {q: _last_order(table, q) for q in EXPECTED_FINAL_ORDERS}
    ok = all(abs(got[q] - ref) <= 0.3 for q, ref in EXPECTED_FINAL_ORDERS.items())
    runtime_ok = compare_artifacts["elapsed"] < 120.0
    _verdict(
        "acceptance 1",
        ok and runtime_ok,
        f"finest-level orders {({q: round(v, 2) for q, v in got.items()})} "
        f"vs {EXPECTED_FINAL_ORDERS} +-0.3; sweep took {compare_artifacts['elapsed']:.1f}s",
    )
    for q, ref in EXPECTED_FINAL_ORDERS.items():
        assert abs(got[q] - ref) <= 0.3, (q, got[q], ref)
    assert runtime_ok


# -- acceptance 2: summed-difference rates of the improved scheme ------------

EXPECTED_SUM_ORDERS = {"e_gdus": 1.72, "e_gdws": 1.73, "e_gdu2s": 2.76}

REFERENCE_SUM_VALUES = {
    "e_gdus": (7.37e-2, 4.07e-2, 1.53e-2, 4.64e-3),
    "e_gdws": (9.42e-2, 5.20e-2, 1.92e-2, 5.77e-3),
    "e_gdu2s": (4.58e-2, 1.18e-2, 2.09e-3, 3.08e-4),
}


def test_summed_rates_improved(compare_artifacts):
    table = compare_artifacts["sums"]["improved"]
    got = {q: _last_order(table, q) for q in EXPECTED_SUM_ORDERS}
    rate_ok = all(abs(got[q] - ref) <= 0.3 for q, ref in EXPECTED_SUM_ORDERS.items())

    monotone_ok = True
    for q in EXPECTED_SUM_ORDERS:
        orders = table.orders[q][1:]
        monotone_ok &= all(a < b for a, b in zip(orders, orders[1:]))

    value_ok = True
    for q, refs in REFERENCE_SUM_VALUES.items():
        for val, ref in zip(table.values[q], refs):
            value_ok &= ref / 3.0 <= val <= ref * 3.0

    _verdict(
        "acceptance 2",
        rate_ok and monotone_ok and value_ok,
        f"finest-level orders {({q: round(v, 2) for q, v in got.items()})} "
        f"vs {EXPECTED_SUM_ORDERS} +-0.3; monotone={monotone_ok}; within 3x={value_ok}",
    )
    for q, ref in EXPECTED_SUM_ORDERS.items():
        assert abs(got[q] - ref) <= 0.3, (q, got[q], ref)
    assert monotone_ok, {q: table.orders[q] for q in EXPECTED_SUM_ORDERS}
    assert value_ok, {q: table.values[q] for q in REFERENCE_SUM_VALUES}


# -- acceptance 3: quadratic elements, polynomial-in-time forcing ------------

def test_forced_polynomial_study(example2_reports):
    ks = sorted(example2_reports)
    e_du = [example2_reports[k].e_du for k in ks]
    e_gdu2s = [example2_reports[k].e_gdu2s for k in ks]
    du_order = math.log2(e_du[-2] / e_du[-1])
    gdu2s_order = math.log2(e_gdu2s[-2] / e_gdu2s[-1])
    ok = abs(du_order - 2.0) <= 0.15 and gdu2s_order >= 2.3
    _verdict(
        "acceptance 3",
        ok,
        f"e_du order {du_order:.2f} (want 2.0+-0.15), "
        f"e_gdu2s order {gdu2s_order:.2f} (want >= 2.3)",
    )
    assert abs(du_order - 2.0) <= 0.15, du_order
    assert gdu2s_order >= 2.3, gdu2s_order


# -- acceptance 4: quadratic elements, exponential-in-time forcing -----------

def test_forced_exponential_study(example3_reports):
    ks = sorted(example3_reports)
    e_u = [example3_reports[k].e_u for k in ks]
    e_gdu = [example3_reports[k].e_gdu for k in ks]
    e_gdu2s = [example3_reports[k].e_gdu2s for k in ks]
    u_order = math.log2(e_u[-2] / e_u[-1])
    gdu_order = math.log2(e_gdu[-2] / e_gdu[-1])
    gdu2s_order = math.log2(e_gdu2s[-2] / e_gdu2s[-1])
    ok = (
        abs(u_order - 1.0) <= 0.1
        and abs(gdu_order - 1.99) <= 0.15
        and gdu2s_order >= 2.6
    )
    _verdict(
        "acceptance 4",
        ok,
        f"e_u order {u_order:.2f} (want 1.0+-0.1), "
        f"e_gdu order {gdu_order:.2f} (want 1.99+-0.15), "
        f"e_gdu2s order {gdu2s_order:.2f} (want >= 2.6)",
    )
    assert abs(u_order - 1.0) <= 0.1, u_order
    # the start-up transient of this implementation carries more
    # gradient-energy than the reference data; the asymptote is the same
    # (values agree within 6 percent at the finest level) but the observed
    # order at k=6 still sits slightly above the window
    assert abs(gdu_order - 1.99) <= 0.15, gdu_order
    assert gdu2s_order >= 2.6, gdu2s_order


# -- acceptance 5: start-up repair shows in second-difference sums -----------

def test_start_up_contrast_between_schemes(compare_artifacts):
    original = _last_order(compare_artifacts["sums"]["original"], "e_gdu2s")
    improved = _last_order(compare_artifacts["sums"]["improved"], "e_gdu2s")
    gap = improved - original
    ok = gap >= 0.4
    _verdict(
        "acceptance 5",
        ok,
        f"e_gdu2s order original {original:.2f} vs improved {improved:.2f} "
        f"(gap {gap:.2f}, want >= 0.4)",
    )
    assert ok, (original, improved)


# -- acceptance 6: discrete energy identity ----------------------------------
#
# With zero forcing and zero boundary data every step of the original
# splitting satisfies Z(next) + S(next) = Z(prev) exactly, so the defect is
# pure rounding.  `pytest tests/test_acceptance.py -k energy -s` prints it.

def test_energy_identity_random_states():
    case = zero_case()
    config = SchemeConfig(dt=1.0 / 16.0, T=STUDY_T, nx=4)
    disc = Discretization(config, case)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=disc.fluid.ndof)
        w = rng.normal(size=disc.solid.ndof)
        u[disc.fluid.dirichlet_mask] = 0.0
        w[disc.solid.dirichlet_mask] = 0.0
        cur = DiscreteState(n=0, u=u, w=w, lam=rng.normal(size=disc.n_sig))
        for _ in range(config.n_steps):
            prev, cur = cur, step_original(cur, disc)
            z1, s1 = zs_functionals(
                solid=(cur.w, prev.w),
                fluid=(cur.u, prev.u),
                trace=(cur.lam, prev.lam),
                alpha=config.alpha,
                dt=config.dt,
                disc=disc,
            )
            z0, _ = zs_functionals(
                solid=(prev.w, prev.w),
                fluid=(prev.u, prev.u),
                trace=(prev.lam, prev.lam),
                alpha=config.alpha,
                dt=config.dt,
                disc=disc,
            )
            worst = max(worst, abs(z1 + s1 - z0) / z0)
    ok = worst <= 1e-10
    _verdict("acceptance 6", ok, f"worst relative energy defect {worst:.2e} (want <= 1e-10)")
    assert ok, worst


# -- acceptance 7: weak residuals of every accepted step ----------------------

def test_weak_residuals_every_step_every_variant():
    worst = {}
    case = case_example1()
    for variant in ("original", "improved", "monolithic"):
        config = level_config(3, variant, 1, STUDY_T)
        disc = Discretization(config, case)
        states = list(run(case, config))
        records = []
        start = 0
        if variant == "improved":
            records.extend(block_residuals(states[1:4], case, config, disc).values())
            start = 3
        check = weak_residuals_monolithic if variant == "monolithic" else weak_residuals_original
        for prev, cur in zip(states[start:], states[start + 1 :]):
            res = check(prev, cur, disc)
            records.extend(res.values())
        worst[variant] = max(records)

    # a forced quadratic-element run exercises the load paths too
    case3 = get_case("example3")
    config = SchemeConfig(dt=1.0 / 16.0, T=STUDY_T, nx=8, fe_order=2, variant="improved")
    disc = Discretization(config, case3)
    states = list(run(case3, config))
    records = list(block_residuals(states[1:4], case3, config, disc).values())
    for prev, cur in zip(states[3:], states[4:]):
        records.extend(weak_residuals_original(prev, cur, disc).values())
    worst["improved_p2_forced"] = max(records)

    bad = {k: v for k, v in worst.items() if v > 1e-9}
    _verdict(
        "acceptance 7",
        not bad,
        "worst residual by variant "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (want <= 1e-9)",
    )
    assert not bad, worst


# -- acceptance 8: agreement with the monolithic oracle -----------------------

def test_split_tracks_monolithic_oracle(compare_artifacts, monolithic_reports):
    ks = sorted(monolithic_reports)
    mono_e_u = [monolithic_reports[k].e_u for k in ks]
    orders = [math.log2(a / b) for a, b in zip(mono_e_u, mono_e_u[1:])]
    orders_ok = all(abs(o - 1.0) <= 0.1 for o in orders)

    improved = compare_artifacts["final"]["improved"]
    ratios = {}
    for q in ("e_u", "e_du", "e_dw", "e_gdu"):
        split_vals = improved.values[q][: len(ks)]
        mono_vals = [getattr(monolithic_reports[k], q) for k in ks]
        ratios[q] = [s / m for s, m in zip(split_vals, mono_vals)]
    ratio_ok = all(r <= 5.0 for r in ratios["e_u"])

    _verdict(
        "acceptance 8",
        orders_ok and ratio_ok,
        f"oracle e_u orders {[round(o, 2) for o in orders]} (want 1.0+-0.1); "
        f"split/oracle e_u ratios {[round(r, 2) for r in ratios['e_u']]} (want <= 5); "
        "other ratios "
        + ", ".join(f"{q}={[round(r, 2) for r in v]}" for q, v in ratios.items() if q != "e_u"),
    )
    # the backward-Euler error of the decaying mode is still pre-asymptotic
    # at these step sizes: even the exact time-discrete evolution (closed
    # form) gives orders 1.21 and 1.16 here, so the window below is only
    # reachable at finer levels than this suite runs (checked by the next test)
    assert orders_ok, orders
    assert ratio_ok, ratios["e_u"]


def test_monolithic_orders_follow_closed_form_backward_euler(monolithic_reports):
    # example1 is one decaying mode exp(-lam t) with lam = 2 pi^2; backward
    # Euler multiplies it by 1 / (1 + lam dt) per step, so its exact
    # time-discrete error at T is |(1 + lam dt)^(-T/dt) - exp(-lam T)| times
    # the mode's norm, and the monolithic e_u orders should follow its orders
    lam = 2 * math.pi**2
    ks = sorted(monolithic_reports)

    def closed_form(k):
        dt = level_config(k, "monolithic", 1, STUDY_T).dt
        return abs((1 + lam * dt) ** (-STUDY_T / dt) - math.exp(-lam * STUDY_T))

    def orders(values):
        return [math.log2(a / b) for a, b in zip(values, values[1:])]

    exact = orders([closed_form(k) for k in ks])
    measured = orders([monolithic_reports[k].e_u for k in ks])
    ok = all(abs(m - e) <= 0.05 for m, e in zip(measured, exact))
    _verdict(
        "acceptance 8 evidence",
        ok,
        f"monolithic e_u orders {[round(o, 3) for o in measured]}, closed-form "
        f"backward-Euler orders {[round(o, 3) for o in exact]} (want within 0.05)",
    )
    assert ok, (measured, exact)


# -- acceptance 9: cross-checks of the numerical kernels ----------------------

def test_unit_suite_cross_checks():
    from robinsplit.fem import FeSpace
    from robinsplit.mesh import build_two_domain_mesh

    mesh = build_two_domain_mesh(4, 0.75)
    checks = {}

    fluid = FeSpace(mesh, "fluid", 1)
    solid = FeSpace(mesh, "solid", 2)
    checks["mass_area"] = max(
        abs(assemble_mass(fluid).sum() - 0.75), abs(assemble_mass(solid).sum() - 0.25)
    )
    checks["stiffness_nullspace"] = float(
        np.max(np.abs(assemble_stiffness(fluid) @ np.ones(fluid.ndof)))
    )

    h = 0.5
    coords = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    mass_ref = (h * h / 24.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    stiff_ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    checks["element_mass"] = float(np.max(np.abs(element_mass(coords, 1) - mass_ref)))
    checks["element_stiffness"] = float(
        np.max(np.abs(element_stiffness(coords, 1) - stiff_ref))
    )

    worst_pde = 0.0
    rng = np.random.default_rng(123)
    for name in ("example1", "example2", "example3"):
        case = get_case(name)
        hess_u = exact_field(case, "hess_u0")
        dt_u = exact_field(case, "u0", "time_derivative")
        f_f = exact_field(case, "f_f0", "forcing_factor")
        for _ in range(20):
            t = rng.uniform(0.0, 1.0)
            x = rng.uniform(size=2)
            lap = hess_u(t, x)[0, 0] + hess_u(t, x)[1, 1]
            worst_pde = max(worst_pde, abs(dt_u(t, x) - case.nu_f * lap - f_f(t, x)))
    checks["pde_consistency"] = worst_pde

    g = rng.normal(size=(50, 50))
    a = g @ g.T + 50.0 * np.eye(50)
    b = rng.normal(size=50)
    import scipy.sparse as sp

    checks["solver_vs_dense"] = float(
        np.max(np.abs(factorize(sp.csr_matrix(a)).solve(b) - np.linalg.solve(a, b)))
    )

    limits = {
        "mass_area": 1e-12,
        "stiffness_nullspace": 1e-12,
        "element_mass": 1e-15,
        "element_stiffness": 1e-14,
        "pde_consistency": 1e-10,
        "solver_vs_dense": 1e-10,
    }
    bad = {k: v for k, v in checks.items() if v > limits[k]}
    _verdict(
        "acceptance 9",
        not bad,
        ", ".join(f"{k}={v:.1e}" for k, v in checks.items()),
    )
    assert not bad, bad
