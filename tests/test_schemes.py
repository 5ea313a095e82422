import dataclasses
import math
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from robinsplit import fem, linalg, schemes
from robinsplit.cli import level_config
from robinsplit.errors import ConfigurationError, SingularSystemError
from robinsplit.fem import assemble_load, interpolate
from robinsplit.manufactured import (
    case_example1,
    case_example2,
    case_example3,
    default_order,
    get_case,
)
from robinsplit.schemes import (
    VARIANTS,
    DiscreteState,
    Discretization,
    SchemeConfig,
    block_residuals,
    initialize,
    run,
    solve_first_block_improved,
    step_monolithic,
    step_original,
    weak_residuals_original,
)

from oracles import (
    exact_field,
    field_rows_bmat,
    first_block_reference,
    first_step_loads_pointwise,
    l2_error,
    lifted_interface_matrix,
    sigma_l2_error,
    track_startup_factors,
    two_domain_mesh_loops,
    weak_residuals_monolithic,
    zero_case,
    zs_functionals,
)


def _config(nx=4, variant="original", **kw):
    kw.setdefault("dt", 1.0 / 16.0)
    kw.setdefault("T", 0.25)
    return SchemeConfig(nx=nx, variant=variant, **kw)


def _zero_state(disc):
    return DiscreteState(
        n=0,
        u=np.zeros(disc.fluid.ndof),
        w=np.zeros(disc.solid.ndof),
        lam=np.zeros(disc.n_sig),
    )


def _random_homogeneous_state(disc, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=disc.fluid.ndof)
    w = rng.normal(size=disc.solid.ndof)
    u[disc.fluid.dirichlet_mask] = 0.0
    w[disc.solid.dirichlet_mask] = 0.0
    return DiscreteState(n=0, u=u, w=w, lam=rng.normal(size=disc.n_sig))


# -- configuration ----------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.25, T=0.5, nx=4)  # only two steps
    with pytest.raises(ConfigurationError):
        SchemeConfig(dt=0.1, T=0.25, nx=4)  # not an integer count
    with pytest.raises(ConfigurationError):
        _config(variant="magic")
    with pytest.raises(ConfigurationError):
        _config(fe_order=3)
    with pytest.raises(ConfigurationError):
        _config(alpha=0.0)


@pytest.mark.parametrize("field", ["dt", "T", "alpha"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite and positive"):
        _config(**{field: value})


def test_config_step_count():
    assert _config().n_steps == 4
    assert SchemeConfig(dt=0.125, T=1.0, nx=8).n_steps == 8


def test_config_step_ceiling():
    # the largest study, k = 8 at T = 1, is admitted; one step more than
    # the ceiling is refused by count, and building a config runs nothing
    assert level_config(8, "improved", 2, 1.0).n_steps == 512
    assert SchemeConfig(dt=1.0, T=schemes.MAX_STEPS, nx=4).n_steps == schemes.MAX_STEPS
    with pytest.raises(ConfigurationError, match="= 65537 steps, more than MAX_STEPS"):
        SchemeConfig(dt=1.0, T=schemes.MAX_STEPS + 1, nx=4)


# -- initialization ---------------------------------------------------------

def test_initialize_interpolates_data():
    case = case_example1()
    config = _config()
    disc = Discretization(config, case)
    state = initialize(disc)
    assert state.n == 0
    # u0 vanishes along x1 = 0.5
    mid = np.isclose(disc.fluid.dof_coords[:, 0], 0.5)
    assert np.max(np.abs(state.u[mid])) < 1e-15
    # flux at the left end of the interface
    left = np.argmin(disc.fluid.dof_coords[disc.fluid.interface_dofs, 0])
    assert abs(state.lam[left] - (-math.pi * math.sqrt(2.0) / 2.0)) < 1e-12
    assert np.all(state.u[disc.fluid.dirichlet_mask] == 0.0)
    assert np.all(state.w[disc.solid.dirichlet_mask] == 0.0)


def test_initialize_zero_case():
    config = _config()
    case = zero_case()
    disc = Discretization(config, case)
    state = initialize(disc)
    assert not state.u.any() and not state.w.any() and not state.lam.any()


# -- single steps -----------------------------------------------------------

def test_zero_state_steps_to_zero():
    case = zero_case()
    config = _config()
    disc = Discretization(config, case)
    nxt = step_original(_zero_state(disc), disc)
    assert not nxt.u.any() and not nxt.w.any() and not nxt.lam.any()
    mono = step_monolithic(_zero_state(disc), disc)
    assert not mono.u.any() and not mono.w.any() and not mono.lam.any()


def test_zero_data_block_solution_is_zero():
    case = zero_case()
    config = _config(variant="improved")
    disc = Discretization(config, case)
    states = solve_first_block_improved(case, config, disc)
    for s in states:
        assert not s.u.any() and not s.w.any() and not s.lam.any()
    # scipy returns on a zero right-hand side before any product
    gmres = disc.startup["gmres"]
    assert (gmres["iterations"], gmres["applications"], gmres["restarts"]) == (0, 0, 0)
    assert gmres["residuals"] == []


def test_original_step_residuals():
    case = case_example1()
    config = _config(nx=8, dt=0.0625, T=0.25)
    disc = Discretization(config, case)
    prev = initialize(disc)
    for _ in range(config.n_steps):
        state = step_original(prev, disc)
        res = weak_residuals_original(prev, state, disc)
        assert res["solid"] < 1e-9
        assert res["fluid"] < 1e-9
        assert res["flux"] < 1e-9
        prev = state


def test_forced_case_residuals():
    case = case_example3()
    config = _config(nx=4, fe_order=2)
    disc = Discretization(config, case)
    prev = initialize(disc)
    state = step_original(prev, disc)
    res = weak_residuals_original(prev, state, disc)
    assert max(res.values()) < 1e-9


def test_block_solution_residuals():
    for name in ("example1", "example3"):
        case = get_case(name)
        config = _config(nx=8, dt=0.0625, T=0.25, variant="improved")
        disc = Discretization(config, case)
        states = solve_first_block_improved(case, config, disc)
        res = block_residuals(states, case, config, disc)
        assert len(res) == 9
        worst = max(res.values())
        assert worst < 1e-9, (name, res)


def test_monolithic_step_residuals():
    case = case_example2()
    config = _config(nx=4, variant="monolithic", fe_order=2)
    disc = Discretization(config, case)
    prev = initialize(disc)
    state = step_monolithic(prev, disc)
    res = weak_residuals_monolithic(prev, state, disc)
    assert res["coupled"] < 1e-9
    assert res["flux"] < 1e-9


def test_block_dimension_layout():
    config = _config(nx=8, dt=0.0625, T=0.25, variant="improved")
    disc = Discretization(config, case_example1())
    startup = disc.first_block_factorization()
    dim_s, dim_f, n_sig = disc.solid.ndof, disc.fluid.ndof, disc.n_sig
    assert dim_f == 9 * 7 and dim_s == 9 * 3 and n_sig == 9
    # three levels of interior dofs per field, the interface set Gamma, and
    # three levels of Dirichlet dofs per field, which are dropped
    interior = 3 * sum(f.interior.size for f in startup.fields)
    dirichlet = 3 * int(disc.solid.dirichlet_mask.sum() + disc.fluid.dirichlet_mask.sum())
    assert startup.gamma.shape == (9 * n_sig, 9 * n_sig)
    assert interior + 9 * n_sig + dirichlet == 3 * dim_s + 3 * dim_f + 3 * n_sig
    for field, space in zip(startup.fields, (disc.solid, disc.fluid)):
        assert not space.dirichlet_mask[field.interior].any()
        assert not space.dirichlet_mask[field.trace].any()
        assert np.intersect1d(field.interior, field.trace).size == 0


@pytest.mark.parametrize(
    "name, order, nu_f, nu_s",
    [
        pytest.param(
            name, order, nu_f, nu_s,
            id=f"{name}-{order}" + ("" if nu_f == nu_s == 1 else f"-nu_f={nu_f}-nu_s={nu_s}"),
        )
        for name, order in (("example1", 1), ("example3", 2))
        for nu_f, nu_s in ((1, 1), (0.01, 1), (0.001, 1), (1, 0.01), (0.01, 0.01), (0.001, 0.001))
    ],
)
def test_startup_matches_nine_block_lu(name, order, nu_f, nu_s):
    case = dataclasses.replace(get_case(name), nu_f=nu_f, nu_s=nu_s)
    config = level_config(3, "improved", order, 0.25)
    disc = Discretization(config, case)
    if nu_f == nu_s == 0.001:
        # GMRES stalls near a relative residual of 5e-13, above GMRES_RTOL,
        # and the start-up takes its documented exit (ROADMAP item 1: why the
        # improved start-up fails at small diffusivity)
        with pytest.raises(SingularSystemError, match="GMRES did not converge"):
            solve_first_block_improved(case, config, disc)
        return
    got = solve_first_block_improved(case, config, disc)
    want = first_block_reference(disc)
    for g, w in zip(got, want, strict=True):
        assert g.n == w.n
        for field in ("u", "w", "lam"):
            a, b = getattr(g, field), getattr(w, field)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b), (g.n, field)


def _assert_same_csr(got, want, label):
    assert got.shape == want.shape, label
    for arr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, arr), getattr(want, arr)), (label, arr)


@pytest.mark.parametrize("order", [1, 2])
def test_field_rows_match_bmat(order):
    config = _config(nx=8, variant="improved", fe_order=order)
    disc = Discretization(config, dataclasses.replace(case_example1(), nu_f=0.37))
    startup = disc.first_block_factorization()
    blocks = {
        "interior_trace": ("interior", "trace"),
        "trace_interior": ("trace", "interior"),
        "near_rows": ("near", "near"),
    }
    for field, name in zip(startup.fields, ("solid", "fluid")):
        for block, (r, c) in blocks.items():
            want = field_rows_bmat(disc, name, getattr(field, r), getattr(field, c))
            _assert_same_csr(getattr(field, block), want, (name, block))


@pytest.mark.parametrize("order", [1, 2])
def test_gamma_is_trace_rows_plus_interface_coupling(order):
    # Gamma is read off the band system; it is each field's trace rows
    # against the trace, and the interface mass of the start-up rows
    config = _config(nx=8, variant="improved", fe_order=order)
    disc = Discretization(config, dataclasses.replace(case_example1(), nu_f=0.37))
    startup = disc.first_block_factorization()
    m = 3 * disc.n_sig
    traces = [
        field_rows_bmat(disc, name, field.trace, field.trace)
        for field, name in zip(startup.fields, ("solid", "fluid"))
    ]
    want = sp.block_diag(traces + [sp.csr_matrix((m, m))]) + sp.kron(
        schemes._interface_coupling(config.alpha), disc.msig
    )
    _assert_same_csr(startup.gamma, linalg.finalize_csr(want), "gamma")


@pytest.mark.parametrize("order", [1, 2])
def test_case_diffusivity_scales_robin_and_startup_rows(order):
    # the case alone carries nu: nu_f = 0.37 reaches the fluid's Robin matrix
    # and its start-up rows, and the solid keeps nu_s = 1
    config = _config(nx=8, variant="improved", fe_order=order)
    disc = Discretization(config, dataclasses.replace(case_example1(), nu_f=0.37))
    rng = np.random.default_rng(3)
    fact_s, fact_f = disc.robin_factorizations()
    for fact, free, mass, stiff, nu, side in (
        (fact_f, disc.free_f, disc.mass_f, disc.stiff_f, 0.37, "f"),
        (fact_s, disc.free_s, disc.mass_s, disc.stiff_s, 1.0, "s"),
    ):
        interface = config.alpha * lifted_interface_matrix(disc, side, side)
        robin = mass / config.dt + nu * stiff + interface
        x = rng.normal(size=free.size)
        got = fact.solve(robin[free][:, free] @ x)
        assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x), side
    startup = disc.first_block_factorization()
    for field, stiff, nu in zip(startup.fields, (disc.stiff_s, disc.stiff_f), (1.0, 0.37)):
        g = field.trace
        # the (D, D) block of the trace rows is nu K: level 1 - level 2 has no mass
        d = slice(field.band.size, field.near.size)
        d_block = field.near_rows[d][:, d]
        assert abs(d_block - nu * stiff[g][:, g]).max() == 0.0
        i = field.interior
        x = rng.normal(size=i.size)
        assert np.allclose(field.k_ii.solve(nu * (stiff[i][:, i] @ x)), x, rtol=0, atol=1e-9)


def test_level_matrices_are_the_paper_rows():
    # coefficients of nu K and M/dt over (v1, v2, v3) in the three volume
    # rows: level 1 of the modified first step, whose mass term is
    # M(v2 - v1)/dt, then the two split steps
    a_k = np.eye(3)
    a_e = np.array([[-1, 1, 0], [-1, 1, 0], [0, -1, 1]])
    t = np.array([[1, -1, 0], [0, 1, 0], [0, 0, 1]])  # level 1 - level 2
    u = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # v1 = D + v2
    assert np.array_equal(t @ a_k @ u, schemes._LEVEL_K)
    assert np.array_equal(t @ a_e @ u, schemes._LEVEL_E)


def test_startup_factors_freed_after_level_3(monkeypatch):
    refs = track_startup_factors(monkeypatch)
    freed = None
    for state in run(Discretization(_config(variant="improved"), case_example1())):
        if state.n == 3:
            # checked while the run is suspended at level 3, not after it ends
            freed = [ref() is None for ref in refs]
    assert freed == [True] * 5


def test_startup_allocation_order(monkeypatch):
    # every start-up load is assembled before the first factorization; the
    # larger field (the fluid) is factored first, (M/dt + nu K)_II before
    # nu K_II, then the solid the same way, then the band LU; the Robin pair,
    # each posed on its field's free dofs, is factored fluid first
    case = case_example3()
    config = level_config(3, "improved", 2, 0.25)
    disc = Discretization(config, case)
    stiff_ii = {}
    for name, space, stiff, nu in (
        ("fluid", disc.fluid, disc.stiff_f, case.nu_f),
        ("solid", disc.solid, disc.stiff_s, case.nu_s),
    ):
        interior = ~space.dirichlet_mask
        interior[space.interface_dofs] = False
        i = np.flatnonzero(interior)
        stiff_ii[name] = (nu * stiff)[i][:, i]

    def label(matrix, permc_spec):
        if permc_spec == "NATURAL":
            return "band"
        for name, space in (("fluid", disc.fluid), ("solid", disc.solid)):
            if matrix.shape[0] == np.count_nonzero(~space.dirichlet_mask):
                return f"{name} robin"
            if matrix.shape == stiff_ii[name].shape:
                same = abs(matrix - stiff_ii[name]).max() == 0
                return f"{name} k_ii" if same else f"{name} b_ii"
        raise AssertionError(f"unexpected factorization of shape {matrix.shape}")

    events = []
    factorize = linalg.factorize

    def logged_factorize(matrix, *, permc_spec="MMD_AT_PLUS_A"):
        events.append(("factor", label(matrix, permc_spec)))
        return factorize(matrix, permc_spec=permc_spec)

    monkeypatch.setattr(linalg, "factorize", logged_factorize)
    for attr in ("assemble_load", "assemble_interface_load"):

        def logged_load(*args, assembler=getattr(fem, attr)):
            events.append(("load", assembler.__name__))
            return assembler(*args)

        monkeypatch.setattr(fem, attr, logged_load)
    for _ in run(disc):
        pass
    kinds = [kind for kind, _ in events]
    factors = [what for kind, what in events if kind == "factor"]
    # the two forcing profiles, then the profiles of w, u, u's trace and l
    assert kinds.count("load") == 6
    assert kinds.index("factor") == 6
    assert factors == [
        "fluid b_ii",
        "fluid k_ii",
        "solid b_ii",
        "solid k_ii",
        "band",
        "fluid robin",
        "solid robin",
    ]


@pytest.mark.parametrize("name, order, steps", [("example1", 1, 2), ("example3", 2, 2)])
def test_band_preconditioner_exact_when_band_covers_interior(monkeypatch, name, order, steps):
    # nx = 8: every interior dof lies within 8 cell layers of the interface,
    # so the band LU is an LU of the whole start-up system, and one GMRES
    # iteration takes the preconditioned residual to rounding level.  That
    # level is the start-up system's, and whether it meets the 1e-13
    # tolerance is decided by rounding: the residuals GMRES reports are
    # 8.4e-13 then 1.8e-15 at P1, and 2.0e-11 then 2.8e-16 at P2.
    monkeypatch.setattr(schemes, "STARTUP_BAND_LAYERS", 8)
    case = get_case(name)
    config = _config(nx=8, variant="improved", fe_order=order)
    disc = Discretization(config, case)
    startup = disc.first_block_factorization()
    for field in startup.fields:
        assert np.array_equal(field.band, field.interior)
    got = solve_first_block_improved(case, config, disc)
    gmres = disc.startup["gmres"]
    assert gmres["residuals"][0] <= 1e-10
    assert len(gmres["residuals"]) == gmres["iterations"] == steps
    assert gmres["restarts"] == 0
    want = first_block_reference(disc)
    for g, w in zip(got, want, strict=True):
        for field in ("u", "w", "lam"):
            a, b = getattr(g, field), getattr(w, field)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b), (g.n, field)


def test_band_is_the_interior_near_the_interface():
    config = _config(nx=8, variant="improved", fe_order=2)
    disc = Discretization(config, case_example1())
    split_y = disc.case.split_y
    startup = disc.first_block_factorization()
    for field, space in zip(startup.fields, (disc.solid, disc.fluid)):
        layers = np.abs(space.dof_coords[:, 1] - split_y) * config.nx
        assert np.isin(field.band, field.interior).all()
        near = field.interior[layers[field.interior] <= schemes.STARTUP_BAND_LAYERS]
        assert np.array_equal(field.band, near)
    # P2 dofs lie half a layer apart; the fluid has six layers of cells
    fluid_layers = np.abs(disc.fluid.dof_coords[startup.fields[1].band, 1] - split_y) * config.nx
    half_layers = np.arange(1, 2 * schemes.STARTUP_BAND_LAYERS + 1) / 2
    assert np.array_equal(np.unique(fluid_layers), half_layers)


def test_startup_gmres_failure_is_loud(monkeypatch):
    monkeypatch.setattr(linalg, "GMRES_MAXITER", 2)
    config = _config(nx=8, variant="improved")
    with pytest.raises(SingularSystemError, match=r"residual .* after 10 iterations"):
        case = case_example1()
        solve_first_block_improved(case, config, Discretization(config, case))


def test_loads_scale_one_assembly():
    case = case_example3()
    disc = Discretization(_config(fe_order=2), case)
    for t in (0.0, 0.0625, 0.25):
        for load, space, f in ((disc.load_f, disc.fluid, "f_f0"), (disc.load_s, disc.solid, "f_s0")):
            want = assemble_load(space, partial(exact_field(case, f, "forcing_factor"), t))
            got = load(t)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert not Discretization(_config(fe_order=2), case_example1()).load_f(0.5).any()


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_first_step_loads_match_pointwise_quotients(name):
    # q_n times a profile load against the load of the pointwise quotient:
    # the two differ by rounding, which grows as eps / dt^2: at most 5.4e-14
    # at k = 3 (example2), and 5.6e-12 for example2 at k = 5
    case = get_case(name)
    config = level_config(3, "improved", default_order(name), 0.25)
    disc = Discretization(config, case)
    got = schemes._first_step_loads(disc)
    want = first_step_loads_pointwise(disc)
    for i, (g, w) in enumerate(zip(got, want, strict=True)):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), i


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("nx", [4, 8])
def test_factors_posed_on_free_dofs(order, nx):
    # no factor carries an identity row for a Dirichlet dof, and every state
    # is exactly zero there
    case = case_example2()
    for variant in VARIANTS:
        config = _config(nx=nx, variant=variant, fe_order=order)
        disc = Discretization(config, case)
        free_f = np.count_nonzero(~disc.fluid.dirichlet_mask)
        free_s = np.count_nonzero(~disc.solid.dirichlet_mask)
        for s in run(disc):
            assert np.all(s.u[disc.fluid.dirichlet_mask] == 0.0), (variant, s.n)
            assert np.all(s.w[disc.solid.dirichlet_mask] == 0.0), (variant, s.n)
        if variant == "monolithic":
            # the interface dofs are free and shared by the two fields
            fact = disc.monolithic_factorization()[0]
            assert fact.shape == (free_f + free_s - disc.n_sig,) * 2
        else:
            fact_s, fact_f = disc.robin_factorizations()
            assert fact_f.shape == (free_f, free_f)
            assert fact_s.shape == (free_s, free_s)


# -- full runs --------------------------------------------------------------

def test_run_meta_counters(monkeypatch):
    calls = {"block": 0, "step": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(
        schemes, "solve_first_block_improved", counted("block", solve_first_block_improved)
    )
    monkeypatch.setattr(schemes, "step_original", counted("step", step_original))
    case = case_example1()
    for _ in run(Discretization(_config(variant="improved"), case)):
        pass
    # levels 1..3 from the block, one more step
    assert calls == {"block": 1, "step": 1}
    for _ in run(Discretization(_config(variant="original"), case)):
        pass
    assert calls == {"block": 1, "step": 5}


def test_run_yields_every_level_in_order():
    case = case_example1()
    for variant in VARIANTS:
        config = _config(variant=variant)
        disc = Discretization(config, case)
        states = list(run(disc))
        assert [s.n for s in states] == list(range(config.n_steps + 1)), variant
        if variant != "improved":
            continue
        # levels 1..3 are the coupled start-up solution
        startup = solve_first_block_improved(case, config, disc)
        for got, want in zip(states[1:4], startup, strict=True):
            assert got.n == want.n
            assert np.array_equal(got.u, want.u)
            assert np.array_equal(got.w, want.w)
            assert np.array_equal(got.lam, want.lam)


def test_observer_sees_every_level():
    # the caller iterating a run is its observer: it sees each level once, in order
    case = case_example1()
    seen = [s.n for s in run(Discretization(_config(variant="improved"), case))]
    assert seen == [0, 1, 2, 3, 4]


def test_trajectory_time_consistency():
    config = _config()
    *_, last = run(Discretization(config, case_example1()))
    assert abs(config.T - config.dt * last.n) < 1e-12


def test_streaming_run_keeps_tail_only():
    # a run holds only the state it steps from, so a long run stays small
    config = SchemeConfig(dt=0.03125, T=0.25, nx=4)
    levels = run(Discretization(config, case_example1()))
    first = weakref.ref(next(levels))
    assert next(levels).n == 1
    assert first() is None
    assert [s.n for s in levels] == list(range(2, 9))


def test_run_is_deterministic():
    case = case_example3()
    config = _config(nx=4, variant="improved", fe_order=2)
    first, second = (run(Discretization(config, case)) for _ in range(2))
    for s1, s2 in zip(first, second, strict=True):
        assert np.array_equal(s1.u, s2.u)
        assert np.array_equal(s1.w, s2.w)
        assert np.array_equal(s1.lam, s2.lam)


def test_improved_differs_from_original_at_level3():
    case = case_example1()
    base = dict(nx=8, dt=0.0625, T=0.25)
    t_orig = list(run(Discretization(_config(variant="original", **base), case)))
    t_impr = list(run(Discretization(_config(variant="improved", **base), case)))
    diff = np.max(np.abs(t_orig[3].u - t_impr[3].u))
    assert diff > 1e-8


# -- physical sanity --------------------------------------------------------

def test_energy_identity_homogeneous():
    # with zero data the split scheme satisfies Z(n+1) + S(n+1) = Z(n) exactly
    case = zero_case()
    config = _config(nx=4)
    disc = Discretization(config, case)
    for seed in (0, 1, 2):
        prev = _random_homogeneous_state(disc, seed)
        for _ in range(3):
            state = step_original(prev, disc)
            z1, s1 = zs_functionals(
                solid=(state.w, prev.w),
                fluid=(state.u, prev.u),
                trace=(state.lam, prev.lam),
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
            assert abs(z1 + s1 - z0) < 1e-10 * max(z0, 1e-30)
            prev = state


def test_combined_l2_norm_nonincreasing():
    case = zero_case()
    config = SchemeConfig(dt=0.0625, T=0.5, nx=4)
    disc = Discretization(config, case)
    state = _random_homogeneous_state(disc, 5)
    norms = []
    for _ in range(config.n_steps):
        state = step_original(state, disc)
        norms.append(
            float(state.u @ (disc.mass_f @ state.u) + state.w @ (disc.mass_s @ state.w))
        )
    assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))


def test_mirror_antisymmetry_on_symmetric_mesh(monkeypatch):
    # the solution inherits the data's sign flip under x1 -> 1 - x1 when the
    # triangulation itself is mirror symmetric
    monkeypatch.setattr(
        schemes,
        "build_two_domain_mesh",
        partial(two_domain_mesh_loops, diagonal="alternating"),
    )
    for name in ("example1", "example2", "example3"):
        case = get_case(name)
        config = _config(nx=4, variant="original", fe_order=2 if name != "example1" else 1)
        disc = Discretization(config, case)
        *_, final = run(disc)
        coords = disc.fluid.dof_coords
        order = np.lexsort((coords[:, 0], coords[:, 1]))
        mirrored = np.lexsort((-coords[:, 0], coords[:, 1]))
        u = final.u
        assert np.max(np.abs(u[order] + u[mirrored])) < 1e-10


def test_monolithic_error_within_data_interpolation_scale():
    case = case_example1()
    config = SchemeConfig(dt=0.0625, T=0.25, nx=16, variant="monolithic")
    disc = Discretization(config, case)
    *_, final = run(disc)
    u = exact_field(case, "u0")
    err = l2_error(disc.fluid, final.u, u, config.T)
    interp0 = l2_error(disc.fluid, interpolate(disc.fluid, case.u0), u, 0.0)
    assert err < 10.0 * interp0


def test_monolithic_multiplier_first_order():
    case = case_example1()
    errs = []
    for nx in (16, 32):
        config = SchemeConfig(dt=1.0 / nx, T=0.25, nx=nx, variant="monolithic")
        disc = Discretization(config, case)
        *_, final = run(disc)
        errs.append(sigma_l2_error(disc.fluid, final.lam, exact_field(case, "l0"), config.T))
    ratio = errs[0] / errs[1]
    assert 1.8 < ratio < 3.2
