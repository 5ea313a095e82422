import itertools
import math
from functools import partial

import hypothesis.strategies as strat
import numpy as np
import pytest
from hypothesis import given, settings

from robinsplit import fem
from robinsplit.fem import (
    ERROR_DEGREE,
    FeSpace,
    _shape_ref_grads,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    derivative_operator,
    interface_mass_matrix,
    interpolate,
    triangle_rule,
)
from robinsplit.errors import ConfigurationError
from robinsplit.linalg import factorize
from robinsplit.manufactured import case_example3
from robinsplit.mesh import build_two_domain_mesh
from robinsplit.schemes import Discretization, SchemeConfig
from oracles import (
    broken_h2_seminorm_diff,
    element_mass,
    element_stiffness,
    exact_field,
    fe_grads_at_qp,
    fe_hessians_at_qp,
    fe_values_at_qp,
    h1_semi_error,
    l2_error,
    lifted_interface_matrix,
    mass_at_quadrature_points,
    numbering_reference,
    stiffness_at_quadrature_points,
    tables,
    two_domain_mesh_loops,
)


def _spaces(nx=4, order=1, split_y=0.75):
    mesh = build_two_domain_mesh(nx, split_y)
    return FeSpace(mesh, "fluid", order), FeSpace(mesh, "solid", order)


def _profile(t, p):
    return np.cos(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])


def _zero(p):
    return np.zeros(p.shape[:-1])


def _one(p):
    return np.ones(p.shape[:-1])


# -- quadrature -------------------------------------------------------------

def test_triangle_weights_sum_to_one():
    for degree in (1, 2, 4, 6):
        rule = triangle_rule(degree)
        assert abs(rule.weights.sum() - 1.0) < 1e-13


def test_triangle_rule_monomial_exactness():
    # reference triangle (0,0)-(1,0)-(0,1): integral of x^p y^q is p!q!/(p+q+2)!
    for degree in (1, 2, 4, 6):
        rule = triangle_rule(degree)
        x = rule.points[:, 1]
        y = rule.points[:, 2]
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                approx = 0.5 * np.sum(rule.weights * x**p * y**q)
                exact = (
                    math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)
                )
                assert abs(approx - exact) < 1e-13, (degree, p, q)


def test_low_rules_leave_form_matrices_unchanged(monkeypatch):
    # the forms still pick the 6-point degree-4 and 12-point degree-6 rules;
    # the same matrices come out, to the bit, when the search sees only those
    assert [len(triangle_rule(d).weights) for d in (0, 1, 2, 3, 4, 5, 6)] == [1, 1, 3, 6, 6, 12, 12]
    matrices = {}
    for rules in (fem._RULES, (fem._RULE_DEG4, fem._RULE_DEG6)):
        monkeypatch.setattr(fem, "_RULES", rules)
        for order in (1, 2):
            for space in _spaces(4, order):
                for form in (assemble_mass, assemble_stiffness):
                    matrices.setdefault((order, space.subdomain, form), []).append(form(space))
    for key, (new, old) in matrices.items():
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(new, attr), getattr(old, attr)), (key, attr)


def test_line_rule_polynomial_exactness():
    rule = fem.LINE_RULE
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for p in range(rule.degree + 1):
        approx = np.sum(rule.weights * rule.points**p)
        assert abs(approx - 1.0 / (p + 1)) < 1e-13


def test_requesting_huge_degree_fails():
    with pytest.raises(ConfigurationError):
        triangle_rule(9)


# -- element matrices -------------------------------------------------------

def test_p1_element_mass_reference():
    h = 0.3
    coords = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    expected = (h * h / 24.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    np.testing.assert_allclose(element_mass(coords, 1), expected, atol=1e-15)


def test_element_stiffness_scales_with_viscosity():
    coords = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    k1 = element_stiffness(coords, 2, viscosity=1.0)
    k2 = element_stiffness(coords, 2, viscosity=2.0)
    np.testing.assert_allclose(k2, 2.0 * k1, rtol=1e-14)


def test_element_stiffness_kills_constants():
    coords = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.6]])
    for order in (1, 2):
        k = element_stiffness(coords, order)
        n = k.shape[0]
        assert np.max(np.abs(k @ np.ones(n))) < 1e-13


def test_p2_reference_tensors_are_exact_rationals():
    # mass * 360 and stiffness * 6 are integers; the zeros are exact, not round-off
    for ref, scale in ((fem._reference_mass(2), 360), (fem._reference_stiffness(2), 6)):
        scaled = ref * scale
        assert np.max(np.abs(scaled - np.round(scaled))) < 1e-12
        assert np.array_equal(scaled == 0, np.round(scaled) == 0)


# -- global assembly --------------------------------------------------------

_FORM_CASES = [
    (order, subdomain, nx)
    for order in (1, 2)
    for subdomain in ("fluid", "solid")
    for nx in (4, 16)
]


@pytest.mark.parametrize("order,subdomain,nx", _FORM_CASES)
def test_forms_match_quadrature_point_assembly(order, subdomain, nx):
    space = FeSpace(build_two_domain_mesh(nx, 0.75), subdomain, order)
    pairs = [
        (assemble_stiffness(space), stiffness_at_quadrature_points(space)),
        (assemble_mass(space), mass_at_quadrature_points(space)),
    ]
    # the Dunavant weights carry 15 digits: the mass entries that should be 0
    # come out near 1.1e-15 of the largest entry, the stiffness's below 5e-16
    for (new, oracle), tol in zip(pairs, (1e-15, 2e-15)):
        if order == 1:
            # P1 reference tensors hold no round-off zeros: same bits, same pattern
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(new, attr), getattr(oracle, attr)), attr
            continue
        # P2: the pattern loses exactly the oracle's round-off entries
        bound = tol * np.max(np.abs(oracle.data))
        oracle = oracle.tocoo()
        kept = np.asarray(new[oracle.row, oracle.col]).ravel()
        assert new.nnz == np.count_nonzero(kept) < oracle.nnz
        assert np.max(np.abs(kept - oracle.data)) <= bound
        assert np.max(np.abs(oracle.data[kept == 0])) <= bound


def test_p2_edge_dofs_lexicographic_at_midpoints():
    for space in _spaces(8, 2):
        nvert = int(space.cell_dofs[:, :3].max()) + 1
        # local vertex pair of each edge dof, from the cells that hold it
        ends = np.empty((space.ndof - nvert, 2), dtype=np.int64)
        for k, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
            pair = np.sort(space.cell_dofs[:, [i, j]], axis=1)
            ends[space.cell_dofs[:, 3 + k] - nvert] = pair
        assert np.all(np.diff(ends[:, 0] * nvert + ends[:, 1]) > 0)
        mid = 0.5 * (space.dof_coords[ends[:, 0]] + space.dof_coords[ends[:, 1]])
        assert np.array_equal(space.dof_coords[nvert:], mid)


def test_p2_numbering_matches_dict_reference():
    # the meshes of test_mesh_arrays_match_loop_construction, at P1 and P2
    for nx, split_y in ((2, 0.5), (4, 0.75), (5, 0.4), (8, 0.75), (12, 0.25)):
        for diagonal in ("criss", "alternating"):
            # the package builds the criss layout, the oracle the alternating one
            if diagonal == "criss":
                mesh = build_two_domain_mesh(nx, split_y)
            else:
                mesh = two_domain_mesh_loops(nx, split_y, diagonal)
            for order, subdomain in itertools.product((1, 2), ("fluid", "solid")):
                space = FeSpace(mesh, subdomain, order)
                cell_dofs, mask, interface = numbering_reference(mesh, subdomain, order)
                case = (nx, split_y, diagonal, order, subdomain)
                assert np.array_equal(space.cell_dofs, cell_dofs), case
                assert np.array_equal(space.dirichlet_mask, mask), case
                assert np.array_equal(space.interface_dofs, interface), case



def test_mass_sum_is_subdomain_area():
    fluid, solid = _spaces(4, 1)
    assert abs(assemble_mass(fluid).sum() - 0.75) < 1e-13
    assert abs(assemble_mass(solid).sum() - 0.25) < 1e-13
    fluid2, solid2 = _spaces(4, 2)
    assert abs(assemble_mass(fluid2).sum() - 0.75) < 1e-13
    assert abs(assemble_mass(solid2).sum() - 0.25) < 1e-13


def test_dof_counts():
    fluid, solid = _spaces(4, 1)
    assert fluid.ndof == 5 * 4
    assert solid.ndof == 5 * 2
    fluid2, solid2 = _spaces(4, 2)
    # P2 adds one dof per mesh edge
    assert fluid2.ndof == 63
    assert solid2.ndof == 27


def test_mass_matrix_spd():
    fluid, _ = _spaces(4, 2)
    m = assemble_mass(fluid).toarray()
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    assert np.linalg.eigvalsh(m).min() > 0


def test_stiffness_symmetric_psd_constant_nullspace():
    for order in (1, 2):
        fluid, _ = _spaces(4, order)
        k = assemble_stiffness(fluid)
        dense = k.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-13)
        assert np.max(np.abs(k @ np.ones(fluid.ndof))) < 1e-12
        evals = np.linalg.eigvalsh(dense)
        assert evals.min() > -1e-12


def test_criss_interior_stiffness_diagonal():
    # the 5-point stencil of the Laplacian on a criss mesh has
    # an h-independent diagonal value of 4
    for nx in (4, 8):
        fluid, _ = _spaces(nx, 1)
        k = assemble_stiffness(fluid).toarray()
        coords = fluid.dof_coords
        interior = ~fluid.dirichlet_mask
        interior &= (coords[:, 0] > 0) & (coords[:, 0] < 1)
        interior &= (coords[:, 1] > 0) & (coords[:, 1] < 0.75)
        assert interior.any()
        for i in np.flatnonzero(interior):
            assert abs(k[i, i] - 4.0) < 1e-12


def test_load_zero_function():
    fluid, _ = _spaces(4, 1)
    b = assemble_load(fluid, _zero)
    assert np.all(b == 0)


def test_load_constant_sums_to_area():
    fluid, _ = _spaces(4, 2)
    b = assemble_load(fluid, _one)
    assert abs(b.sum() - 0.75) < 1e-13


def test_load_cosine_sums_to_zero():
    # integral of cos(pi x) over (0,1) vanishes, so the load total does too
    fluid, _ = _spaces(8, 2)
    b = assemble_load(fluid, partial(_profile, 0.0))
    assert abs(b.sum()) < 1e-10


def test_load_vector_chunk_independent(monkeypatch):
    # nx = 8: 96 fluid and 32 solid cells, so chunks of 7 leave a remainder
    case = case_example3()
    fluid, solid = _spaces(8, 2)
    forcing = {
        fluid: partial(exact_field(case, "f_f0", "forcing_factor"), 0.5),
        solid: partial(exact_field(case, "f_s0", "forcing_factor"), 0.5),
    }
    want = {space: assemble_load(space, f) for space, f in forcing.items()}
    monkeypatch.setattr(fem, "CHUNK_CELLS", 7)
    for space, load in want.items():
        got = assemble_load(space, forcing[space])
        assert np.max(np.abs(got - load)) <= 1e-14 * np.max(np.abs(load)), space.subdomain
        # the load keeps no quadrature table: FeSpace has no table cache
        assert not hasattr(space, "_tables") and not hasattr(space, "tables"), space.subdomain


# -- interface coupling -----------------------------------------------------

def test_interface_mass_unit_quadratic_form():
    fluid, solid = _spaces(4, 1)
    for space in (fluid, solid):
        msig = interface_mass_matrix(space)
        ones = np.ones(len(space.interface_dofs))
        assert abs(ones @ (msig @ ones) - 1.0) < 1e-13


def test_interface_mass_matches_1d_assembly():
    # 4 elements of h = 0.25 on the unit interval, classic P1 mass matrix
    fluid, _ = _spaces(4, 1)
    msig = interface_mass_matrix(fluid).toarray()
    h = 0.25
    expected = np.zeros((5, 5))
    for e in range(4):
        expected[e : e + 2, e : e + 2] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(msig, expected, atol=1e-14)


def test_interface_mass_same_from_both_sides():
    fluid, solid = _spaces(4, 2)
    mf = interface_mass_matrix(fluid).toarray()
    ms = interface_mass_matrix(solid).toarray()
    np.testing.assert_allclose(mf, ms, atol=1e-14)


def test_interface_dofs_match_across_subdomains():
    for order in (1, 2):
        fluid, solid = _spaces(8, order)
        np.testing.assert_allclose(
            fluid.dof_coords[fluid.interface_dofs],
            solid.dof_coords[solid.interface_dofs],
            atol=1e-15,
        )
        xs = fluid.dof_coords[fluid.interface_dofs, 0]
        assert np.all(np.diff(xs) > 0)


def test_lifted_interface_mass_cross_terms():
    disc = Discretization(SchemeConfig(dt=0.25, T=1.0, nx=4), case_example3())
    m_fs = lifted_interface_matrix(disc, "f", "s")
    cf = np.ones(disc.fluid.ndof)
    cs = np.ones(disc.solid.ndof)
    assert abs(cf @ (m_fs @ cs) - 1.0) < 1e-13


def test_dirichlet_dofs_sit_on_dirichlet_edges():
    fluid, solid = _spaces(4, 2)
    yf = fluid.dof_coords[fluid.dirichlet_mask, 1]
    ys = solid.dof_coords[solid.dirichlet_mask, 1]
    assert np.all(yf == 0.0)
    assert np.all(ys == 1.0)
    assert fluid.dirichlet_mask.sum() == 9   # 2*nx + 1 dofs on the bottom edge
    assert solid.dirichlet_mask.sum() == 9


# -- norms and errors -------------------------------------------------------

def test_l2_error_reproduces_polynomials():
    def linear(t, p):
        return 2.0 * p[..., 0] - 0.5 * p[..., 1] + 1.0

    def quadratic(t, p):
        x, y = p[..., 0], p[..., 1]
        return x * x - x * y + 0.25 * y * y + x - 2.0

    fluid, _ = _spaces(4, 1)
    assert l2_error(fluid, interpolate(fluid, partial(linear, 0.0)), linear, 0.0) < 1e-12
    fluid2, _ = _spaces(4, 2)
    assert l2_error(fluid2, interpolate(fluid2, partial(quadratic, 0.0)), quadratic, 0.0) < 1e-12


def test_l2_norm_of_initial_profile():
    # zero coefficients, so the "error" is the plain L2 norm of the field
    fluid, _ = _spaces(4, 1)
    norm = l2_error(fluid, np.zeros(fluid.ndof), _profile, 0.0)
    expected = math.sqrt(3.0 / 16.0 + 1.0 / (8.0 * math.pi))
    # quadrature truncation of the transcendental integrand sits near 5e-10
    assert abs(norm - expected) < 1e-8


def test_p1_interpolation_second_order():
    errs = []
    for nx in (4, 8, 16):
        fluid, _ = _spaces(nx, 1)
        errs.append(l2_error(fluid, interpolate(fluid, partial(_profile, 0.0)), _profile, 0.0))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.7 < coarse / fine < 4.3


def test_h1_semi_error_linear_field():
    def linear(t, p):
        return 3.0 * p[..., 0] + 2.0 * p[..., 1]

    def grad(t, p):
        g = np.empty(p.shape)
        g[..., 0] = 3.0
        g[..., 1] = 2.0
        return g

    fluid, _ = _spaces(4, 1)
    coeffs = interpolate(fluid, partial(linear, 0.0))
    assert h1_semi_error(fluid, coeffs, grad, 0.0) < 1e-12


def _profile_hessian(t, p):
    pi2 = np.pi * np.pi
    x, y = p[..., 0], p[..., 1]
    hxx = -pi2 * np.cos(np.pi * x) * np.sin(np.pi * y)
    hxy = -pi2 * np.sin(np.pi * x) * np.cos(np.pi * y)
    row1 = np.stack([hxx, hxy], axis=-1)
    row2 = np.stack([hxy, hxx], axis=-1)
    return np.stack([row1, row2], axis=-2)


def test_p2_hessian_diff_first_order():
    errs = []
    for nx in (4, 8, 16):
        fluid, _ = _spaces(nx, 2)
        coeffs = interpolate(fluid, partial(_profile, 0.0))
        errs.append(broken_h2_seminorm_diff(fluid, coeffs, _profile_hessian, 0.0))
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.6 < coarse / fine < 2.4


def test_p1_hessian_diff_reports_exact_part():
    # elementwise second derivatives of P1 fields vanish identically, so the
    # broken H2 difference collapses to the norm of the exact Hessian alone
    def hess(t, p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        return out

    fluid, _ = _spaces(4, 1)
    coeffs = np.random.default_rng(0).normal(size=fluid.ndof)
    val = broken_h2_seminorm_diff(fluid, coeffs, hess, 0.0)
    assert abs(val - math.sqrt(2.0 * 0.75)) < 1e-12


def test_mass_quadratic_form_matches_quadrature():
    fluid, _ = _spaces(4, 2)
    m = assemble_mass(fluid)
    rng = np.random.default_rng(7)
    c = rng.normal(size=fluid.ndof)
    # evaluate the squared field with the over-integration tables directly
    tab = tables(fluid, ERROR_DEGREE)
    vq = fe_values_at_qp(fluid, c, tab)
    integral = np.sum(tab["wdet"] * vq * vq)
    assert abs(c @ (m @ c) - integral) < 1e-10 * max(1.0, abs(integral))


@pytest.mark.parametrize("order", [1, 2])
def test_fe_grads_match_tabulated_gradients(order):
    # oracle: tabulate every basis gradient on every cell, then contract
    fluid, _ = _spaces(8, order)
    tab = tables(fluid, ERROR_DEGREE)
    ref = _shape_ref_grads(order, tab["rule"].points)
    grads = np.einsum("qle,ced->cqld", ref, fluid._jac_inv)
    c = np.random.default_rng(3).normal(size=fluid.ndof)
    expected = np.einsum("cl,cqld->cqd", c[fluid.cell_dofs], grads)
    got = fe_grads_at_qp(fluid, c, tab)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_operator_matches_pointwise_evaluation(order):
    # the operator sums basis gradients already mapped by J^-1, where
    # fe_grads_at_qp maps the summed reference gradient, so gradients agree
    # to rounding (measured 1.3e-16 at P1 and 1.8e-16 at P2); the Hessian is
    # the same sum over the basis in the same order
    rng = np.random.default_rng(5)
    for space in _spaces(8, order):
        c = rng.normal(size=space.ndof)
        for nder, evaluate in ((1, fe_grads_at_qp), (2, fe_hessians_at_qp)):
            r = order - nder
            if r < 0:
                continue
            tab = tables(space, 2 * r)
            op = derivative_operator(space, tab["rule"], nder)
            nloc = space.cell_dofs.shape[1]
            assert np.array_equal(np.diff(op.indptr), np.full(op.shape[0], nloc))
            want = evaluate(space, c, tab)
            got = (op @ c).reshape(want.shape)
            if nder == 2:
                assert np.array_equal(got, want), space.subdomain
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), space.subdomain


def test_galerkin_reproduction_smoke():
    # (M + K) c_exact used as data must return c_exact from the solver
    def linear(t, p):
        return 1.0 + p[..., 0] - 2.0 * p[..., 1]

    def quadratic(t, p):
        return 1.0 + p[..., 0] * p[..., 1] - p[..., 1] ** 2

    for order, poly in ((1, linear), (2, quadratic)):
        fluid, _ = _spaces(4, order)
        a = (assemble_mass(fluid) + assemble_stiffness(fluid)).tocsr()
        c = interpolate(fluid, partial(poly, 0.0))
        x = factorize(a).solve(a @ c)
        np.testing.assert_allclose(x, c, atol=1e-11)


@given(strat.sampled_from([1, 2]), strat.integers(min_value=0, max_value=99))
@settings(deadline=None, max_examples=20)
def test_interpolation_bounds_field_range(order, seed):
    rng = np.random.default_rng(seed)
    a, b = sorted(rng.normal(size=2))

    def f(t, p):
        return a + (b - a) * 0.5 * (1.0 + np.sin(3.0 * p[..., 0] + p[..., 1]))

    fluid, _ = _spaces(4, order)
    coeffs = interpolate(fluid, partial(f, 0.0))
    assert coeffs.min() >= a - 1e-12
    assert coeffs.max() <= b + 1e-12
