import math

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
    broken_h2_seminorm_diff,
    element_mass,
    element_stiffness,
    fe_grads_at_qp,
    fe_values_at_qp,
    h1_semi_error,
    interface_mass_matrix,
    interpolate,
    l2_error,
    line_rule,
    triangle_rule,
)
from robinsplit.errors import ConfigurationError
from robinsplit.linalg import factorize
from robinsplit.mesh import build_two_domain_mesh
from robinsplit.schemes import SchemeConfig, build_discretization


def _spaces(nx=4, order=1, split_y=0.75):
    mesh = build_two_domain_mesh(nx, split_y)
    return FeSpace(mesh, "fluid", order), FeSpace(mesh, "solid", order)


def _profile(t, p):
    return np.cos(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])


def _zero(t, p):
    return np.zeros(p.shape[:-1])


def _one(t, p):
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
    rule = line_rule(4)
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


# -- global assembly --------------------------------------------------------

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
        k = assemble_stiffness(fluid, 1.0)
        dense = k.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-13)
        assert np.max(np.abs(k @ np.ones(fluid.ndof))) < 1e-12
        evals = np.linalg.eigvalsh(dense)
        assert evals.min() > -1e-12


def test_stiffness_viscosity_linearity():
    fluid, _ = _spaces(4, 1)
    k1 = assemble_stiffness(fluid, 1.0).toarray()
    k2 = assemble_stiffness(fluid, 2.0).toarray()
    np.testing.assert_allclose(k2, 2.0 * k1, rtol=1e-14)


def test_criss_interior_stiffness_diagonal():
    # the 5-point stencil of the Laplacian on a criss mesh has
    # an h-independent diagonal value of 4
    for nx in (4, 8):
        fluid, _ = _spaces(nx, 1)
        k = assemble_stiffness(fluid, 1.0).toarray()
        coords = fluid.dof_coords
        interior = ~fluid.dirichlet_mask
        interior &= (coords[:, 0] > 0) & (coords[:, 0] < 1)
        interior &= (coords[:, 1] > 0) & (coords[:, 1] < 0.75)
        assert interior.any()
        for i in np.flatnonzero(interior):
            assert abs(k[i, i] - 4.0) < 1e-12


def test_load_zero_function():
    fluid, _ = _spaces(4, 1)
    b = assemble_load(fluid, _zero, 0.0)
    assert np.all(b == 0)


def test_load_constant_sums_to_area():
    fluid, _ = _spaces(4, 2)
    b = assemble_load(fluid, _one, 0.0)
    assert abs(b.sum() - 0.75) < 1e-13


def test_load_cosine_sums_to_zero():
    # integral of cos(pi x) over (0,1) vanishes, so the load total does too
    fluid, _ = _spaces(8, 2)
    b = assemble_load(fluid, _profile, 0.0)
    assert abs(b.sum()) < 1e-10


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
    disc = build_discretization(SchemeConfig(dt=0.25, T=1.0, nx=4))
    m_fs = disc.lifted_interface_matrix("f", "s")
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
    assert l2_error(fluid, interpolate(fluid, linear, 0.0), linear, 0.0) < 1e-12
    fluid2, _ = _spaces(4, 2)
    assert l2_error(fluid2, interpolate(fluid2, quadratic, 0.0), quadratic, 0.0) < 1e-12


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
        errs.append(l2_error(fluid, interpolate(fluid, _profile, 0.0), _profile, 0.0))
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
    coeffs = interpolate(fluid, linear, 0.0)
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
        coeffs = interpolate(fluid, _profile, 0.0)
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
    tab = fluid.tables(ERROR_DEGREE)
    vq = fe_values_at_qp(fluid, c, tab)
    integral = np.sum(tab["wdet"] * vq * vq)
    assert abs(c @ (m @ c) - integral) < 1e-10 * max(1.0, abs(integral))


@pytest.mark.parametrize("order", [1, 2])
def test_fe_grads_match_tabulated_gradients(order):
    # oracle: tabulate every basis gradient on every cell, then contract
    fluid, _ = _spaces(8, order)
    tab = fluid.tables(ERROR_DEGREE)
    ref = _shape_ref_grads(order, tab["rule"].points)
    grads = np.einsum("qle,ced->cqld", ref, fluid._jac_inv)
    c = np.random.default_rng(3).normal(size=fluid.ndof)
    expected = np.einsum("cl,cqld->cqd", c[fluid.cell_dofs], grads)
    got = fe_grads_at_qp(fluid, c, tab)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_galerkin_reproduction_smoke():
    # (M + K) c_exact used as data must return c_exact from the solver
    def linear(t, p):
        return 1.0 + p[..., 0] - 2.0 * p[..., 1]

    def quadratic(t, p):
        return 1.0 + p[..., 0] * p[..., 1] - p[..., 1] ** 2

    for order, poly in ((1, linear), (2, quadratic)):
        fluid, _ = _spaces(4, order)
        a = (assemble_mass(fluid) + assemble_stiffness(fluid, 1.0)).tocsr()
        c = interpolate(fluid, poly, 0.0)
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
    coeffs = interpolate(fluid, f, 0.0)
    assert coeffs.min() >= a - 1e-12
    assert coeffs.max() <= b + 1e-12
