import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as strat

from robinsplit.errors import ConfigurationError
from robinsplit.manufactured import (
    case_example1,
    case_example2,
    case_example3,
    case_names,
    default_order,
    exact_first_step_data,
    get_case,
)
from oracles import exact_field

ALL_CASES = [case_example1(), case_example2(), case_example3()]


def _random_points(rng, n, ylo=0.0, yhi=1.0):
    pts = rng.uniform(size=(n, 2))
    pts[:, 1] = ylo + (yhi - ylo) * pts[:, 1]
    return pts


def test_case_registry():
    assert case_names() == ("example1", "example2", "example3")
    assert get_case("example2").name == "example2"
    with pytest.raises(ConfigurationError):
        get_case("example9")


@pytest.mark.parametrize("field", ["nu_f", "nu_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_case_rejects_non_finite_values(field, value):
    # every run discretizes the case's diffusivities, so the case checks them
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite and positive"):
        dataclasses.replace(case_example1(), **{field: value})


def test_default_orders():
    assert default_order("example1") == 1
    assert default_order("example2") == 2
    assert default_order("example3") == 2


def test_pde_consistency_closed_forms():
    # dt u - nu * tr(hess u) must equal the stored forcing everywhere
    rng = np.random.default_rng(42)
    for case in ALL_CASES:
        hess_u = exact_field(case, "hess_u0")
        dt_u = exact_field(case, "u0", "time_derivative")
        f_f = exact_field(case, "f_f0", "forcing_factor")
        for _ in range(20):
            t = rng.uniform(0.0, 1.0)
            x = _random_points(rng, 1)[0]
            lap = hess_u(t, x)[0, 0] + hess_u(t, x)[1, 1]
            residual = dt_u(t, x) - case.nu_f * lap
            assert abs(residual - f_f(t, x)) < 1e-10, case.name


def test_time_derivative_against_differences():
    rng = np.random.default_rng(1)
    eps = 1e-6
    for case in ALL_CASES:
        u, dt_u = exact_field(case, "u0"), exact_field(case, "u0", "time_derivative")
        t = 0.37
        x = _random_points(rng, 8)
        fd = (u(t + eps, x) - u(t - eps, x)) / (2 * eps)
        np.testing.assert_allclose(fd, dt_u(t, x), atol=1e-5)


def test_gradient_against_differences():
    rng = np.random.default_rng(2)
    eps = 1e-6
    for case in ALL_CASES:
        u, grad_u = exact_field(case, "u0"), exact_field(case, "grad_u0")
        t = 0.61
        x = _random_points(rng, 8)
        for axis in (0, 1):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (u(t, x + shift) - u(t, x - shift)) / (2 * eps)
            np.testing.assert_allclose(fd, grad_u(t, x)[:, axis], atol=1e-5)


def test_hessian_against_differences():
    rng = np.random.default_rng(3)
    eps = 1e-4
    for case in ALL_CASES:
        grad_u, hess_u = exact_field(case, "grad_u0"), exact_field(case, "hess_u0")
        t = 0.25
        x = _random_points(rng, 4)
        for axis in (0, 1):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (grad_u(t, x + shift) - grad_u(t, x - shift)) / (2 * eps)
            np.testing.assert_allclose(fd, hess_u(t, x)[:, axis, :], atol=1e-6)


def test_interface_continuity():
    rng = np.random.default_rng(4)
    for case in ALL_CASES:
        x1 = rng.uniform(size=12)
        pts = np.stack([x1, np.full_like(x1, case.split_y)], axis=-1)
        u, w = exact_field(case, "u0"), exact_field(case, "w0")
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(u(t, pts), w(t, pts), atol=1e-14)


def test_flux_balance_across_interface():
    # nu_s grad w . n_s + nu_f grad u . n_f with n_f = +e2 and n_s = -e2
    rng = np.random.default_rng(5)
    for case in ALL_CASES:
        x1 = rng.uniform(size=12)
        pts = np.stack([x1, np.full_like(x1, case.split_y)], axis=-1)
        grad_u, grad_w = exact_field(case, "grad_u0"), exact_field(case, "grad_w0")
        for t in (0.0, 0.5):
            jump = case.nu_f * grad_u(t, pts)[:, 1] - case.nu_s * grad_w(t, pts)[:, 1]
            assert np.max(np.abs(jump)) < 1e-14


def test_multiplier_matches_normal_flux():
    rng = np.random.default_rng(6)
    for case in ALL_CASES:
        x1 = rng.uniform(size=12)
        pts = np.stack([x1, np.full_like(x1, case.split_y)], axis=-1)
        l, grad_u = exact_field(case, "l0"), exact_field(case, "grad_u0")
        for t in (0.0, 0.8):
            np.testing.assert_allclose(l(t, x1), case.nu_f * grad_u(t, pts)[:, 1], atol=1e-13)


def test_multiplier_value_at_origin():
    case = case_example1()
    expected = -math.pi * math.sqrt(2.0) / 2.0
    assert abs(exact_field(case, "l0")(0.0, np.array(0.0)) - expected) < 1e-12
    assert abs(expected + 2.221441469) < 1e-9


def test_example1_forcing_free():
    case = case_example1()
    assert case.f_f0 is None and case.f_s0 is None
    pts = np.array([[0.1, 0.6], [0.3, 0.4]])
    for profile in ("f_f0", "f_s0"):
        assert not exact_field(case, profile, "forcing_factor")(0.5, pts).any()


@pytest.mark.parametrize("make", [case_example2, case_example3])
def test_forcing_scales_by_forcing_factor(make):
    case = make()
    pts = np.array([[0.1, 0.6], [0.3, 0.4], [0.8, 0.9]])
    f_f = exact_field(case, "f_f0", "forcing_factor")
    assert case.forcing_factor(0.0) == 1.0
    for t in (0.1, 0.7):
        np.testing.assert_allclose(
            f_f(t, pts), case.forcing_factor(t) * f_f(0.0, pts), rtol=1e-14
        )


def test_example1_has_no_forcing_factor():
    assert case_example1().forcing_factor is None


def test_example2_forcing_formula():
    case = case_example2()
    t, pts = 0.7, np.array([[0.3, 0.4]])
    expected = (3 * t**2 + 2 * np.pi**2 * (t**3 + 1)) * np.cos(np.pi * 0.3) * np.sin(
        np.pi * 0.4
    )
    np.testing.assert_allclose(
        exact_field(case, "f_f0", "forcing_factor")(t, pts), [expected], rtol=1e-14
    )


def test_example3_forcing_formula():
    case = case_example3()
    t, pts = 0.2, np.array([[0.1, 0.6]])
    expected = (1 + 2 * np.pi**2) * np.exp(t) * np.cos(np.pi * 0.1) * np.sin(np.pi * 0.6)
    np.testing.assert_allclose(
        exact_field(case, "f_f0", "forcing_factor")(t, pts), [expected], rtol=1e-14
    )


def test_example2_initial_profile():
    case = case_example2()
    pts = np.array([[0.25, 0.5]])
    np.testing.assert_allclose(
        exact_field(case, "u0")(0.0, pts), np.cos(np.pi * 0.25) * np.sin(np.pi * 0.5), rtol=1e-14
    )


@given(strat.floats(min_value=0.0, max_value=1.0), strat.floats(min_value=0.0, max_value=1.0))
@settings(deadline=None, max_examples=40)
def test_mirror_antisymmetry(t, x1):
    for case in ALL_CASES:
        u = exact_field(case, "u0")
        a = u(t, np.array([x1, 0.4]))
        b = u(t, np.array([1.0 - x1, 0.4]))
        assert abs(a + b) < 1e-12 * max(1.0, abs(a))


# -- first-step data --------------------------------------------------------

def test_first_step_data_example3_G1():
    dt = 0.125
    q2, q3 = exact_first_step_data(case_example3(), dt)
    np.testing.assert_allclose(q2, (np.exp(2 * dt) - 2 * np.exp(dt) + 1.0) / dt, rtol=1e-12)
    np.testing.assert_allclose(q3, np.exp(dt) * (np.exp(dt) - 1.0) ** 2 / dt, rtol=1e-12)


def test_first_step_data_example1_G2():
    dt = 0.0625
    tp = 2 * np.pi**2
    q2, q3 = exact_first_step_data(case_example1(), dt)
    # c(t) = exp(-tp t): q_n = exp(-(n - 2) tp dt) (1 - exp(-tp dt))^2 / dt
    decay = np.exp(-tp * dt)
    np.testing.assert_allclose(q2, (np.exp(-2 * tp * dt) - 2 * decay + 1.0) / dt, rtol=1e-12)
    np.testing.assert_allclose(q3, decay * (1.0 - decay) ** 2 / dt, rtol=1e-12)


def test_first_step_differences_vanish_for_frozen_time():
    # freeze the time factor, and the fields with it: equal samples cancel
    const_case = dataclasses.replace(case_example2(), time_factor=lambda t: 1.0)
    assert exact_first_step_data(const_case, 0.1) == (0.0, 0.0)


def test_first_step_second_difference_quotient():
    # c(t) = t^3 + 1: second differences 6 dt^3 and 12 dt^3
    dt = 0.2
    q2, q3 = exact_first_step_data(case_example2(), dt)
    np.testing.assert_allclose([q2, q3], [6 * dt**2, 12 * dt**2], rtol=1e-13)


def test_first_step_rejects_bad_dt():
    with pytest.raises(ConfigurationError):
        exact_first_step_data(case_example1(), 0.0)
