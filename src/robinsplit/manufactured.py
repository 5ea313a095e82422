"""Manufactured solutions for the two-field diffusion interface problem.

Each case prescribes one smooth field over the whole unit square, used as
both the lower ("fluid") and upper ("solid") solution, together with the
matching volume forcing and the interface flux.  All three shipped cases
share the spatial profile cos(pi x1) sin(pi x2) with different time factors,
so the interface conditions (matching traces, balanced fluxes) hold by
construction and the flux variable is

    l(t, x1) = nu_f * d/dx2 [u](t, x1, split_y).

Every case is separable: each exact field (``u_exact``/``w_exact``, their
gradients and Hessians, and ``l_exact``) equals ``time_factor(t)`` times
its value at t = 0, and ``time_factor(0) == 1``.  Time derivatives and
forcing carry their own factors.  The error accumulator relies on this
contract to evaluate exact gradients and Hessians at the quadrature points
once per run; it checks the contract for the fields it caches and rejects
a case that breaks it.

Callables follow the package-wide convention: point arrays of shape (..., 2),
scalar time, vectorized numpy output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle driving a manufactured run.

    ``f_f`` / ``f_s`` may be None when the forcing vanishes identically.
    ``time_factor(t)`` is the scalar factor that takes each exact field
    from its value at t = 0 to its value at t (see the module docstring).
    """

    name: str
    nu_f: float
    nu_s: float
    split_y: float
    u_exact: object
    w_exact: object
    grad_u: object
    grad_w: object
    dt_u: object
    dt_w: object
    hess_u: object
    hess_w: object
    f_f: object
    f_s: object
    l_exact: object
    time_factor: object


def _trig_case(name, time_factor, time_derivative, forcing_factor):
    """Case with solution time_factor(t) * cos(pi x1) sin(pi x2).

    ``forcing_factor`` is the scalar factor of the forcing in front of the
    spatial profile, or None when the forcing vanishes identically.
    """
    pi = np.pi
    split_y = 0.75

    def profile(x):
        return np.cos(pi * x[..., 0]) * np.sin(pi * x[..., 1])

    def u(t, x):
        return time_factor(t) * profile(x)

    def dt_u(t, x):
        return time_derivative(t) * profile(x)

    def grad(t, x):
        c = time_factor(t)
        gx = -pi * np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])
        gy = pi * np.cos(pi * x[..., 0]) * np.cos(pi * x[..., 1])
        return c * np.stack([gx, gy], axis=-1)

    def hess(t, x):
        c = time_factor(t)
        s1, c1 = np.sin(pi * x[..., 0]), np.cos(pi * x[..., 0])
        s2, c2 = np.sin(pi * x[..., 1]), np.cos(pi * x[..., 1])
        hxx = -pi * pi * c1 * s2
        hxy = -pi * pi * s1 * c2
        row1 = np.stack([hxx, hxy], axis=-1)
        row2 = np.stack([hxy, hxx], axis=-1)
        return c * np.stack([row1, row2], axis=-2)

    if forcing_factor is None:
        f = None
    else:

        def f(t, x):
            return forcing_factor(t) * profile(x)

    def l_exact(t, x1):
        return time_factor(t) * pi * np.cos(pi * x1) * np.cos(pi * split_y)

    return ManufacturedCase(
        name=name,
        nu_f=1.0,
        nu_s=1.0,
        split_y=split_y,
        u_exact=u,
        w_exact=u,
        grad_u=grad,
        grad_w=grad,
        dt_u=dt_u,
        dt_w=dt_u,
        hess_u=hess,
        hess_w=hess,
        f_f=f,
        f_s=f,
        l_exact=l_exact,
        time_factor=time_factor,
    )


def case_example1():
    """Decaying mode exp(-2 pi^2 t) cos(pi x1) sin(pi x2); zero forcing."""
    tp = 2 * np.pi**2
    return _trig_case(
        "example1",
        time_factor=lambda t: np.exp(-tp * t),
        time_derivative=lambda t: -tp * np.exp(-tp * t),
        forcing_factor=None,
    )


def case_example2():
    """Polynomial growth (t^3 + 1) cos(pi x1) sin(pi x2)."""
    tp = 2 * np.pi**2
    return _trig_case(
        "example2",
        time_factor=lambda t: t**3 + 1.0,
        time_derivative=lambda t: 3.0 * t**2,
        forcing_factor=lambda t: 3.0 * t**2 + tp * (t**3 + 1.0),
    )


def case_example3():
    """Exponential growth exp(t) cos(pi x1) sin(pi x2)."""
    tp = 2 * np.pi**2
    return _trig_case(
        "example3",
        time_factor=np.exp,
        time_derivative=np.exp,
        forcing_factor=lambda t: (1.0 + tp) * np.exp(t),
    )


_CASES = {
    "example1": case_example1,
    "example2": case_example2,
    "example3": case_example3,
}


def case_names():
    return tuple(sorted(_CASES))


def get_case(name):
    try:
        return _CASES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown case {name!r}; available: {', '.join(case_names())}"
        ) from None


def default_order(name):
    """Element order used by the convergence studies for each case."""
    return 1 if name == "example1" else 2


@dataclass(frozen=True)
class FirstStepData:
    """Exact-solution samples feeding the coupled first-step system.

    Spatial closures are frozen at the first few time levels t_j = j * dt:
    ``u_level[j]``/``w_level[j]``/``l_level[j]`` are the exact fields there,
    ``g1``/``g2`` the backward differences of trace and flux, ``G1``/``G2``
    their difference quotients, and ``ddu``/``ddw`` the second-difference
    quotients (u^2 - 2 u^1 + u^0) / dt over the subdomains.
    """

    dt: float
    u_level: tuple
    w_level: tuple
    l_level: tuple
    g1: dict
    g2: dict
    G1: dict
    G2: dict
    ddu: object
    ddw: object


def exact_first_step_data(case, dt):
    """Sample the exact solution at levels 0..3 for the first-step system."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    times = [j * dt for j in range(4)]

    def freeze(f, t):
        return lambda x, _f=f, _t=t: _f(_t, x)

    u_level = tuple(freeze(case.u_exact, t) for t in times)
    w_level = tuple(freeze(case.w_exact, t) for t in times)
    l_level = tuple(freeze(case.l_exact, t) for t in times)

    def trace_diff(n):
        return lambda x1: case.u_exact(times[n], _lift(x1, case.split_y)) - case.u_exact(
            times[n - 1], _lift(x1, case.split_y)
        )

    def flux_diff(n):
        return lambda x1: case.l_exact(times[n], x1) - case.l_exact(times[n - 1], x1)

    g1 = {n: trace_diff(n) for n in (1, 2, 3)}
    g2 = {n: flux_diff(n) for n in (1, 2, 3)}

    def quotient(diffs, n):
        return lambda x1: (diffs[n](x1) - diffs[n - 1](x1)) / dt

    G1 = {n: quotient(g1, n) for n in (2, 3)}
    G2 = {n: quotient(g2, n) for n in (2, 3)}

    def ddu(x):
        return (case.u_exact(times[2], x) - 2 * case.u_exact(times[1], x) + case.u_exact(times[0], x)) / dt

    def ddw(x):
        return (case.w_exact(times[2], x) - 2 * case.w_exact(times[1], x) + case.w_exact(times[0], x)) / dt

    return FirstStepData(
        dt=float(dt),
        u_level=u_level,
        w_level=w_level,
        l_level=l_level,
        g1=g1,
        g2=g2,
        G1=G1,
        G2=G2,
        ddu=ddu,
        ddw=ddw,
    )


def _lift(x1, y):
    x1 = np.asarray(x1, dtype=float)
    return np.stack([x1, np.full_like(x1, y)], axis=-1)
