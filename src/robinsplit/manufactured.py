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
its value at t = 0, and ``time_factor(0) == 1``.  Likewise each forcing
(``f_f``/``f_s``) equals ``forcing_factor(t)`` times its value at t = 0.
Time derivatives carry their own factor.  Three parts of the package rely
on this contract: the error accumulator, to evaluate exact gradients and
Hessians at the quadrature points once per run; the discretization, to
assemble one load vector per field and run; and the improved start-up, to
pose its exact first-step data as two scalars times four loads assembled
at t = 0.  Each checks it with ``check_separable`` and rejects a case that
breaks it.

Callables follow the package-wide convention: point arrays of shape (..., 2),
scalar time, vectorized numpy output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution bundle driving a manufactured run.

    ``f_f`` / ``f_s`` may be None when the forcing vanishes identically;
    ``forcing_factor`` is then None too.  ``time_factor(t)`` is the scalar
    factor that takes each exact field from its value at t = 0 to its value
    at t, and ``forcing_factor(t)`` the one that does the same for each
    forcing (see the module docstring).
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
    forcing_factor: object


def _trig_case(name, time_factor, time_derivative, forcing_factor):
    """Case with solution time_factor(t) * cos(pi x1) sin(pi x2).

    ``forcing_factor`` is the scalar factor of the forcing in front of the
    spatial profile, or None when the forcing vanishes identically.  The
    case carries it divided by its value at t = 0.
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
        f = scale = None
    else:

        def f(t, x):
            return forcing_factor(t) * profile(x)

        def scale(t):
            return forcing_factor(t) / forcing_factor(0.0)

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
        forcing_factor=scale,
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


def check_separable(case, name, factor, x, t):
    """Reject ``case`` unless its field ``name`` at (t, x) is factor(t) times
    its value at (0, x); ``factor`` names the case's scalar factor."""
    field = getattr(case, name)
    expected = getattr(case, factor)(t) * np.asarray(field(0.0, x))
    actual = np.asarray(field(t, x))
    if not np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected)):
        raise ConfigurationError(
            f"case {case.name!r}: {name} is not {factor}(t) times its value at t = 0"
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


def exact_first_step_data(case, dt):
    """(q2, q3): q_n = (c(t_n) - 2 c(t_{n-1}) + c(t_{n-2})) / dt, t_j = j dt.

    c is the case's ``time_factor``, so q_n times an exact field at t = 0 is
    that field's second-difference quotient at level n.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    c = [case.time_factor(j * dt) for j in range(4)]
    return tuple((c[n] - 2 * c[n - 1] + c[n - 2]) / dt for n in (2, 3))
