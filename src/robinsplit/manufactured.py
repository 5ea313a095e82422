"""Manufactured solutions for the two-field diffusion interface problem.

Each case prescribes one smooth field over the whole unit square, used as
both the lower ("fluid") and upper ("solid") solution, together with the
matching volume forcing and the interface flux.  All three shipped cases
share the spatial profile cos(pi x1) sin(pi x2) with different time factors,
so the interface conditions (matching traces, balanced fluxes) hold by
construction and the flux variable is

    l(t, x1) = nu_f * d/dx2 [u](t, x1, split_y).

A case is its profiles and three scalar factors, nothing more.  It stores
each exact field once, as its profile at t = 0, a function of the points
alone (``u0``/``w0``, their gradients, the Hessian of ``u0``, the forcings
``f_f0``/``f_s0`` and the flux ``l0``).  The field at time t is
``time_factor(t)`` times its profile, with ``time_factor(0) == 1``; the
time derivatives of u and w are ``time_derivative(t)`` times their
profiles, and the forcings are ``forcing_factor(t)`` times theirs.  A case
defines no exact-field method: the package reads the profiles and factors
directly.  The discretization assembles one load per field and run, the
improved start-up poses its exact first-step data as two scalars times four
loads of profiles, and the error accumulator evaluates the exact gradients
and Hessians at the quadrature points once per run.

Profiles take point arrays of shape (..., 2) (the flux: abscissae x1) and
return vectorized numpy output; the factors take a scalar time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution of a manufactured run: profiles at t = 0 and three
    scalar factors of t.

    Every run of a case discretizes its diffusivities ``nu_f``, ``nu_s``
    (finite and positive) and interface height ``split_y``; the profiles are
    exact for the case's own diffusivities only, so a copy with others
    (``dataclasses.replace``) is a solver input, not a manufactured solution.
    ``f_f0`` / ``f_s0`` are None when the forcing vanishes identically;
    ``forcing_factor`` is then None too.
    """

    name: str
    nu_f: float
    nu_s: float
    split_y: float
    u0: object
    w0: object
    grad_u0: object
    grad_w0: object
    hess_u0: object
    l0: object
    f_f0: object
    f_s0: object
    time_factor: object
    time_derivative: object
    forcing_factor: object

    def __post_init__(self):
        for name in ("nu_f", "nu_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")


def _trig_case(name, time_factor, time_derivative, forcing_factor):
    """Case with solution time_factor(t) * cos(pi x1) sin(pi x2), exact at
    nu_f = nu_s = 1 only: ``l0`` has no nu_f, nor the examples' 2 pi^2 a nu.

    ``forcing_factor`` is the scalar factor of the forcing in front of the
    spatial profile, or None when the forcing vanishes identically.  The
    forcing profile carries its value at t = 0, and the case's factor is
    divided by that value.
    """
    pi = np.pi
    split_y = 0.75

    def u0(x):
        return np.cos(pi * x[..., 0]) * np.sin(pi * x[..., 1])

    def grad0(x):
        gx = -pi * np.sin(pi * x[..., 0]) * np.sin(pi * x[..., 1])
        gy = pi * np.cos(pi * x[..., 0]) * np.cos(pi * x[..., 1])
        return np.stack([gx, gy], axis=-1)

    def hess0(x):
        s1, c1 = np.sin(pi * x[..., 0]), np.cos(pi * x[..., 0])
        s2, c2 = np.sin(pi * x[..., 1]), np.cos(pi * x[..., 1])
        hxx = -pi * pi * c1 * s2
        hxy = -pi * pi * s1 * c2
        row1 = np.stack([hxx, hxy], axis=-1)
        row2 = np.stack([hxy, hxx], axis=-1)
        return np.stack([row1, row2], axis=-2)

    def l0(x1):
        return pi * np.cos(pi * x1) * np.cos(pi * split_y)

    if forcing_factor is None:
        f0 = scale = None
    else:
        at_0 = forcing_factor(0.0)

        def f0(x):
            return at_0 * u0(x)

        def scale(t):
            return forcing_factor(t) / at_0

    return ManufacturedCase(
        name=name,
        nu_f=1.0,
        nu_s=1.0,
        split_y=split_y,
        u0=u0,
        w0=u0,
        grad_u0=grad0,
        grad_w0=grad0,
        hess_u0=hess0,
        l0=l0,
        f_f0=f0,
        f_s0=f0,
        time_factor=time_factor,
        time_derivative=time_derivative,
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

    c is the case's ``time_factor``, so q_n times a profile is that field's
    second-difference quotient at level n.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    c = [case.time_factor(j * dt) for j in range(4)]
    return tuple((c[n] - 2 * c[n - 1] + c[n - 2]) / dt for n in (2, 3))
