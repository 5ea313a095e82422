"""Reference error quantities recomputed from every stored level of a run.

These are the cross-check for ``diagnostics.ErrorAccumulator``: they take
``states = list(run(...))``, indexed by level, and evaluate each quantity
pair by pair through the plain error norms of ``fem``, with the exact field
sampled at each time rather than scaled by ``time_factor``.
"""

import math

from robinsplit import fem
from robinsplit.diagnostics import SUMMED_QUANTITIES, ErrorReport


def _frozen_diff(f, ta, tb):
    return lambda _t, x: f(ta, x) - f(tb, x)


def final_time_errors(states, case, disc):
    """Final-time quantities recomputed from the last two states."""
    config = disc.config
    N = config.n_steps
    T = config.T
    tp = T - config.dt
    sN, sP = states[N], states[N - 1]
    fluid, solid = disc.fluid, disc.solid
    return ErrorReport(
        dt=config.dt,
        h=1.0 / config.nx,
        e_u=fem.l2_error(fluid, sN.u, case.u_exact, T),
        e_du=fem.l2_error(fluid, sN.u - sP.u, _frozen_diff(case.u_exact, T, tp), 0.0),
        e_dw=fem.l2_error(solid, sN.w - sP.w, _frozen_diff(case.w_exact, T, tp), 0.0),
        e_gdu=fem.h1_semi_error(fluid, sN.u - sP.u, _frozen_diff(case.grad_u, T, tp), 0.0),
    )


def summed_errors(states, case, disc):
    """Summed quantities recomputed pair by pair from every level."""
    config = disc.config
    N = config.n_steps
    dt = config.dt
    fluid, solid = disc.fluid, disc.solid
    sums = dict.fromkeys(SUMMED_QUANTITIES, 0.0)
    for n in range(1, N):
        a, b = states[n], states[n + 1]
        ta, tb = n * dt, (n + 1) * dt
        sums["e_gdus"] += (
            fem.h1_semi_error(fluid, b.u - a.u, _frozen_diff(case.grad_u, tb, ta), 0.0) ** 2
        )
        sums["e_gdws"] += (
            fem.h1_semi_error(solid, b.w - a.w, _frozen_diff(case.grad_w, tb, ta), 0.0) ** 2
        )
        sums["e_dls"] += (
            fem.sigma_l2_error(
                fluid,
                b.lam - a.lam,
                lambda _t, x1, _ta=ta, _tb=tb: case.l_exact(_tb, x1) - case.l_exact(_ta, x1),
                0.0,
            )
            ** 2
        )
        sums["e_ggdus"] += (
            fem.broken_h2_seminorm_diff(
                fluid, b.u - a.u, _frozen_diff(case.hess_u, tb, ta), 0.0
            )
            ** 2
        )
    for n in range(2, N):
        a, b, c = states[n - 1], states[n], states[n + 1]
        ta, tb, tc = (n - 1) * dt, n * dt, (n + 1) * dt

        def second_diff(_t, x):
            return case.grad_u(tc, x) - 2 * case.grad_u(tb, x) + case.grad_u(ta, x)

        sums["e_gdu2s"] += (
            fem.h1_semi_error(fluid, c.u - 2 * b.u + a.u, second_diff, 0.0) ** 2
        )
    out = ErrorReport(dt=dt, h=1.0 / config.nx)
    for name, total in sums.items():
        setattr(out, name, math.sqrt(dt * total))
    return out
