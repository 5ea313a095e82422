"""Error measures, energy functionals, and convergence tables.

Error fields are always (exact solution evaluated under quadrature) minus
(finite element field); interpolants of the exact solution are never used
as a stand-in.  Final-time quantities:

* ``e_u``      L2 fluid error at t = T
* ``e_du``     L2 fluid norm of the error increment over the last step
* ``e_dw``     same on the solid side
* ``e_gdu``    L2 fluid norm of the gradient of the last error increment

Summed quantities, each sqrt(dt * sum of squared step norms):

* ``e_gdus``   gradients of fluid error increments, levels (2,1) .. (N,N-1)
* ``e_gdws``   solid counterpart
* ``e_gdu2s``  gradients of second differences, levels (3,2,1) .. (N,N-1,N-2)
* ``e_dls``    interface L2 of flux error increments, same range as e_gdus
* ``e_ggdus``  elementwise Hessians of fluid error increments; for P1 fields
               the FE Hessian vanishes, so each increment is exactly
               (c_n - c_{n-1})^2 times the squared norm of the exact
               Hessian's profile (reported for completeness, meaningful for P2)

Every norm is the degree-6 quadrature sum of ``fem``.  The final-time
values and ``e_dls`` are evaluated at its points directly.  The derivative
norms of increments are split once per run (``_DerivativeNorm``): the exact
derivative is c(t) times a fixed profile, and the FE derivative is a
polynomial of degree r = 0 or 1 on each cell, so only the profile's
projection onto P_r enters each step, at 1 (r = 0) or 3 (r = 1) points per
cell; the rest is one scalar per run.

``ErrorAccumulator`` consumes the states that ``schemes.run`` yields and
keeps the previous level's coefficients and the last fluid increment, so
memory stays bounded for long runs; ``run_with_errors`` is the entry point.
The tests recompute the same numbers from every stored level through the
plain error norms of ``fem`` and check the accumulator against them.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ConfigurationError
from .schemes import build_discretization, run

FINAL_QUANTITIES = ("e_u", "e_du", "e_dw", "e_gdu")
SUMMED_QUANTITIES = ("e_gdus", "e_gdws", "e_gdu2s", "e_dls", "e_ggdus")
ALL_QUANTITIES = FINAL_QUANTITIES + SUMMED_QUANTITIES


@dataclass
class ErrorReport:
    """Error quantities of one run; unset entries are None."""

    dt: float
    h: float
    k: int = None
    e_u: float = None
    e_du: float = None
    e_dw: float = None
    e_gdu: float = None
    e_gdus: float = None
    e_gdws: float = None
    e_gdu2s: float = None
    e_dls: float = None
    e_ggdus: float = None

    def values(self):
        return {name: getattr(self, name) for name in ALL_QUANTITIES}


class ErrorAccumulator:
    """Streams error quantities out of a run, one level at a time.

    Exact gradients and Hessians enter only through a profile per run, taken
    at t = 0 and scaled by ``case.time_factor`` (see the separability
    contract in ``manufactured``), so each derivative norm of an increment
    is split once per run by ``_DerivativeNorm``.  Between levels only the
    previous level's coefficients, interface errors and fluid increment are
    kept; the final-time values use the degree-6 rule directly.
    """

    def __init__(self, case, disc, dt, n_steps):
        self.case = case
        self.disc = disc
        self.dt = dt
        self.n_steps = n_steps
        self.ftab = disc.fluid.tables(fem.ERROR_DEGREE)
        self.stab = disc.solid.tables(fem.ERROR_DEGREE)
        self.ltab = disc.fluid._line_tables()
        T = dt * n_steps
        self._norms = {
            "gf": _DerivativeNorm(disc.fluid, _profile(case, "grad_u", self.ftab["qp"], T), 1),
            "gs": _DerivativeNorm(disc.solid, _profile(case, "grad_w", self.stab["qp"], T), 1),
            "hf": _DerivativeNorm(disc.fluid, _profile(case, "hess_u", self.ftab["qp"], T), 2),
        }
        self._wf = self.ftab["wdet"].ravel()
        self._ws = self.stab["wdet"].ravel()
        self._wl = self.ltab["wdet"].ravel()
        self._prev = None
        self._inc = None
        self._sums = dict.fromkeys(SUMMED_QUANTITIES, 0.0)
        self._final = {}
        self._fvals = {}

    def observe(self, state):
        case, disc = self.case, self.disc
        n = state.n
        if self._prev is not None and self._prev["n"] != n - 1:
            raise ConfigurationError("states must be observed in consecutive order")
        t = n * self.dt
        cur = {
            "n": n,
            "c": case.time_factor(t),
            "u": state.u,
            "w": state.w,
            "lf": np.asarray(case.l_exact(t, self.ltab["qp_x"]))
            - np.einsum(
                "el,ql->eq",
                state.lam[disc.fluid._interface_cells_local],
                self.ltab["vals"],
            ),
        }
        prev, self._prev = self._prev, cur

        if n >= 2:
            # difference coefficients and time factors, not point values:
            # differencing O(1) errors at the points would cost digits
            norms = self._norms
            dc = cur["c"] - prev["c"]
            du = cur["u"] - prev["u"]
            gdu = norms["gf"](dc, du)
            self._sums["e_gdus"] += gdu
            self._sums["e_gdws"] += norms["gs"](dc, cur["w"] - prev["w"])
            self._sums["e_dls"] += _wsq(self._wl, cur["lf"] - prev["lf"])
            self._sums["e_ggdus"] += norms["hf"](dc, du)
            if n >= 3:
                dc_prev, du_prev = self._inc
                self._sums["e_gdu2s"] += norms["gf"](dc - dc_prev, du - du_prev)
            self._inc = (dc, du)

        if n >= self.n_steps - 1:
            self._fvals[n] = {
                "vf": np.asarray(case.u_exact(t, self.ftab["qp"]))
                - fem.fe_values_at_qp(disc.fluid, state.u, self.ftab),
                "vs": np.asarray(case.w_exact(t, self.stab["qp"]))
                - fem.fe_values_at_qp(disc.solid, state.w, self.stab),
            }
        if n == self.n_steps:
            prev = self._fvals[n - 1]
            cur = self._fvals[n]
            self._final["e_u"] = math.sqrt(_wsq(self._wf, cur["vf"]))
            self._final["e_du"] = math.sqrt(_wsq(self._wf, cur["vf"] - prev["vf"]))
            self._final["e_dw"] = math.sqrt(_wsq(self._ws, cur["vs"] - prev["vs"]))
            self._final["e_gdu"] = math.sqrt(gdu)

    def report(self, k=None):
        if "e_u" not in self._final:
            raise ConfigurationError("run did not reach its final level")
        out = ErrorReport(dt=self.dt, h=1.0 / self.disc.config.nx, k=k, **self._final)
        for name, total in self._sums.items():
            setattr(out, name, math.sqrt(self.dt * total))
        return out


class _DerivativeNorm:
    """Squared L2 norms of ``dc * g - D(v)``, one increment at a time.

    ``g`` is the profile of an exact derivative of order ``nder`` (1 for
    gradients, 2 for Hessians) at the points of the degree-6 rule, and D(v)
    the same derivative of the FE field v.  On each cell D(v) is a
    polynomial of degree r = order - nder (r < 0: it vanishes).  Let Pi be
    the per-cell discrete L2 projection onto P_r under the degree-6 rule and
    R the degree-6 sum of w |g - Pi g|^2.  Since g - Pi g is discretely
    orthogonal to P_r, the degree-6 sum splits exactly into

        sum w |dc g - D(v)|^2 = dc^2 R + sum_low w |dc Pi g - D(v)|^2,

    where "low" is the rule exact for degree 2r: the centroid for r = 0 and
    three points for r = 1.  Only R and Pi g at the low points are kept.
    """

    def __init__(self, space, profile, nder):
        tab = space.tables(fem.ERROR_DEGREE)
        wdet = tab["wdet"].ravel()
        r = space.order - nder
        self.space = space
        self.low = None
        if r < 0:
            self.rest = _wsq(wdet, profile)
            return
        self.low = space.tables(2 * r)
        self.derivative = (fem.fe_grads_at_qp, fem.fe_hessians_at_qp)[nder - 1]
        rule = tab["rule"]
        self.rest = _wsq(wdet, profile - _project(rule, rule.points, r, profile))
        self.projected = _project(rule, self.low["rule"].points, r, profile)
        self.weights = self.low["wdet"].ravel()

    def __call__(self, dc, v):
        total = dc * dc * self.rest
        if self.low is not None:
            fe = self.derivative(self.space, v, self.low)
            total += _wsq(self.weights, dc * self.projected - fe)
        return total


def _project(rule, points, r, values):
    """Per-cell discrete L2 projection onto P_r under ``rule``, at ``points``.

    ``values`` has shape (ncell, nq, ...) at the rule's points; ``points``
    are barycentric.  The cell's area scales both sides of the normal
    equations, so one reference matrix serves every cell.
    """

    def basis(bary):  # 1, then lambda_1 and lambda_2 for r = 1
        return np.column_stack([np.ones(len(bary)), bary[:, 1 : 1 + 2 * r]])

    b = basis(rule.points)
    wb = rule.weights[:, None] * b
    proj = basis(points) @ np.linalg.solve(b.T @ wb, wb.T)
    ncell, nq, *shape = values.shape
    return (proj @ values.reshape(ncell, nq, -1)).reshape(ncell, len(points), *shape)


def _wsq(weights, arr):
    """Quadrature sum of squared point values; one weight per point."""
    flat = arr.reshape(weights.size, -1)
    return float(np.sum(weights @ (flat * flat)))


def _profile(case, name, qp, t_check):
    """Field ``name`` of ``case`` at t = 0, checked to scale by time_factor."""
    field = getattr(case, name)
    profile = np.asarray(field(0.0, qp))
    expected = case.time_factor(t_check) * profile[:1]
    actual = np.asarray(field(t_check, qp[:1]))
    if not np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected)):
        raise ConfigurationError(
            f"case {case.name!r}: {name} is not time_factor(t) times its value at t = 0"
        )
    return profile


def run_with_errors(case, config, disc=None, k=None):
    """Run one configuration and stream its full error report."""
    if disc is None:
        disc = build_discretization(config)
    acc = ErrorAccumulator(case, disc, config.dt, config.n_steps)
    for state in run(case, config, disc=disc):
        acc.observe(state)
    return acc.report(k=k)


# ---------------------------------------------------------------------------
# energy functionals

def zs_functionals(*, solid, fluid, trace, alpha, dt, disc, nu_f=1.0, nu_s=1.0):
    """Discrete energy Z and dissipation S of one step.

    Each of ``solid``/``fluid``/``trace`` is a pair (next, prev) of
    coefficient vectors (solid field, fluid field, interface flux).  Z only
    involves the next level; S also weighs the increments.
    """
    psi1, psi0 = solid
    phi1, phi0 = fluid
    theta1, theta0 = trace
    msig = disc.msig

    def msq(mat, v):
        return float(v @ (mat @ v))

    phi1_tr = phi1[disc.if_f]
    phi0_tr = phi0[disc.if_f]
    z = (
        0.5 * msq(disc.mass_f, phi1)
        + 0.5 * msq(disc.mass_s, psi1)
        + 0.5 * dt * alpha * msq(msig, phi1_tr)
        + 0.5 * dt / alpha * msq(msig, theta1)
    )
    s = (
        dt * (nu_f * msq(disc.stiff_f, phi1) + nu_s * msq(disc.stiff_s, psi1))
        + 0.5 * msq(disc.mass_s, psi1 - psi0)
        + 0.5 * msq(disc.mass_f, phi1 - phi0)
        + 0.5
        * dt
        * alpha
        * msq(msig, (phi1_tr - phi0_tr) + (theta1 - theta0) / alpha)
    )
    return z, s


# ---------------------------------------------------------------------------
# convergence orders and tables

def convergence_orders(values):
    """Observed orders log2(previous / current); NaN where undefined."""
    out = [math.nan]
    for prev, cur in zip(values[:-1], values[1:]):
        if prev is None or cur is None or prev <= 0 or cur <= 0:
            out.append(math.nan)
        else:
            out.append(math.log2(prev / cur))
    return out


def format_columns(header, rows):
    """Text table: right-justified columns two spaces apart, header first."""
    widths = [max(len(h), *(len(r[j]) for r in rows)) for j, h in enumerate(header)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in [header, *rows])


@dataclass
class ConvergenceTable:
    """Per-level values and observed orders for a set of quantities."""

    quantities: tuple
    ks: tuple
    values: dict
    orders: dict

    @staticmethod
    def from_reports(reports, quantities):
        """Build from {k: ErrorReport}, ordered by k."""
        ks = tuple(sorted(reports))
        values = {}
        orders = {}
        for q in quantities:
            vals = [getattr(reports[k], q) for k in ks]
            values[q] = vals
            orders[q] = convergence_orders(vals)
        return ConvergenceTable(tuple(quantities), ks, values, orders)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = ["k"]
            for q in self.quantities:
                header += [q, f"{q}_order"]
            writer.writerow(header)
            for i, k in enumerate(self.ks):
                row = [k]
                for q in self.quantities:
                    row.append(repr(float(self.values[q][i])))
                    order = self.orders[q][i]
                    row.append("" if math.isnan(order) else repr(float(order)))
                writer.writerow(row)

    @staticmethod
    def read_csv(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header = rows[0]
        quantities = tuple(name for name in header[1:] if not name.endswith("_order"))
        ks = tuple(int(r[0]) for r in rows[1:])
        values = {q: [] for q in quantities}
        orders = {q: [] for q in quantities}
        for r in rows[1:]:
            for j, q in enumerate(quantities):
                values[q].append(float(r[1 + 2 * j]))
                cell = r[2 + 2 * j]
                orders[q].append(math.nan if cell == "" else float(cell))
        return ConvergenceTable(quantities, ks, values, orders)

    def format_text(self):
        """Fixed-width table with three significant digits."""
        cols = ["k"]
        for q in self.quantities:
            cols += [q, "order"]
        rows = []
        for i, k in enumerate(self.ks):
            row = [str(k)]
            for q in self.quantities:
                row.append(f"{self.values[q][i]:.2e}")
                order = self.orders[q][i]
                row.append("-" if math.isnan(order) else f"{order:.2f}")
            rows.append(row)
        return format_columns(cols, rows)
