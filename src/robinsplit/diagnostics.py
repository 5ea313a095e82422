"""Error measures and convergence tables.

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
cell; the rest is one scalar per run.  Each step maps the coefficient
increment to its derivative at those points through one sparse operator
per norm (``fem.derivative_operator``).

Work at the degree-6 rule's 12 points per cell (the exact profiles, their
projections and remainders, and the final-time sums) runs over chunks of
``fem.CHUNK_CELLS`` cells (``fem.quadrature_chunks``), so no (ncell, 12,
...) array exists whole.  The derivative norms are built at the first
increment (level 2): for ``improved`` that is after the start-up has
returned and freed its factors, so the two never hold memory at the same
time.

``ErrorAccumulator(disc)`` consumes the states that ``schemes.run(disc)``
yields and keeps the previous level's coefficients and the last fluid
increment, so memory stays bounded for long runs; its report refuses a
quantity that is not finite.  ``run_with_errors`` is the entry point.
The tests recompute the same numbers from every stored level through the
plain error norms of ``tests/oracles.py`` and check the accumulator against
them.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import ConfigurationError, SingularSystemError
from .schemes import Discretization, run

FINAL_QUANTITIES = ("e_u", "e_du", "e_dw", "e_gdu")
SUMMED_QUANTITIES = ("e_gdus", "e_gdws", "e_gdu2s", "e_dls", "e_ggdus")
ALL_QUANTITIES = FINAL_QUANTITIES + SUMMED_QUANTITIES

_RULE = fem.triangle_rule(fem.ERROR_DEGREE)
# derivative norms: (discretization's space, profile, derivative order)
_DERIVATIVES = {
    "gf": ("fluid", "grad_u0", 1),
    "gs": ("solid", "grad_w0", 1),
    "hf": ("fluid", "hess_u0", 2),
}


@dataclass
class ErrorReport:
    """Error quantities of one run; unset entries are None.

    ``factors`` and ``startup`` are the run's ``Discretization`` records
    (see ``schemes``); they are not quantities, and equality ignores them.
    """

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
    factors: list = field(default=None, compare=False)
    startup: dict = field(default=None, compare=False)

    def values(self):
        return {name: getattr(self, name) for name in ALL_QUANTITIES}


class ErrorAccumulator:
    """Streams error quantities out of a run, one level at a time.

    Every case is separable by construction (see ``manufactured``): each
    exact field is ``case.time_factor`` times its profile.  So each profile
    is evaluated once per run (the flux's at the interface points, u's and
    w's per chunk of the final-time sums), and each derivative norm of an
    increment is split once per run by ``_DerivativeNorm``, at the first
    increment (level 2), after the improved start-up has freed its factors.
    Between levels only the previous level's coefficients, interface errors
    and fluid increment are kept.
    """

    def __init__(self, disc):
        self.disc = disc
        self.dt = disc.config.dt
        self.n_steps = disc.config.n_steps
        self.ltab = disc.fluid._line_tables
        self._l0 = disc.case.l0(self.ltab["qp_x"])
        self._wl = self.ltab["wdet"].ravel()
        self._norms = None
        self._prev = None
        self._inc = None
        self._gdu = None
        self._sums = dict.fromkeys(SUMMED_QUANTITIES, 0.0)
        self._final = {}

    def observe(self, state):
        disc, case = self.disc, self.disc.case
        n = state.n
        if self._prev is not None and self._prev["n"] != n - 1:
            raise ConfigurationError("states must be observed in consecutive order")
        c = case.time_factor(n * self.dt)
        cur = {
            "n": n,
            "c": c,
            "u": state.u,
            "w": state.w,
            "lf": c * self._l0
            - np.einsum(
                "el,ql->eq",
                state.lam[disc.fluid._interface_cells_local],
                self.ltab["vals"],
            ),
        }
        prev, self._prev = self._prev, cur

        if n >= 2:
            if self._norms is None:
                self._norms = {
                    key: _DerivativeNorm(getattr(disc, space), case, name, nder)
                    for key, (space, name, nder) in _DERIVATIVES.items()
                }
            # difference coefficients and time factors, not point values:
            # differencing O(1) errors at the points would cost digits
            norms = self._norms
            dc = cur["c"] - prev["c"]
            du = cur["u"] - prev["u"]
            self._gdu = norms["gf"](dc, du)
            self._sums["e_gdus"] += self._gdu
            self._sums["e_gdws"] += norms["gs"](dc, cur["w"] - prev["w"])
            self._sums["e_dls"] += _wsq(self._wl, cur["lf"] - prev["lf"])
            self._sums["e_ggdus"] += norms["hf"](dc, du)
            if n >= 3:
                dc_prev, du_prev = self._inc
                self._sums["e_gdu2s"] += norms["gf"](dc - dc_prev, du - du_prev)
            self._inc = (dc, du)

        if n == self.n_steps:
            e_u, e_du = _final_sums(disc.fluid, case.u0, c, state.u, prev["c"], prev["u"])
            _, e_dw = _final_sums(disc.solid, case.w0, c, state.w, prev["c"], prev["w"])
            self._final = {
                "e_u": math.sqrt(e_u),
                "e_du": math.sqrt(e_du),
                "e_dw": math.sqrt(e_dw),
                "e_gdu": math.sqrt(self._gdu),
            }

    def report(self, k=None):
        """The run's ``ErrorReport``; SingularSystemError names every
        quantity that is not finite, so no inf or NaN reaches a table."""
        if "e_u" not in self._final:
            raise ConfigurationError("run did not reach its final level")
        out = ErrorReport(dt=self.dt, h=1.0 / self.disc.config.nx, k=k, **self._final)
        for name, total in self._sums.items():
            setattr(out, name, math.sqrt(self.dt * total))
        bad = [f"{q} = {v}" for q, v in out.values().items() if not math.isfinite(v)]
        if bad:
            raise SingularSystemError(f"non-finite error quantities: {', '.join(bad)}")
        return out


def _final_sums(space, profile, c, v, c_before, v_before):
    """Squared norms of the error c g - v and of its increment from
    c_before g - v_before, at the rule's points; g is the exact field's
    profile, evaluated once per chunk."""
    vals = fem._shape_values(space.order, _RULE.points).T
    total = increment = 0.0
    for cells, wdet, qp in fem.quadrature_chunks(space, _RULE):
        dofs = space.cell_dofs[cells]
        g = profile(qp)
        err = c * g - v[dofs] @ vals
        err_before = c_before * g - v_before[dofs] @ vals
        total += _wsq(wdet.ravel(), err)
        increment += _wsq(wdet.ravel(), err - err_before)
    return total, increment


class _DerivativeNorm:
    """Squared L2 norms of ``dc * g - D(v)``, one increment at a time.

    ``g`` is the case's profile ``name`` of the exact derivative of order
    ``nder`` (1 for gradients, 2 for Hessians), and D(v) the same
    derivative of the FE field v.  On each cell D(v) is a polynomial of
    degree r = order - nder (r < 0: it vanishes).  Let Pi be the per-cell
    discrete L2 projection onto P_r under the degree-6 rule and R the
    degree-6 sum of w |g - Pi g|^2.  Since g - Pi g is discretely orthogonal
    to P_r, the degree-6 sum splits exactly into

        sum w |dc g - D(v)|^2 = dc^2 R + sum_low w |dc Pi g - D(v)|^2,

    where "low" is the rule exact for degree 2r: the centroid for r = 0 and
    three points for r = 1.  Only R, Pi g at the low points and the sparse
    map from coefficients to D(v) there are kept; the profile is evaluated
    ``fem.CHUNK_CELLS`` cells at a time.
    """

    def __init__(self, space, case, name, nder):
        r = space.order - nder
        self.operator = None
        profile = getattr(case, name)
        chunks = (
            (w.ravel(), profile(qp))
            for _, w, qp in fem.quadrature_chunks(space, _RULE)
        )
        if r < 0:
            self.rest = sum(_wsq(w, g) for w, g in chunks)
            return
        low = fem.triangle_rule(2 * r)
        self.operator = fem.derivative_operator(space, low, nder)
        self.weights = (space._areas[:, None] * low.weights).ravel()
        to_rule, to_low = _projector(_RULE.points, r), _projector(low.points, r)
        self.rest = 0.0
        projected = []
        for w, g in chunks:
            self.rest += _wsq(w, g - _project(to_rule, g))
            projected.append(_project(to_low, g).ravel())
        self.projected = np.concatenate(projected)

    def __call__(self, dc, v):
        total = dc * dc * self.rest
        if self.operator is not None:
            total += _wsq(self.weights, dc * self.projected - self.operator @ v)
        return total


def _projector(points, r):
    """Per-cell discrete L2 projection onto P_r under the degree-6 rule.

    The matrix maps values at the rule's points to the projection's values
    at ``points`` (barycentric).  The cell's area scales both sides of the
    normal equations, so one reference matrix serves every cell.
    """

    def basis(bary):  # 1, then lambda_1 and lambda_2 for r = 1
        return np.column_stack([np.ones(len(bary)), bary[:, 1 : 1 + 2 * r]])

    b = basis(_RULE.points)
    wb = _RULE.weights[:, None] * b
    return basis(points) @ np.linalg.solve(b.T @ wb, wb.T)


def _project(proj, values):
    """Apply ``_projector``'s matrix to ``values`` of shape (ncell, 12, ...)."""
    ncell, nq, *shape = values.shape
    return (proj @ values.reshape(ncell, nq, -1)).reshape(ncell, len(proj), *shape)


def _wsq(weights, arr):
    """Quadrature sum of squared point values; one weight per point."""
    flat = arr.reshape(weights.size, -1)
    with np.errstate(over="ignore"):  # an overflow is an inf the report refuses
        return float(np.sum(weights @ (flat * flat)))


def run_with_errors(case, config, k=None):
    """Run one configuration and stream its full error report; the run and
    the accumulator share one ``Discretization(config, case)``, whose factor
    and start-up records the report carries."""
    disc = Discretization(config, case)
    acc = ErrorAccumulator(disc)
    for state in run(disc):
        acc.observe(state)
    report = acc.report(k=k)
    report.factors, report.startup = disc.factors, disc.startup
    return report


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


def order_cell(order, text=False):
    """An observed order as a cell: '-' or .2f in text, blank or the number in a CSV."""
    if math.isnan(order):
        return "-" if text else ""
    return f"{order:.2f}" if text else order


def write_csv(path, header, rows):
    """The one CSV format: UTF-8, LF line endings, header row, floats as ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, (int, str)) else repr(float(c)) for c in row])


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
        header, rows = ["k"], [[k] for k in self.ks]
        for q in self.quantities:
            header += [q, f"{q}_order"]
            for row, value, order in zip(rows, self.values[q], self.orders[q]):
                row += [value, order_cell(order)]
        write_csv(path, header, rows)

    def format_text(self):
        """Fixed-width table with three significant digits."""
        cols = ["k"]
        for q in self.quantities:
            cols += [q, "order"]
        rows = []
        for i, k in enumerate(self.ks):
            row = [str(k)]
            for q in self.quantities:
                row += [f"{self.values[q][i]:.2e}", order_cell(self.orders[q][i], text=True)]
            rows.append(row)
        return format_columns(cols, rows)
