"""Time-stepping schemes for the two-field diffusion interface problem.

Three variants share one spatial discretization:

* ``original``: the loosely coupled Robin-Robin splitting.  Each step solves
  the upper ("solid") field with a Robin condition built from the previous
  lower ("fluid") trace and flux, then the fluid field with the updated
  solid trace, then updates the interface flux variable algebraically.
* ``improved``: identical except for the start-up.  The first three time
  levels are obtained from one coupled linear system whose right-hand side
  carries exact-solution samples of the initial data, after which stepping
  continues with the original splitting.  This removes the low-order error
  committed by the plain scheme in its first step.
* ``monolithic``: backward Euler on the fully coupled problem, used as a
  reference; the interface flux is recovered from the fluid-side residual.

The flux unknown lives on the interface trace space; its coefficients are
ordered like ``FeSpace.interface_dofs``.  All Dirichlet values are zero.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from . import linalg
from .errors import ConfigurationError
from .manufactured import exact_first_step_data
from .mesh import build_two_domain_mesh

VARIANTS = ("original", "improved", "monolithic")


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization parameters for one run.

    ``dt`` must divide ``T`` into at least four steps (the improved start-up
    produces levels 1..3 in one solve).  ``fe_order`` selects P1 or P2.
    """

    dt: float
    T: float
    nx: int
    fe_order: int = 1
    variant: str = "original"
    alpha: float = 4.0
    nu_f: float = 1.0
    nu_s: float = 1.0
    split_y: float = 0.75
    diagonal: str = "criss"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.fe_order not in (1, 2):
            raise ConfigurationError(f"fe_order must be 1 or 2, got {self.fe_order!r}")
        if self.dt <= 0 or self.T <= 0:
            raise ConfigurationError("dt and T must be positive")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.nu_f <= 0 or self.nu_s <= 0:
            raise ConfigurationError("viscosities must be positive")
        n = self.T / self.dt
        if abs(n - round(n)) > 1e-9 or round(n) < 4:
            raise ConfigurationError(
                f"T/dt must be an integer >= 4, got {self.T}/{self.dt} = {n}"
            )

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class DiscreteState:
    """Coefficient vectors at one time level."""

    n: int
    u: np.ndarray
    w: np.ndarray
    lam: np.ndarray


class Discretization:
    """Assembled operators shared by all scheme variants for one config."""

    def __init__(self, config):
        self.config = config
        self.mesh = build_two_domain_mesh(config.nx, config.split_y, config.diagonal)
        self.fluid = fem.FeSpace(self.mesh, "fluid", config.fe_order)
        self.solid = fem.FeSpace(self.mesh, "solid", config.fe_order)
        self.mass_f = fem.assemble_mass(self.fluid)
        self.mass_s = fem.assemble_mass(self.solid)
        self.stiff_f = fem.assemble_stiffness(self.fluid, 1.0)
        self.stiff_s = fem.assemble_stiffness(self.solid, 1.0)
        self.msig = fem.interface_mass_matrix(self.fluid)
        self.if_f = self.fluid.interface_dofs
        self.if_s = self.solid.interface_dofs
        self.n_sig = len(self.if_f)
        self._facts = {}

    # -- small helpers -------------------------------------------------------

    def lift_f(self, local):
        out = np.zeros(self.fluid.ndof)
        out[self.if_f] = local
        return out

    def lift_s(self, local):
        out = np.zeros(self.solid.ndof)
        out[self.if_s] = local
        return out

    def lifted_interface_matrix(self, row, col):
        """Interface mass scattered into ('f'|'s'|'l') x ('f'|'s'|'l') blocks."""
        maps = {
            "f": (self.if_f, self.fluid.ndof),
            "s": (self.if_s, self.solid.ndof),
            "l": (np.arange(self.n_sig), self.n_sig),
        }
        coo = self.msig.tocoo()
        rmap, rn = maps[row]
        cmap, cn = maps[col]
        return linalg.finalize_csr(
            sp.coo_matrix((coo.data, (rmap[coo.row], cmap[coo.col])), shape=(rn, cn))
        )

    def load_f(self, f, t):
        if f is None:
            return np.zeros(self.fluid.ndof)
        return fem.assemble_load(self.fluid, f, t)

    def load_s(self, f, t):
        if f is None:
            return np.zeros(self.solid.ndof)
        return fem.assemble_load(self.solid, f, t)

    # -- factorizations, built once per run ----------------------------------

    def robin_factorizations(self):
        if "robin" not in self._facts:
            cfg = self.config
            a_s = (
                self.mass_s / cfg.dt
                + cfg.nu_s * self.stiff_s
                + cfg.alpha * self.lifted_interface_matrix("s", "s")
            )
            a_f = (
                self.mass_f / cfg.dt
                + cfg.nu_f * self.stiff_f
                + cfg.alpha * self.lifted_interface_matrix("f", "f")
            )
            a_s = linalg.eliminate_dirichlet(a_s, self.solid.dirichlet_mask)
            a_f = linalg.eliminate_dirichlet(a_f, self.fluid.dirichlet_mask)
            self._facts["robin"] = (linalg.factorize(a_s), linalg.factorize(a_f))
        return self._facts["robin"]

    def msig_factorization(self):
        if "msig" not in self._facts:
            self._facts["msig"] = linalg.factorize(self.msig)
        return self._facts["msig"]

    def monolithic_maps(self):
        if "mono_maps" not in self._facts:
            nf, ns = self.fluid.ndof, self.solid.ndof
            s2m = np.full(ns, -1, dtype=np.int64)
            s2m[self.if_s] = self.if_f
            extra = np.flatnonzero(s2m < 0)
            s2m[extra] = nf + np.arange(len(extra))
            self._facts["mono_maps"] = (s2m, nf + len(extra))
        return self._facts["mono_maps"]

    def monolithic_factorization(self):
        if "mono" not in self._facts:
            cfg = self.config
            s2m, dim = self.monolithic_maps()

            def reindex(matrix, rmap, cmap):
                coo = matrix.tocoo()
                return sp.coo_matrix(
                    (coo.data, (rmap[coo.row], cmap[coo.col])), shape=(dim, dim)
                )

            ident = np.arange(self.fluid.ndof)
            mono_mass = reindex(self.mass_f, ident, ident) + reindex(self.mass_s, s2m, s2m)
            mono_stiff = cfg.nu_f * reindex(self.stiff_f, ident, ident) + cfg.nu_s * reindex(
                self.stiff_s, s2m, s2m
            )
            mask = np.zeros(dim, dtype=bool)
            mask[np.flatnonzero(self.fluid.dirichlet_mask)] = True
            mask[s2m[self.solid.dirichlet_mask]] = True
            a = linalg.eliminate_dirichlet(mono_mass / cfg.dt + mono_stiff, mask)
            self._facts["mono"] = (
                linalg.factorize(a),
                linalg.finalize_csr(mono_mass),
                mask,
            )
        return self._facts["mono"]

    def first_block_factorization(self):
        """Factors of the improved start-up; not kept, as it runs once."""
        return _Startup(self)


def build_discretization(config):
    return Discretization(config)


# ---------------------------------------------------------------------------
# initialization and plain splitting step

def initialize(case, config, disc):
    """Interpolate the exact initial fields; Dirichlet dofs are zeroed."""
    u0 = fem.interpolate(disc.fluid, case.u_exact, 0.0)
    w0 = fem.interpolate(disc.solid, case.w_exact, 0.0)
    u0[disc.fluid.dirichlet_mask] = 0.0
    w0[disc.solid.dirichlet_mask] = 0.0
    lam0 = fem.interpolate_interface(disc.fluid, case.l_exact, 0.0)
    return DiscreteState(n=0, u=u0, w=w0, lam=lam0)


def step_original(state, case, config, disc):
    """One step of the loosely coupled splitting: solid, fluid, flux update."""
    dt, alpha = config.dt, config.alpha
    t1 = (state.n + 1) * dt
    fact_s, fact_f = disc.robin_factorizations()

    rhs_s = (
        disc.mass_s @ state.w / dt
        + disc.lift_s(disc.msig @ (alpha * state.u[disc.if_f] - state.lam))
        + disc.load_s(case.f_s, t1)
    )
    rhs_s[disc.solid.dirichlet_mask] = 0.0
    w1 = fact_s.solve(rhs_s)

    rhs_f = (
        disc.mass_f @ state.u / dt
        + disc.lift_f(disc.msig @ (state.lam + alpha * w1[disc.if_s]))
        + disc.load_f(case.f_f, t1)
    )
    rhs_f[disc.fluid.dirichlet_mask] = 0.0
    u1 = fact_f.solve(rhs_f)

    lam1 = state.lam - alpha * (u1[disc.if_f] - w1[disc.if_s])
    return DiscreteState(n=state.n + 1, u=u1, w=w1, lam=lam1)


# ---------------------------------------------------------------------------
# coupled first block of the improved variant

# The start-up system couples (w, u, flux) at levels 1, 2, 3.  Its level-1
# rows minus its level-2 rows lose their mass terms, and in the unknowns
# (D, v2, v3), D = v1 - v2, the volume rows of either field v = w, u read
#
#     nu K D = r0,    -M/dt D + nu K v2 = r1,    -M/dt v2 + (M/dt + nu K) v3 = r2
#
# plus interface-mass terms.  Those live on the interface set Gamma alone:
# the traces of (D, v2, v3) of both fields and the flux at levels 1, 2, 3.
# On the interior (neither on Gamma nor Dirichlet) the fields decouple and
# their rows are block lower bidiagonal, so the interior is eliminated by
# forward substitution over four factors, and GMRES solves the Schur
# complement on Gamma, preconditioned by an LU of its Gamma-Gamma block
# (substructuring: Quarteroni & Valli, Domain Decomposition Methods for
# PDEs, 1999, ch. 2).  Dirichlet dofs are zero and never enter.


def _interface_coupling(alpha):
    """Coefficients of the interface mass in the start-up rows on Gamma.

    Rows are the solid, fluid and flux equations at level 1 - level 2, 2, 3;
    columns the Gamma unknowns in the same order of fields and levels.
    """
    a = alpha
    return np.array(
        [
            # D_w w2  w3 D_u  u2  u3  l1  l2  l3
            [a, 0, 0, -a, 0, 0, 1, -1, 0],
            [0, a, 0, -a, -a, 0, 1, 0, 0],
            [0, 0, a, 0, -a, 0, 0, 1, 0],
            [0, 0, 0, a, -a, a, 0, -1, 1],
            [0, 0, 0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, -1],
            [-a, 0, 0, 0, a, -a, 0, 0, 0],
            [0, -a, 0, 0, a, 0, -1, 1, 0],
            [0, 0, -a, 0, 0, a, 0, -1, 1],
        ]
    )


class _FieldRows:
    """Volume rows of one field over (D, v2, v3), split into interior and trace."""

    def __init__(self, space, mass, stiff, nu, dt):
        interior = ~space.dirichlet_mask
        interior[space.interface_dofs] = False
        self.interior = np.flatnonzero(interior)
        self.trace = space.interface_dofs
        k = nu * stiff
        e = mass / dt
        b = e + k

        def rows(r, c):
            kk, ee, bb = (m[r][:, c] for m in (k, e, b))
            return sp.bmat([[kk, None, None], [-ee, kk, None], [None, -ee, bb]], format="csr")

        i, g = self.interior, self.trace
        self.e_ii = e[i][:, i]
        self.k_ii = linalg.factorize(k[i][:, i])
        self.b_ii = linalg.factorize(b[i][:, i])
        self.interior_trace = rows(i, g)
        self.trace_interior = rows(g, i)
        self.trace_trace = rows(g, g)

    def solve_interior(self, rhs):
        """Interior (D, v2, v3), stacked, by block forward substitution."""
        r0, r1, r2 = np.split(rhs, 3)
        d = self.k_ii.solve(r0)
        v2 = self.k_ii.solve(r1 + self.e_ii @ d)
        v3 = self.b_ii.solve(r2 + self.e_ii @ v2)
        return np.concatenate([d, v2, v3])

    def eliminated(self, trace_values):
        """What the interior adds to the trace rows for these trace values."""
        return self.trace_interior @ self.solve_interior(self.interior_trace @ trace_values)


class _Startup:
    """Factors of the start-up system and its solve through Gamma."""

    def __init__(self, disc):
        cfg = disc.config
        self.fields = (
            _FieldRows(disc.solid, disc.mass_s, disc.stiff_s, cfg.nu_s, cfg.dt),
            _FieldRows(disc.fluid, disc.mass_f, disc.stiff_f, cfg.nu_f, cfg.dt),
        )
        m = 3 * disc.n_sig
        self.parts = [slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m)]
        gamma = sp.block_diag(
            [f.trace_trace for f in self.fields] + [sp.csr_matrix((m, m))]
        ) + sp.kron(_interface_coupling(cfg.alpha), disc.msig)
        self.gamma = linalg.finalize_csr(gamma)
        # the nine unknowns of one interface dof side by side make the
        # Gamma-Gamma block banded, which the natural order factors with
        # far less fill than a minimum-degree ordering
        self.order = np.arange(3 * m).reshape(9, -1).T.ravel()
        self.gamma_factor = linalg.factorize(
            self.gamma[self.order][:, self.order], permc_spec="NATURAL"
        )

    def _precondition(self, r):
        x = np.empty_like(r)
        x[self.order] = self.gamma_factor.solve(r[self.order])
        return x

    def _schur(self, x):
        y = self.gamma @ x
        for field, part in zip(self.fields, self.parts):
            y[part] -= field.eliminated(x[part])
        return y

    def solve(self, rhs_w, rhs_u, rhs_l):
        """Levels 1, 2, 3 of w, u and flux, each as a (3, n) array.

        The right-hand sides are the rows at level 1 - level 2, 2, 3, shaped
        the same way.
        """
        rhs = (rhs_w, rhs_u)
        b_i = [r[:, f.interior].ravel() for f, r in zip(self.fields, rhs)]
        b_g = np.concatenate(
            [r[:, f.trace].ravel() for f, r in zip(self.fields, rhs)] + [rhs_l.ravel()]
        )
        for field, part, b in zip(self.fields, self.parts, b_i):
            b_g[part] -= field.trace_interior @ field.solve_interior(b)
        x_g = linalg.gmres(self._schur, b_g, self._precondition)
        out = []
        for field, part, b, r in zip(self.fields, self.parts, b_i, rhs):
            x = np.zeros_like(r)
            interior = field.solve_interior(b - field.interior_trace @ x_g[part])
            x[:, field.interior] = interior.reshape(3, -1)
            x[:, field.trace] = x_g[part].reshape(3, -1)
            x[0] += x[1]  # v1 = D + v2
            out.append(x)
        return (*out, x_g[self.parts[2]].reshape(3, -1))


def _first_step_loads(case, config, disc):
    """Loads of the exact first-step data: ddw, ddu, G1[2], G1[3], G2[2], G2[3].

    The last four are interface loads in interface-local ordering.
    """
    data = exact_first_step_data(case, config.dt)
    return (
        fem.assemble_load(disc.solid, data.ddw, 0.0),
        fem.assemble_load(disc.fluid, data.ddu, 0.0),
        *(
            fem.assemble_interface_load(disc.fluid, g, 0.0)
            for g in (data.G1[2], data.G1[3], data.G2[2], data.G2[3])
        ),
    )


def _startup_rhs(case, config, disc):
    """Right-hand sides of the start-up rows, as ``_Startup.solve`` takes them."""
    dt, alpha = config.dt, config.alpha
    ddw, ddu, g1_2, g1_3, g2_2, g2_3 = _first_step_loads(case, config, disc)
    rhs_w = np.array([disc.load_s(case.f_s, n * dt) for n in (1, 2, 3)])
    rhs_u = np.array([disc.load_f(case.f_f, n * dt) for n in (1, 2, 3)])
    rhs_w[0] += ddw + disc.lift_s(alpha * dt * g1_2 - dt * g2_2) - rhs_w[1]
    rhs_u[0] += ddu + disc.lift_f(alpha * dt * g1_3 + dt * g2_3) - rhs_u[1]
    rhs_l = np.zeros((3, disc.n_sig))
    rhs_l[0] = -alpha * dt * g1_3 + dt * g2_2
    return rhs_w, rhs_u, rhs_l


def solve_first_block_improved(case, config, disc):
    """Solve the coupled start-up system; returns states at levels 1, 2, 3.

    Its factors are built for this solve and freed when it returns.
    """
    w, u, lam = disc.first_block_factorization().solve(*_startup_rhs(case, config, disc))
    return tuple(DiscreteState(n=n + 1, u=u[n], w=w[n], lam=lam[n]) for n in range(3))


# ---------------------------------------------------------------------------
# monolithic reference

def step_monolithic(state, case, config, disc):
    """One backward-Euler step of the fully coupled problem.

    The interface flux is recovered from the fluid-side equation residual
    tested with interface basis functions, normalized by the interface mass.
    """
    dt = config.dt
    t1 = (state.n + 1) * dt
    fact, mono_mass, mask = disc.monolithic_factorization()
    s2m, dim = disc.monolithic_maps()
    nf = disc.fluid.ndof

    y = np.zeros(dim)
    y[s2m] = state.w
    y[: nf] = state.u  # fluid values win on the shared interface
    load_f = disc.load_f(case.f_f, t1)
    rhs = mono_mass @ y / dt
    rhs[:nf] += load_f
    rhs[s2m] += disc.load_s(case.f_s, t1)
    rhs[mask] = 0.0
    y1 = fact.solve(rhs)

    u1 = y1[:nf]
    w1 = y1[s2m]
    residual = disc.mass_f @ (u1 - state.u) / dt + config.nu_f * (disc.stiff_f @ u1) - load_f
    lam1 = disc.msig_factorization().solve(residual[disc.if_f])
    return DiscreteState(n=state.n + 1, u=u1, w=w1, lam=lam1)


# ---------------------------------------------------------------------------
# driver

def run(case, config, disc=None, initial_state=None):
    """Yield the states of one scheme variant at levels 0, 1, ..., N in order.

    Parameters
    ----------
    case : ManufacturedCase
    config : SchemeConfig
    disc : Discretization, optional
        Reused operators; built on demand.
    initial_state : DiscreteState, optional
        Replaces the interpolated initial data (used by stability checks).

    Yields
    ------
    DiscreteState
        Level 0, then one state per level up to ``config.n_steps``.  The run
        holds only the state it steps from, so memory does not grow with the
        number of steps; ``list(run(...))`` keeps them all, indexed by level.
    """
    if disc is None:
        disc = build_discretization(config)
    state = initialize(case, config, disc) if initial_state is None else initial_state
    yield state
    if config.variant == "improved":
        for state in solve_first_block_improved(case, config, disc):
            yield state
    stepper = step_monolithic if config.variant == "monolithic" else step_original
    while state.n < config.n_steps:
        state = stepper(state, case, config, disc)
        yield state


# ---------------------------------------------------------------------------
# weak residual checks (re-assembled term by term, independent of the
# composed solver matrices)

def _relative(residual, terms, free=None):
    if free is not None:
        residual = residual[free]
        terms = [t[free] for t in terms]
    scale = max((float(np.linalg.norm(t)) for t in terms), default=0.0)
    norm = float(np.linalg.norm(residual))
    if scale == 0.0:
        return 0.0 if norm == 0.0 else np.inf
    return norm / scale


def weak_residuals_original(prev, state, case, config, disc):
    """Relative residuals of the three split equations for one step."""
    dt, alpha = config.dt, config.alpha
    t1 = state.n * dt
    free_s = ~disc.solid.dirichlet_mask
    free_f = ~disc.fluid.dirichlet_mask

    terms_s = [
        disc.mass_s @ (state.w - prev.w) / dt,
        config.nu_s * (disc.stiff_s @ state.w),
        disc.lift_s(disc.msig @ (alpha * (state.w[disc.if_s] - prev.u[disc.if_f]) + prev.lam)),
        -disc.load_s(case.f_s, t1),
    ]
    terms_f = [
        disc.mass_f @ (state.u - prev.u) / dt,
        config.nu_f * (disc.stiff_f @ state.u),
        -disc.lift_f(disc.msig @ state.lam),
        -disc.load_f(case.f_f, t1),
    ]
    terms_l = [
        disc.msig @ (alpha * (state.u[disc.if_f] - state.w[disc.if_s])),
        disc.msig @ (state.lam - prev.lam),
    ]
    return {
        "solid": _relative(sum(terms_s), terms_s, free_s),
        "fluid": _relative(sum(terms_f), terms_f, free_f),
        "flux": _relative(sum(terms_l), terms_l),
    }


def block_residuals(states, case, config, disc):
    """Relative residuals of all nine equations of the coupled first block.

    Levels 2 and 3 are plain split steps, checked by ``weak_residuals_original``.
    """
    s1, s2, s3 = states
    dt, alpha = config.dt, config.alpha
    free_s = ~disc.solid.dirichlet_mask
    free_f = ~disc.fluid.dirichlet_mask
    msig = disc.msig
    ddw, ddu, g1_2, g1_3, g2_2, g2_3 = _first_step_loads(case, config, disc)

    out = {}
    terms = [
        disc.mass_s @ (s2.w - s1.w) / dt,
        config.nu_s * (disc.stiff_s @ s1.w),
        disc.lift_s(
            msig @ (alpha * (s1.w[disc.if_s] + s2.u[disc.if_f] - 2 * s1.u[disc.if_f]))
        ),
        disc.lift_s(msig @ (2 * s1.lam - s2.lam)),
        -ddw,
        -disc.lift_s(alpha * dt * g1_2 - dt * g2_2),
        -disc.load_s(case.f_s, dt),
    ]
    out["solid_1"] = _relative(sum(terms), terms, free_s)

    du32 = s3.u[disc.if_f] - s2.u[disc.if_f]
    du21 = s2.u[disc.if_f] - s1.u[disc.if_f]
    terms = [
        disc.mass_f @ (s2.u - s1.u) / dt,
        config.nu_f * (disc.stiff_f @ s1.u),
        disc.lift_f(msig @ (alpha * (du32 - du21) + s3.lam - 2 * s2.lam)),
        -ddu,
        -disc.lift_f(alpha * dt * g1_3 + dt * g2_3),
        -disc.load_f(case.f_f, dt),
    ]
    out["fluid_1"] = _relative(sum(terms), terms, free_f)

    terms = [
        msig @ (alpha * (-s3.u[disc.if_f] + 2 * s2.u[disc.if_f] - s1.w[disc.if_s])),
        msig @ (s2.lam - s1.lam),
        alpha * dt * g1_3,
        -dt * g2_2,
    ]
    out["flux_1"] = _relative(sum(terms), terms)

    for level, prev, state in ((2, s1, s2), (3, s2, s3)):
        for name, value in weak_residuals_original(prev, state, case, config, disc).items():
            out[f"{name}_{level}"] = value
    return out


def weak_residuals_monolithic(prev, state, case, config, disc):
    """Relative residuals of the coupled step and the flux recovery."""
    dt = config.dt
    t1 = state.n * dt
    _, mono_mass, mask = disc.monolithic_factorization()
    s2m, dim = disc.monolithic_maps()
    nf = disc.fluid.ndof

    def embed(u, w):
        y = np.zeros(dim)
        y[s2m] = w
        y[:nf] = u
        return y

    y0, y1 = embed(prev.u, prev.w), embed(state.u, state.w)
    load = np.zeros(dim)
    load_f = disc.load_f(case.f_f, t1)
    load[:nf] += load_f
    load[s2m] += disc.load_s(case.f_s, t1)
    stiff = np.zeros(dim)
    stiff[:nf] += config.nu_f * (disc.stiff_f @ state.u)
    stiff[s2m] += config.nu_s * (disc.stiff_s @ state.w)
    terms = [mono_mass @ (y1 - y0) / dt, stiff, -load]
    coupled = _relative(sum(terms), terms, ~mask)

    terms = [
        disc.msig @ state.lam,
        -(disc.mass_f @ (state.u - prev.u) / dt + config.nu_f * (disc.stiff_f @ state.u) - load_f)[
            disc.if_f
        ],
    ]
    return {"coupled": coupled, "flux": _relative(sum(terms), terms)}
