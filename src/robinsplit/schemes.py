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
        if "block" not in self._facts:
            self._facts["block"] = (
                linalg.factorize(_first_block_matrix(self)),
                _first_block_offsets(self),
            )
        return self._facts["block"]


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

# the unknown order of the start-up system; its minimum-degree fill depends on it
_BLOCK_NAMES = ("w1", "w2", "w3", "u1", "u2", "u3", "l1", "l2", "l3")


def _first_block_offsets(disc):
    """Offset of each named unknown block in the start-up system."""
    size = {"w": disc.solid.ndof, "u": disc.fluid.ndof, "l": disc.n_sig}
    offsets, start = {}, 0
    for name in _BLOCK_NAMES:
        offsets[name] = start
        start += size[name[0]]
    return offsets


def _first_block_matrix(disc):
    """Coupled system for levels 1..3; unknowns (w, u, flux) at each level.

    Row blocks carry the equations tested with solid, fluid, and trace test
    functions.  The rows for levels 2 and 3 restate the plain splitting; the
    level-1 rows couple all three levels and are driven purely by data, so
    the discrete level-0 state never enters the matrix.
    """
    cfg = disc.config
    dt, alpha = cfg.dt, cfg.alpha
    css = disc.lifted_interface_matrix("s", "s")
    csf = disc.lifted_interface_matrix("s", "f")
    csl = disc.lifted_interface_matrix("s", "l")
    cff = disc.lifted_interface_matrix("f", "f")
    cfl = disc.lifted_interface_matrix("f", "l")
    clf = disc.lifted_interface_matrix("l", "f")
    cls = disc.lifted_interface_matrix("l", "s")
    msig = disc.msig
    mass_s, stiff_s = disc.mass_s, disc.stiff_s
    mass_f, stiff_f = disc.mass_f, disc.stiff_f

    contributions = [
        # level-1 solid equation (tested with z): couples levels via data lag
        ("w1", "w2", mass_s, 1 / dt),
        ("w1", "w1", mass_s, -1 / dt),
        ("w1", "w1", stiff_s, cfg.nu_s),
        ("w1", "w1", css, alpha),
        ("w1", "u2", csf, alpha),
        ("w1", "u1", csf, -2 * alpha),
        ("w1", "l1", csl, 2.0),
        ("w1", "l2", csl, -1.0),
        # level-1 fluid equation (tested with v)
        ("u1", "u2", mass_f, 1 / dt),
        ("u1", "u1", mass_f, -1 / dt),
        ("u1", "u1", stiff_f, cfg.nu_f),
        ("u1", "u3", cff, alpha),
        ("u1", "u2", cff, -2 * alpha),
        ("u1", "u1", cff, alpha),
        ("u1", "l3", cfl, 1.0),
        ("u1", "l2", cfl, -2.0),
        # level-1 flux equation (tested with mu)
        ("l1", "u3", clf, -alpha),
        ("l1", "u2", clf, 2 * alpha),
        ("l1", "w1", cls, -alpha),
        ("l1", "l2", msig, 1.0),
        ("l1", "l1", msig, -1.0),
    ]
    for a, b in (("1", "2"), ("2", "3")):
        # plain splitting a -> b: the solid, fluid and flux rows of step_original
        contributions += [
            ("w" + b, "w" + b, mass_s, 1 / dt),
            ("w" + b, "w" + a, mass_s, -1 / dt),
            ("w" + b, "w" + b, stiff_s, cfg.nu_s),
            ("w" + b, "w" + b, css, alpha),
            ("w" + b, "u" + a, csf, -alpha),
            ("w" + b, "l" + a, csl, 1.0),
            ("u" + b, "u" + b, mass_f, 1 / dt),
            ("u" + b, "u" + a, mass_f, -1 / dt),
            ("u" + b, "u" + b, stiff_f, cfg.nu_f),
            ("u" + b, "l" + b, cfl, -1.0),
            ("l" + b, "u" + b, clf, alpha),
            ("l" + b, "w" + b, cls, -alpha),
            ("l" + b, "l" + b, msig, 1.0),
            ("l" + b, "l" + a, msig, -1.0),
        ]
    offsets = _first_block_offsets(disc)
    rows, cols, data = [], [], []
    for row, col, part, scale in contributions:
        coo = part.tocoo()
        rows.append(coo.row + offsets[row])
        cols.append(coo.col + offsets[col])
        data.append(coo.data * scale)
    mask = _first_block_dirichlet_mask(disc)
    matrix = linalg.finalize_csr(
        sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mask.size, mask.size),
        )
    )
    # the triplets outsize the summed matrix; kept through the Dirichlet
    # products they raise a start-up run's peak memory (by 28 MB at P2 k = 5)
    del rows, cols, data
    return linalg.eliminate_dirichlet(matrix, mask)


def _first_block_dirichlet_mask(disc):
    fixed = {
        "w": disc.solid.dirichlet_mask,
        "u": disc.fluid.dirichlet_mask,
        "l": np.zeros(disc.n_sig, dtype=bool),
    }
    return np.concatenate([fixed[name[0]] for name in _BLOCK_NAMES])


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


def _first_block_rhs(case, config, disc, offsets):
    dt, alpha = config.dt, config.alpha
    ddw, ddu, g1_2, g1_3, g2_2, g2_3 = _first_step_loads(case, config, disc)
    parts = [
        ("w1", ddw),
        ("w1", disc.lift_s(alpha * dt * g1_2 - dt * g2_2)),
        ("w1", disc.load_s(case.f_s, dt)),
        ("u1", ddu),
        ("u1", disc.lift_f(alpha * dt * g1_3 + dt * g2_3)),
        ("u1", disc.load_f(case.f_f, dt)),
        ("l1", -alpha * dt * g1_3 + dt * g2_2),
        ("w2", disc.load_s(case.f_s, 2 * dt)),
        ("u2", disc.load_f(case.f_f, 2 * dt)),
        ("w3", disc.load_s(case.f_s, 3 * dt)),
        ("u3", disc.load_f(case.f_f, 3 * dt)),
    ]
    mask = _first_block_dirichlet_mask(disc)
    rhs = np.zeros(mask.size)
    for name, vec in parts:
        rhs[offsets[name] : offsets[name] + vec.size] += vec
    rhs[mask] = 0.0
    return rhs


def solve_first_block_improved(case, config, disc):
    """Solve the coupled start-up system; returns states at levels 1, 2, 3."""
    fact, offsets = disc.first_block_factorization()
    x = fact.solve(_first_block_rhs(case, config, disc, offsets))
    block = dict(zip(_BLOCK_NAMES, np.split(x, [offsets[n] for n in _BLOCK_NAMES[1:]])))
    return tuple(
        DiscreteState(
            n=level,
            u=block[f"u{level}"].copy(),
            w=block[f"w{level}"].copy(),
            lam=block[f"l{level}"].copy(),
        )
        for level in (1, 2, 3)
    )


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
