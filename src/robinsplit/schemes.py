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

A run is its Discretization: ``run(disc)`` steps the operators of
``Discretization(config, case)``, which takes the diffusivities ``nu_f`` and
``nu_s`` and the interface height ``split_y`` from the case alone.  Every
step and check reads the case and the config through its ``disc``, so none
can meet a dt or alpha that its factors were not built for, and a caller
that checks a run's states holds the operators that produced them.

The flux unknown lives on the interface trace space; its coefficients are
ordered like ``FeSpace.interface_dofs``.  All Dirichlet values are zero, and
every system is solved on the free dofs alone.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from . import linalg
from .errors import ConfigurationError
from .manufactured import exact_first_step_data
from .mesh import build_two_domain_mesh

VARIANTS = ("original", "improved", "monolithic")

# the most time steps a run may take: 128 times the 512 of the largest
# study (k = 8 at T = 1), so a T/dt too large to run is refused, not run
MAX_STEPS = 2**16


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization parameters for one run.

    ``dt`` must divide ``T`` into at least four steps (the improved start-up
    produces levels 1..3 in one solve) and at most ``MAX_STEPS``.
    ``fe_order`` selects P1 or P2.  The problem's diffusivities and
    interface height belong to the case.
    """

    dt: float
    T: float
    nx: int
    fe_order: int = 1
    variant: str = "original"
    alpha: float = 4.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.fe_order not in (1, 2):
            raise ConfigurationError(f"fe_order must be 1 or 2, got {self.fe_order!r}")
        for name in ("dt", "T", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")
        n = self.T / self.dt
        if n > MAX_STEPS:
            raise ConfigurationError(
                f"T/dt = {self.T}/{self.dt} = {n:g} steps, more than MAX_STEPS = {MAX_STEPS}"
            )
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
    """Assembled operators of one case under one config, shared by all
    scheme variants.  The mesh is split at the case's ``split_y``, and the
    factorizations and loads use the case's ``nu_f``, ``nu_s`` and forcing.

    ``factors`` records each factorization it builds as its ``kind`` (the
    method that built it: ``startup``, ``robin`` or ``monolithic``), ``n``,
    nnz(A) ``nnz_a``, SuperLU's ``nnz_lu`` and ``seconds``, in build order;
    ``solve_first_block_improved`` fills ``startup``, None otherwise."""

    def __init__(self, config, case):
        self.config = config
        self.case = case
        mesh = build_two_domain_mesh(config.nx, case.split_y)
        self.fluid = fem.FeSpace(mesh, "fluid", config.fe_order)
        self.solid = fem.FeSpace(mesh, "solid", config.fe_order)
        self.mass_f = fem.assemble_mass(self.fluid)
        self.mass_s = fem.assemble_mass(self.solid)
        self.stiff_f = fem.assemble_stiffness(self.fluid)
        self.stiff_s = fem.assemble_stiffness(self.solid)
        self.msig = fem.interface_mass_matrix(self.fluid)
        self.if_f = self.fluid.interface_dofs
        self.if_s = self.solid.interface_dofs
        self.n_sig = len(self.if_f)
        # every solve is posed on the dofs off the Dirichlet boundary
        self.free_f = np.flatnonzero(~self.fluid.dirichlet_mask)
        self.free_s = np.flatnonzero(~self.solid.dirichlet_mask)
        self._facts = {}
        self.factors = []
        self.startup = None

    # -- small helpers -------------------------------------------------------

    def lift_f(self, local):
        out = np.zeros(self.fluid.ndof)
        out[self.if_f] = local
        return out

    def lift_s(self, local):
        out = np.zeros(self.solid.ndof)
        out[self.if_s] = local
        return out

    def load_f(self, t):
        """Fluid load at time t."""
        return self._load("f_f0", self.fluid, t)

    def load_s(self, t):
        """Solid load at time t."""
        return self._load("f_s0", self.solid, t)

    def _load(self, name, space, t):
        # one assembly of the forcing profile per field, scaled by
        # case.forcing_factor
        key = ("load", name)
        if key not in self._facts:
            f0 = getattr(self.case, name)
            self._facts[key] = None if f0 is None else fem.assemble_load(space, f0)
        load = self._facts[key]
        return np.zeros(space.ndof) if load is None else self.case.forcing_factor(t) * load

    # -- factorizations, built once per run ----------------------------------

    def _factorize(self, kind, matrix, **options):
        """``linalg.factorize``, recorded in ``factors`` under ``kind``."""
        fact = linalg.factorize(matrix, **options)
        self.factors.append(
            {"kind": kind, "n": fact.shape[0], "nnz_a": fact.nnz_a, "nnz_lu": fact.nnz,
             "seconds": fact.seconds}
        )
        return fact

    def robin_factorizations(self):
        """Robin factors (solid, fluid), each on its field's free dofs.

        The fluid, the larger field at ``split_y`` = 0.75, is factored
        first, so the largest factorization workspace meets no resident
        factor; each matrix is built just before its LU.
        """
        if "robin" not in self._facts:
            cfg, case = self.config, self.case

            def factor(free, trace, mass, stiff, nu):
                # alpha M_Sigma at the trace's positions among the free dofs
                interface = _placed(self.msig, np.searchsorted(free, trace), free.size)
                a = (mass / cfg.dt + nu * stiff)[free][:, free] + cfg.alpha * interface
                return self._factorize("robin", a)

            fact_f = factor(self.free_f, self.if_f, self.mass_f, self.stiff_f, case.nu_f)
            fact_s = factor(self.free_s, self.if_s, self.mass_s, self.stiff_s, case.nu_s)
            self._facts["robin"] = (fact_s, fact_f)
        return self._facts["robin"]

    def monolithic_factorization(self):
        """The monolithic step's LU on its free dofs, its mass, the free
        dofs, ``s2m`` and the interface-mass LU, which recovers the flux.

        ``s2m`` maps each solid dof to its monolithic dof: the fluid's on the
        interface, one past the fluid's dofs elsewhere.
        """
        if "mono" not in self._facts:
            cfg, case = self.config, self.case
            nf = self.fluid.ndof
            s2m = np.full(self.solid.ndof, -1, dtype=np.int64)
            s2m[self.if_s] = self.if_f
            extra = np.flatnonzero(s2m < 0)
            s2m[extra] = nf + np.arange(len(extra))
            dim = nf + len(extra)
            ident = np.arange(nf)
            mono_mass = _placed(self.mass_f, ident, dim) + _placed(self.mass_s, s2m, dim)
            mono_stiff = case.nu_f * _placed(self.stiff_f, ident, dim)
            mono_stiff += case.nu_s * _placed(self.stiff_s, s2m, dim)
            free = np.union1d(self.free_f, s2m[self.free_s])
            self._facts["mono"] = (
                self._factorize("monolithic", (mono_mass / cfg.dt + mono_stiff)[free][:, free]),
                linalg.finalize_csr(mono_mass),
                free,
                s2m,
                self._factorize("monolithic", self.msig),
            )
        return self._facts["mono"]

    def first_block_factorization(self):
        """Factors of the improved start-up; not kept, as it runs once."""
        return _Startup(self)


def _placed(matrix, at, n):
    """``matrix`` as an n x n COO with its row and column i at ``at[i]``."""
    coo = matrix.tocoo()
    return sp.coo_matrix((coo.data, (at[coo.row], at[coo.col])), shape=(n, n))


# ---------------------------------------------------------------------------
# initialization and plain splitting step

def initialize(disc):
    """Interpolate the exact initial fields; Dirichlet dofs are zeroed."""
    case = disc.case
    u0 = fem.interpolate(disc.fluid, case.u0)
    w0 = fem.interpolate(disc.solid, case.w0)
    u0[disc.fluid.dirichlet_mask] = 0.0
    w0[disc.solid.dirichlet_mask] = 0.0
    lam0 = fem.interpolate_interface(disc.fluid, case.l0)
    return DiscreteState(n=0, u=u0, w=w0, lam=lam0)


def _solve_free(fact, rhs, free):
    """Solve on the free dofs; the Dirichlet dofs of the result are zero."""
    out = np.zeros(rhs.size)
    out[free] = fact.solve(rhs[free])
    return out


def step_original(state, disc):
    """One step of the loosely coupled splitting: solid, fluid, flux update."""
    dt, alpha = disc.config.dt, disc.config.alpha
    t1 = (state.n + 1) * dt
    fact_s, fact_f = disc.robin_factorizations()

    rhs_s = (
        disc.mass_s @ state.w / dt
        + disc.lift_s(disc.msig @ (alpha * state.u[disc.if_f] - state.lam))
        + disc.load_s(t1)
    )
    w1 = _solve_free(fact_s, rhs_s, disc.free_s)

    rhs_f = (
        disc.mass_f @ state.u / dt
        + disc.lift_f(disc.msig @ (state.lam + alpha * w1[disc.if_s]))
        + disc.load_f(t1)
    )
    u1 = _solve_free(fact_f, rhs_f, disc.free_f)

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
# complement on Gamma (substructuring: Quarteroni & Valli, Domain
# Decomposition Methods for PDEs, 1999, ch. 2).  Its preconditioner is an LU
# of the start-up system on Gamma plus the interior dofs within
# STARTUP_BAND_LAYERS cell layers of the interface: solved with zeros on that
# band, it applies the inverse of the Gamma block minus the band's exact
# Schur correction, which recovers most of what the interior elimination
# adds (Smith, Bjorstad & Gropp, Domain Decomposition, 1996, ch. 4).  That
# band system is assembled once, directly in the x order of its unknowns,
# and Gamma's block is read off it.  With two layers, example3 P2 k = 5 and
# 7 take 16 and 29 GMRES iterations, where the Gamma block alone took 52 and
# 72.  Dirichlet dofs are zero and never enter.
STARTUP_BAND_LAYERS = 2


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


# The volume rows above are kron(_LEVEL_K, nu K) + kron(_LEVEL_E, M/dt): the
# coefficients of nu K and of M/dt, rows at level 1 - level 2, 2, 3 and
# columns D, v2, v3.
_LEVEL_K = np.eye(3)
_LEVEL_E = np.array([[0, 0, 0], [-1, 0, 0], [0, -1, 1]])


def _level_rows(stiff_block, mass_block, nu, dt):
    """kron(_LEVEL_K, nu K) + kron(_LEVEL_E, M/dt) on one block of K and M.

    nu and 1/dt scale the level matrices, which gives every entry the
    product it has in nu K and M/dt without a scaled copy of either.
    """
    return (
        sp.kron(nu * _LEVEL_K, stiff_block, format="csr")
        + sp.kron(_LEVEL_E / dt, mass_block, format="csr")
    )


class _FieldRows:
    """Volume rows of one field over (D, v2, v3), split into interior and trace.

    ``band`` holds the interior dofs within ``STARTUP_BAND_LAYERS`` cell
    layers of the interface, which the preconditioner eliminates exactly;
    ``near_rows`` are the rows of ``near``, the band then the trace, against
    themselves.  ``factorize`` builds the two interior LUs.
    """

    def __init__(self, factorize, space, mass, stiff, nu, dt):
        interior = ~space.dirichlet_mask
        interior[space.interface_dofs] = False
        self.interior = np.flatnonzero(interior)
        self.trace = space.interface_dofs
        # cell layers from the interface, whose cells are as high as they
        # are wide; the tolerance absorbs the rounding of grid coordinates
        y = space.dof_coords[:, 1]
        layers = np.abs(y - y[self.trace[0]]) / space._interface_lengths[0]
        self.band = self.interior[layers[self.interior] <= STARTUP_BAND_LAYERS + 1e-9]
        self.near = np.concatenate([self.band, self.trace])
        i, g, n = self.interior, self.trace, self.near
        # the LUs first, each matrix built just before its own and dropped
        # after it: no other copy or slice is resident during a
        # factorization, and the rows below reuse the memory its workspace
        # freed (example3 P2 k = 6: VmHWM 243 MiB, against 249-259 MiB with
        # the rows built first)
        self.b_ii = factorize((nu * stiff + mass / dt)[i][:, i])
        self.k_ii = factorize((nu * stiff)[i][:, i])
        k_r, m_r = stiff[i], mass[i]
        self.e_ii = m_r[:, i] / dt
        self.interior_trace = _level_rows(k_r[:, g], m_r[:, g], nu, dt)
        self.trace_interior = _level_rows(stiff[g][:, i], mass[g][:, i], nu, dt)
        self.near_rows = _level_rows(stiff[n][:, n], mass[n][:, n], nu, dt)

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
        cfg, case = disc.config, disc.case

        def factorize(matrix, **options):
            return disc._factorize("startup", matrix, **options)

        # the fluid, the field with more interior dofs at split_y = 0.75, is
        # built and factored first and the band LU last: each factorization's
        # workspace then meets the fewest resident factors it can
        fluid = _FieldRows(factorize, disc.fluid, disc.mass_f, disc.stiff_f, case.nu_f, cfg.dt)
        solid = _FieldRows(factorize, disc.solid, disc.mass_s, disc.stiff_s, case.nu_s, cfg.dt)
        self.fields = (solid, fluid)
        m = 3 * disc.n_sig
        self.parts = [slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m)]
        # the start-up system on (band of each field, Gamma), with its
        # unknowns band_s, band_f, trace_s, trace_f, flux, each level-major,
        # placed in the stable order of their x coordinates: so ordered it
        # is banded, and the natural order factors it with far less fill
        # than a minimum-degree ordering
        x = [
            np.tile(space.dof_coords[f.band, 0], 3)
            for f, space in zip(self.fields, (disc.solid, disc.fluid))
        ]
        x = np.concatenate(x + [np.tile(disc.fluid.interface_x, 9)])
        position = np.empty(x.size, dtype=np.intp)
        position[np.argsort(x, kind="stable")] = np.arange(x.size)
        self.gamma_position = position[x.size - 3 * m :]
        bands = np.split(position[: x.size - 3 * m], [3 * solid.band.size])
        system = _placed(
            sp.kron(_interface_coupling(cfg.alpha), disc.msig), self.gamma_position, x.size
        )
        for field, band, part in zip(self.fields, bands, self.parts):
            # near_rows runs over the band, then the trace, at each level
            trace = self.gamma_position[part]
            near = np.hstack([band.reshape(3, -1), trace.reshape(3, -1)]).ravel()
            system = system + _placed(field.near_rows, near, x.size)
        system = linalg.finalize_csr(system)
        # sorted columns give the Schur product the sums of canonical CSR
        self.gamma = system[self.gamma_position][:, self.gamma_position].sorted_indices()
        self.band_factor = factorize(system, permc_spec="NATURAL")

    def _precondition(self, r):
        z = np.zeros(self.band_factor.shape[0])
        z[self.gamma_position] = r
        return self.band_factor.solve(z)[self.gamma_position]

    def _schur(self, x):
        y = self.gamma @ x
        for field, part in zip(self.fields, self.parts):
            y[part] -= field.eliminated(x[part])
        return y

    def solve(self, rhs_w, rhs_u, rhs_l):
        """Levels 1, 2, 3 of w, u and flux, each a (3, n) array; the GMRES record.

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
        x_g, record = linalg.gmres(self._schur, b_g, self._precondition)
        out = []
        for field, part, b, r in zip(self.fields, self.parts, b_i, rhs):
            x = np.zeros_like(r)
            interior = field.solve_interior(b - field.interior_trace @ x_g[part])
            x[:, field.interior] = interior.reshape(3, -1)
            x[:, field.trace] = x_g[part].reshape(3, -1)
            x[0] += x[1]  # v1 = D + v2
            out.append(x)
        return (*out, x_g[self.parts[2]].reshape(3, -1)), record


def _first_step_loads(disc):
    """Loads of the exact first-step data: q2 W, q2 U, q2 G, q3 G, q2 L, q3 L.

    W, U, G and L load the case's profiles of w, u, the trace of u and the
    flux l; G and L are in interface-local ordering.
    """
    case = disc.case
    q2, q3 = exact_first_step_data(case, disc.config.dt)

    def trace(x1):
        return case.u0(np.stack([x1, np.full_like(x1, case.split_y)], axis=-1))

    w = fem.assemble_load(disc.solid, case.w0)
    u = fem.assemble_load(disc.fluid, case.u0)
    g = fem.assemble_interface_load(disc.fluid, trace)
    l = fem.assemble_interface_load(disc.fluid, case.l0)
    return q2 * w, q2 * u, q2 * g, q3 * g, q2 * l, q3 * l


def _startup_rhs(disc):
    """Right-hand sides of the start-up rows, as ``_Startup.solve`` takes them."""
    dt, alpha = disc.config.dt, disc.config.alpha
    ddw, ddu, g1_2, g1_3, g2_2, g2_3 = _first_step_loads(disc)
    rhs_w = np.array([disc.load_s(n * dt) for n in (1, 2, 3)])
    rhs_u = np.array([disc.load_f(n * dt) for n in (1, 2, 3)])
    rhs_w[0] += ddw + disc.lift_s(alpha * dt * g1_2 - dt * g2_2) - rhs_w[1]
    rhs_u[0] += ddu + disc.lift_f(alpha * dt * g1_3 + dt * g2_3) - rhs_u[1]
    rhs_l = np.zeros((3, disc.n_sig))
    rhs_l[0] = -alpha * dt * g1_3 + dt * g2_2
    return rhs_w, rhs_u, rhs_l


def solve_first_block_improved(case, config, disc):
    """Solve the coupled start-up system; returns states at levels 1, 2, 3.

    ``case`` and ``config`` are unread (all comes from ``disc``); they stay
    only because the benchmark's tracer (``perfbench/tracing.py``) keeps
    this call's first three arguments and passes them to ``block_residuals``.

    Its factors are built for this solve and freed when it returns.  The
    right-hand side is assembled first, so the loads' transients are freed
    before the first factorization.  ``disc.startup`` records the system's
    size (Dirichlet dofs included), the seconds of this call and the GMRES
    record (``linalg.gmres``).
    """
    t0 = time.perf_counter()
    rhs = _startup_rhs(disc)
    (w, u, lam), gmres = disc.first_block_factorization().solve(*rhs)
    disc.startup = {
        "unknowns": 3 * (disc.fluid.ndof + disc.solid.ndof + disc.n_sig),
        "seconds": time.perf_counter() - t0,
        "gmres": gmres,
    }
    return tuple(DiscreteState(n=n + 1, u=u[n], w=w[n], lam=lam[n]) for n in range(3))


# ---------------------------------------------------------------------------
# monolithic reference

def step_monolithic(state, disc):
    """One backward-Euler step of the fully coupled problem.

    The interface flux is recovered from the fluid-side equation residual
    tested with interface basis functions, normalized by the interface mass.
    """
    dt = disc.config.dt
    t1 = (state.n + 1) * dt
    fact, mono_mass, free, s2m, msig_fact = disc.monolithic_factorization()
    nf = disc.fluid.ndof

    y = np.zeros(mono_mass.shape[0])
    y[s2m] = state.w
    y[: nf] = state.u  # fluid values win on the shared interface
    load_f = disc.load_f(t1)
    rhs = mono_mass @ y / dt
    rhs[:nf] += load_f
    rhs[s2m] += disc.load_s(t1)
    y1 = _solve_free(fact, rhs, free)

    u1 = y1[:nf]
    w1 = y1[s2m]
    residual = disc.mass_f @ (u1 - state.u) / dt + disc.case.nu_f * (disc.stiff_f @ u1) - load_f
    lam1 = msig_fact.solve(residual[disc.if_f])
    return DiscreteState(n=state.n + 1, u=u1, w=w1, lam=lam1)


# ---------------------------------------------------------------------------
# driver

def run(disc):
    """Yield the states of ``disc``'s variant at levels 0, 1, ..., N in order.

    The run holds only the state it steps from, so memory does not grow with
    the number of steps; ``list(run(disc))`` keeps them all, indexed by
    level.  Its factorizations are built on ``disc`` and recorded there.
    """
    config = disc.config
    state = initialize(disc)
    yield state
    if config.variant == "improved":
        for state in solve_first_block_improved(disc.case, config, disc):
            yield state
    stepper = step_monolithic if config.variant == "monolithic" else step_original
    while state.n < config.n_steps:
        state = stepper(state, disc)
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


def weak_residuals_original(prev, state, disc):
    """Relative residuals of the three split equations for one step."""
    dt, alpha = disc.config.dt, disc.config.alpha
    t1 = state.n * dt

    terms_s = [
        disc.mass_s @ (state.w - prev.w) / dt,
        disc.case.nu_s * (disc.stiff_s @ state.w),
        disc.lift_s(disc.msig @ (alpha * (state.w[disc.if_s] - prev.u[disc.if_f]) + prev.lam)),
        -disc.load_s(t1),
    ]
    terms_f = [
        disc.mass_f @ (state.u - prev.u) / dt,
        disc.case.nu_f * (disc.stiff_f @ state.u),
        -disc.lift_f(disc.msig @ state.lam),
        -disc.load_f(t1),
    ]
    terms_l = [
        disc.msig @ (alpha * (state.u[disc.if_f] - state.w[disc.if_s])),
        disc.msig @ (state.lam - prev.lam),
    ]
    return {
        "solid": _relative(sum(terms_s), terms_s, disc.free_s),
        "fluid": _relative(sum(terms_f), terms_f, disc.free_f),
        "flux": _relative(sum(terms_l), terms_l),
    }


def block_residuals(states, case, config, disc):
    """Relative residuals of all nine equations of the coupled first block.

    Levels 2 and 3 are plain split steps, checked by ``weak_residuals_original``.
    ``case`` and ``config`` are unread, as in ``solve_first_block_improved``,
    whose arguments the benchmark's tracer passes on here.
    """
    s1, s2, s3 = states
    dt, alpha = disc.config.dt, disc.config.alpha
    msig = disc.msig
    ddw, ddu, g1_2, g1_3, g2_2, g2_3 = _first_step_loads(disc)

    out = {}
    terms = [
        disc.mass_s @ (s2.w - s1.w) / dt,
        disc.case.nu_s * (disc.stiff_s @ s1.w),
        disc.lift_s(
            msig @ (alpha * (s1.w[disc.if_s] + s2.u[disc.if_f] - 2 * s1.u[disc.if_f]))
        ),
        disc.lift_s(msig @ (2 * s1.lam - s2.lam)),
        -ddw,
        -disc.lift_s(alpha * dt * g1_2 - dt * g2_2),
        -disc.load_s(dt),
    ]
    out["solid_1"] = _relative(sum(terms), terms, disc.free_s)

    du32 = s3.u[disc.if_f] - s2.u[disc.if_f]
    du21 = s2.u[disc.if_f] - s1.u[disc.if_f]
    terms = [
        disc.mass_f @ (s2.u - s1.u) / dt,
        disc.case.nu_f * (disc.stiff_f @ s1.u),
        disc.lift_f(msig @ (alpha * (du32 - du21) + s3.lam - 2 * s2.lam)),
        -ddu,
        -disc.lift_f(alpha * dt * g1_3 + dt * g2_3),
        -disc.load_f(dt),
    ]
    out["fluid_1"] = _relative(sum(terms), terms, disc.free_f)

    terms = [
        msig @ (alpha * (-s3.u[disc.if_f] + 2 * s2.u[disc.if_f] - s1.w[disc.if_s])),
        msig @ (s2.lam - s1.lam),
        alpha * dt * g1_3,
        -dt * g2_2,
    ]
    out["flux_1"] = _relative(sum(terms), terms)

    for level, prev, state in ((2, s1, s2), (3, s2, s3)):
        for name, value in weak_residuals_original(prev, state, disc).items():
            out[f"{name}_{level}"] = value
    return out
