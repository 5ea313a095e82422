"""Reference computations that the package replaces with faster ones, and
the test-only helpers that no run of the package needs.

* The error quantities recomputed from every stored level of a run, the
  cross-check for ``diagnostics.ErrorAccumulator``: they take
  ``states = list(run(...))``, indexed by level, and evaluate each quantity
  pair by pair through the plain error norms below, with each exact field
  evaluated at each time through ``exact_field`` rather than folded into
  the profile's norms once per run.
* ``exact_field``: a case's exact field at time t as its factor times its
  profile, the product the case stores it as; the package reads the
  profiles and factors directly, and only the tests sample whole fields.
* The improved start-up as one nine-block linear system over
  ``w1 w2 w3 u1 u2 u3 l1 l2 l3``, with Dirichlet dofs kept as identity rows
  and solved by one sparse LU, with its loads assembled at each level's
  time: the cross-check for the interface solve of
  ``schemes.solve_first_block_improved``; and each field's start-up rows
  joined by ``sp.bmat``, the cross-check for ``schemes._level_rows``.
* The first-step loads assembled from pointwise second-difference
  quotients of the exact solution, the cross-check for
  ``schemes._first_step_loads``, which scales four loads of the profiles
  at t = 0 by quotients of the time factor.
* Mass and stiffness matrices assembled by quadrature at the points of every
  cell, and P2 dofs numbered through a dict of vertex pairs: the cross-checks
  for ``fem``'s reference-tensor assembly and array-based numbering.
* The two-subdomain mesh built by a Python loop over the grid squares: the
  cross-check for ``mesh.build_two_domain_mesh``'s array construction, and
  the only builder of the alternating layout that the symmetry checks use.
* Whole-array quadrature tables (every point of every cell at once) and the
  plain error norms built on them, which the error quantities above use;
  single-element mass and stiffness matrices; mesh areas, interface edges
  and a text dump of the mesh; the discrete energy Z and dissipation S of a
  split step, and the case with zero exact fields that runs on zero data.
* A ``ConvergenceTable`` parsed back from a CSV that ``to_csv`` wrote
  (``read_csv``), for the tests of the command's tables.
* Dirichlet dofs kept as identity rows (``eliminate_dirichlet``), which the
  package no longer builds: it solves every system on the free dofs.  The
  interface mass lifted into field-sized blocks, for the nine-block start-up
  matrix, and the weak residuals of a monolithic step.
"""

import csv
import dataclasses
import math
from functools import partial

import numpy as np
import scipy.sparse as sp

from robinsplit import fem, linalg, schemes
from robinsplit import mesh as meshmod
from robinsplit.diagnostics import SUMMED_QUANTITIES, ConvergenceTable, ErrorReport
from robinsplit.errors import ConfigurationError
from robinsplit.manufactured import case_example1


def exact_field(case, profile, factor="time_factor"):
    """The exact field ``factor(t) * profile(x)`` of ``case`` as a function
    (t, x) -> values: the product the case stores it as.  A profile of None
    is zero."""
    g, c = getattr(case, profile), getattr(case, factor)

    def field(t, x):
        if g is None:
            return np.zeros(np.shape(x)[:-1])
        return c(t) * g(x)

    return field


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
    u, w, grad_u = (exact_field(case, p) for p in ("u0", "w0", "grad_u0"))
    return ErrorReport(
        dt=config.dt,
        h=1.0 / config.nx,
        e_u=l2_error(fluid, sN.u, u, T),
        e_du=l2_error(fluid, sN.u - sP.u, _frozen_diff(u, T, tp), 0.0),
        e_dw=l2_error(solid, sN.w - sP.w, _frozen_diff(w, T, tp), 0.0),
        e_gdu=h1_semi_error(fluid, sN.u - sP.u, _frozen_diff(grad_u, T, tp), 0.0),
    )


def summed_errors(states, case, disc):
    """Summed quantities recomputed pair by pair from every level."""
    config = disc.config
    N = config.n_steps
    dt = config.dt
    fluid, solid = disc.fluid, disc.solid
    grad_u, grad_w, hess_u, l = (
        exact_field(case, p) for p in ("grad_u0", "grad_w0", "hess_u0", "l0")
    )
    sums = dict.fromkeys(SUMMED_QUANTITIES, 0.0)
    for n in range(1, N):
        a, b = states[n], states[n + 1]
        ta, tb = n * dt, (n + 1) * dt
        sums["e_gdus"] += (
            h1_semi_error(fluid, b.u - a.u, _frozen_diff(grad_u, tb, ta), 0.0) ** 2
        )
        sums["e_gdws"] += (
            h1_semi_error(solid, b.w - a.w, _frozen_diff(grad_w, tb, ta), 0.0) ** 2
        )
        sums["e_dls"] += (
            sigma_l2_error(
                fluid,
                b.lam - a.lam,
                lambda _t, x1, _ta=ta, _tb=tb: l(_tb, x1) - l(_ta, x1),
                0.0,
            )
            ** 2
        )
        sums["e_ggdus"] += (
            broken_h2_seminorm_diff(
                fluid, b.u - a.u, _frozen_diff(hess_u, tb, ta), 0.0
            )
            ** 2
        )
    for n in range(2, N):
        a, b, c = states[n - 1], states[n], states[n + 1]
        ta, tb, tc = (n - 1) * dt, n * dt, (n + 1) * dt

        def second_diff(_t, x):
            return grad_u(tc, x) - 2 * grad_u(tb, x) + grad_u(ta, x)

        sums["e_gdu2s"] += (
            h1_semi_error(fluid, c.u - 2 * b.u + a.u, second_diff, 0.0) ** 2
        )
    out = ErrorReport(dt=dt, h=1.0 / config.nx)
    for name, total in sums.items():
        setattr(out, name, math.sqrt(dt * total))
    return out


# ---------------------------------------------------------------------------
# the start-up block as one matrix

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
    cfg, case = disc.config, disc.case
    dt, alpha = cfg.dt, cfg.alpha
    css = lifted_interface_matrix(disc, "s", "s")
    csf = lifted_interface_matrix(disc, "s", "f")
    csl = lifted_interface_matrix(disc, "s", "l")
    cff = lifted_interface_matrix(disc, "f", "f")
    cfl = lifted_interface_matrix(disc, "f", "l")
    clf = lifted_interface_matrix(disc, "l", "f")
    cls = lifted_interface_matrix(disc, "l", "s")
    msig = disc.msig
    mass_s, stiff_s = disc.mass_s, disc.stiff_s
    mass_f, stiff_f = disc.mass_f, disc.stiff_f

    contributions = [
        # level-1 solid equation (tested with z): couples levels via data lag
        ("w1", "w2", mass_s, 1 / dt),
        ("w1", "w1", mass_s, -1 / dt),
        ("w1", "w1", stiff_s, case.nu_s),
        ("w1", "w1", css, alpha),
        ("w1", "u2", csf, alpha),
        ("w1", "u1", csf, -2 * alpha),
        ("w1", "l1", csl, 2.0),
        ("w1", "l2", csl, -1.0),
        # level-1 fluid equation (tested with v)
        ("u1", "u2", mass_f, 1 / dt),
        ("u1", "u1", mass_f, -1 / dt),
        ("u1", "u1", stiff_f, case.nu_f),
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
            ("w" + b, "w" + b, stiff_s, case.nu_s),
            ("w" + b, "w" + b, css, alpha),
            ("w" + b, "u" + a, csf, -alpha),
            ("w" + b, "l" + a, csl, 1.0),
            ("u" + b, "u" + b, mass_f, 1 / dt),
            ("u" + b, "u" + a, mass_f, -1 / dt),
            ("u" + b, "u" + b, stiff_f, case.nu_f),
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
    return eliminate_dirichlet(matrix, mask)


def _first_block_dirichlet_mask(disc):
    fixed = {
        "w": disc.solid.dirichlet_mask,
        "u": disc.fluid.dirichlet_mask,
        "l": np.zeros(disc.n_sig, dtype=bool),
    }
    return np.concatenate([fixed[name[0]] for name in _BLOCK_NAMES])


def _load(space, f, t):
    """The forcing's load assembled at time t, not scaled from t = 0."""
    return fem.assemble_load(space, partial(f, t))


def first_step_loads_pointwise(disc):
    """The loads of ``schemes._first_step_loads`` from pointwise quotients.

    With t_j = j * dt, each load is assembled from a field that samples the
    exact solution at t_0..t_3 and takes its second-difference quotient
    (q(t_n) - 2 q(t_{n-1}) + q(t_{n-2})) / dt at every quadrature point:
    of w and u at n = 2, and of the interface trace of u and the flux l at
    n = 2, 3.  Nothing assumes the case separable.
    """
    case, dt = disc.case, disc.config.dt
    times = [j * dt for j in range(4)]
    u, w, l = (exact_field(case, p) for p in ("u0", "w0", "l0"))

    def trace(t, x1):
        return u(t, _lift(x1, case.split_y))

    # the interface quotients subtract differences, the volume ones take
    # q2 - 2 q1 + q0: equal in exact arithmetic
    def interface(q, n):
        def diff(m, x1):
            return q(times[m], x1) - q(times[m - 1], x1)

        return lambda x1: (diff(n, x1) - diff(n - 1, x1)) / dt

    def volume(q):
        return lambda x: (q(times[2], x) - 2 * q(times[1], x) + q(times[0], x)) / dt

    return (
        fem.assemble_load(disc.solid, volume(w)),
        fem.assemble_load(disc.fluid, volume(u)),
        *(
            fem.assemble_interface_load(disc.fluid, interface(q, n))
            for q in (trace, l)
            for n in (2, 3)
        ),
    )


def _lift(x1, y):
    x1 = np.asarray(x1, dtype=float)
    return np.stack([x1, np.full_like(x1, y)], axis=-1)


def _first_block_rhs(disc, offsets):
    case, dt, alpha = disc.case, disc.config.dt, disc.config.alpha
    ddw, ddu, g1_2, g1_3, g2_2, g2_3 = schemes._first_step_loads(disc)
    f_f, f_s = (exact_field(case, p, "forcing_factor") for p in ("f_f0", "f_s0"))
    parts = [
        ("w1", ddw),
        ("w1", disc.lift_s(alpha * dt * g1_2 - dt * g2_2)),
        ("w1", _load(disc.solid, f_s, dt)),
        ("u1", ddu),
        ("u1", disc.lift_f(alpha * dt * g1_3 + dt * g2_3)),
        ("u1", _load(disc.fluid, f_f, dt)),
        ("l1", -alpha * dt * g1_3 + dt * g2_2),
        ("w2", _load(disc.solid, f_s, 2 * dt)),
        ("u2", _load(disc.fluid, f_f, 2 * dt)),
        ("w3", _load(disc.solid, f_s, 3 * dt)),
        ("u3", _load(disc.fluid, f_f, 3 * dt)),
    ]
    mask = _first_block_dirichlet_mask(disc)
    rhs = np.zeros(mask.size)
    for name, vec in parts:
        rhs[offsets[name] : offsets[name] + vec.size] += vec
    rhs[mask] = 0.0
    return rhs


def first_block_reference(disc):
    """States at levels 1, 2, 3 from one LU of the nine-block start-up matrix."""
    offsets = _first_block_offsets(disc)
    x = linalg.factorize(_first_block_matrix(disc)).solve(
        _first_block_rhs(disc, offsets)
    )
    block = dict(zip(_BLOCK_NAMES, np.split(x, [offsets[n] for n in _BLOCK_NAMES[1:]])))
    return tuple(
        schemes.DiscreteState(
            n=level, u=block[f"u{level}"], w=block[f"w{level}"], lam=block[f"l{level}"]
        )
        for level in (1, 2, 3)
    )


def field_rows_bmat(disc, field, r, c):
    """One field's (D, v2, v3) rows restricted to dofs ``r`` and ``c``, joined
    from separately sliced stiffness, mass and sum blocks by ``sp.bmat``."""
    cfg, case = disc.config, disc.case
    if field == "solid":
        mass, stiff, nu = disc.mass_s, disc.stiff_s, case.nu_s
    else:
        mass, stiff, nu = disc.mass_f, disc.stiff_f, case.nu_f
    k = nu * stiff
    e = mass / cfg.dt
    b = e + k
    kk, ee, bb = (m[r][:, c] for m in (k, e, b))
    return sp.bmat([[kk, None, None], [-ee, kk, None], [None, -ee, bb]], format="csr")


# ---------------------------------------------------------------------------
# quadrature-point assembly and dict-based P2 numbering

def mass_at_quadrature_points(space):
    """Mass matrix from the basis products summed over the quadrature points."""
    tab = tables(space, fem._form_degree(space.order))
    ref = np.einsum("q,qi,qj->ij", tab["rule"].weights, tab["vals"], tab["vals"])
    local = space._areas[:, None, None] * ref[None, :, :]
    return fem._scatter(space.cell_dofs, local, space.ndof)


def stiffness_at_quadrature_points(space):
    """Stiffness matrix from physical gradients at every quadrature point."""
    tab = tables(space, fem._form_degree(space.order))
    ref = tab["ref_grads"]
    # physical gradient: g[c,q,l,d] = sum_e ref[l,q,e] * jac_inv[c,e,d];
    # C order fixes the summation order, and so the rounding, of the next sum
    grads = np.einsum(
        "lqe,ced->cqld", ref.reshape(len(ref), -1, 2), space._jac_inv, order="C"
    )
    local = np.einsum("cq,cqid,cqjd->cij", tab["wdet"], grads, grads)
    return fem._scatter(space.cell_dofs, local, space.ndof)


def grid_size(mesh):
    """``(nx, rows_f)`` counted off the arrays: the grid has (nx + 1)^2
    vertices and each fluid cell row 2 nx triangles."""
    nx = math.isqrt(len(mesh.vertices)) - 1
    return nx, len(mesh.triangles_f) // (2 * nx)


def numbering_reference(mesh, subdomain, order):
    """``cell_dofs``, ``dirichlet_mask`` and ``interface_dofs`` of a P1 or P2
    space.  Edges are numbered by ``np.unique`` over vertex pairs and looked
    up in a dict keyed by vertex-pair tuples.  The boundary sets come from
    grid rows, not coordinates: global vertex ``g`` lies on row
    ``g // (nx + 1)``, the Dirichlet side is row 0 (fluid) or nx (solid),
    the interface is row ``rows_f``, and an edge dof belongs to a side when
    both its vertices do."""
    nx, rows_f = grid_size(mesh)
    tris_global = mesh.triangles_f if subdomain == "fluid" else mesh.triangles_s
    verts_used, tris_local = np.unique(tris_global, return_inverse=True)
    tris_local = tris_local.reshape(tris_global.shape)
    nvert = len(verts_used)
    row = verts_used // (nx + 1)
    edge_index = {}
    cell_dofs = tris_local
    if order == 2:
        pairs = np.concatenate(
            [tris_local[:, [0, 1]], tris_local[:, [1, 2]], tris_local[:, [2, 0]]]
        )
        pairs = np.sort(pairs, axis=1)
        edges, inv = np.unique(pairs, axis=0, return_inverse=True)
        nt = tris_local.shape[0]
        cell_dofs = np.hstack([tris_local, nvert + inv.reshape(3, nt).T])
        edge_index = {(int(a), int(b)): nvert + k for k, (a, b) in enumerate(edges)}

    dirichlet_row = 0 if subdomain == "fluid" else nx
    mask = np.zeros(nvert + len(edge_index), dtype=bool)
    mask[:nvert] = row == dirichlet_row
    for (a, b), dof in edge_index.items():
        mask[dof] = row[a] == row[b] == dirichlet_row

    # local numbers follow the global ones, which grow with x along a row
    nodes = [int(v) for v in np.flatnonzero(row == rows_f)]
    dofs = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        dofs += [a, edge_index[(a, b)]] if order == 2 else [a]
    dofs.append(nodes[-1])
    return cell_dofs, mask, np.asarray(dofs, dtype=np.int64)


def two_domain_mesh_loops(nx, split_y, diagonal="criss"):
    """``mesh.build_two_domain_mesh`` by a Python loop over the squares.

    ``diagonal="criss"`` cuts every square along the same diagonal, the one
    layout of the package.  ``"alternating"`` flips the diagonal on a
    checkerboard pattern, which makes the triangulation invariant under the
    reflection x -> 1 - x when nx is even; this is its only builder, for
    the symmetry and numbering checks.
    """
    if int(nx) != nx or nx < 2:
        raise ConfigurationError(f"nx must be an integer >= 2, got {nx!r}")
    nx = int(nx)
    if not 0.0 < split_y < 1.0:
        raise ConfigurationError(f"split_y must lie strictly inside (0, 1), got {split_y}")
    rows_f = split_y * nx
    if abs(rows_f - round(rows_f)) > 1e-9 * nx:
        raise ConfigurationError(
            f"split_y={split_y} does not fall on a grid line for nx={nx}"
        )
    rows_f = int(round(rows_f))
    if rows_f == 0 or rows_f == nx:
        raise ConfigurationError("each subdomain needs at least one cell row")
    if diagonal not in ("criss", "alternating"):
        raise ConfigurationError(f"unknown diagonal style {diagonal!r}")

    h = 1.0 / nx
    xs = np.arange(nx + 1) * h
    ys = np.arange(nx + 1) * h
    xg, yg = np.meshgrid(xs, ys)  # yg[iy, ix]
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    tris_f, tris_s = [], []
    for iy in range(nx):
        for ix in range(nx):
            v00 = vid(ix, iy)
            v10 = vid(ix + 1, iy)
            v01 = vid(ix, iy + 1)
            v11 = vid(ix + 1, iy + 1)
            if diagonal == "criss" or (ix + iy) % 2 == 0:
                pair = [(v00, v10, v11), (v00, v11, v01)]
            else:
                pair = [(v00, v10, v01), (v10, v11, v01)]
            target = tris_f if iy < rows_f else tris_s
            target.extend(pair)
    triangles_f = np.asarray(tris_f, dtype=np.int64)
    triangles_s = np.asarray(tris_s, dtype=np.int64)

    return meshmod.TwoDomainMesh(
        vertices=vertices,
        triangles_f=triangles_f,
        triangles_s=triangles_s,
    )


# ---------------------------------------------------------------------------
# whole-array quadrature tables and the plain error norms

def tables(space, degree):
    """Per-element quadrature tables for the given exactness degree, built
    whole on every call."""
    rule = fem.triangle_rule(degree)
    bary = rule.points
    vals = fem._shape_values(space.order, bary)  # (nq, nloc)
    ref_grads = fem._shape_ref_grads(space.order, bary)  # (nq, nloc, 2)
    return {
        "rule": rule,
        "qp": np.matmul(bary, space._corners),  # (ncell, nq, 2)
        "wdet": space._areas[:, None] * rule.weights[None, :],
        "vals": vals,
        # (nloc, nq * 2): reference gradients, one row per basis function
        "ref_grads": ref_grads.transpose(1, 0, 2).reshape(vals.shape[1], -1),
    }


def fe_values_at_qp(space, coeffs, tab):
    return coeffs[space.cell_dofs] @ tab["vals"].T


def fe_grads_at_qp(space, coeffs, tab):
    # reference gradients mapped cell by cell: exact for affine triangles
    gref = coeffs[space.cell_dofs] @ tab["ref_grads"]
    return gref.reshape(len(gref), -1, 2) @ space._jac_inv


def fe_hessians_at_qp(space, coeffs, tab):
    h = np.einsum("cl,cldg->cdg", coeffs[space.cell_dofs], space._hessians)
    return h[:, None, :, :]


def l2_error(space, coeffs, exact, t):
    """L2 norm over the subdomain of ``exact(t, .)`` minus the FE field."""
    tab = tables(space, fem.ERROR_DEGREE)
    err = np.asarray(exact(t, tab["qp"])) - fe_values_at_qp(space, coeffs, tab)
    return float(np.sqrt(np.sum(tab["wdet"] * err**2)))


def h1_semi_error(space, coeffs, exact_gradient, t):
    """L2 norm of the gradient of the error field."""
    tab = tables(space, fem.ERROR_DEGREE)
    err = np.asarray(exact_gradient(t, tab["qp"])) - fe_grads_at_qp(space, coeffs, tab)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(err**2, axis=-1))))


def broken_h2_seminorm_diff(space, coeffs, exact_hessian, t):
    """Elementwise L2 norm of the Hessian of the error field.

    Second derivatives of the FE field are taken element by element, so this
    is a broken seminorm.  For P1 the FE Hessian vanishes identically and the
    result reduces to the norm of the reference Hessian alone.
    """
    tab = tables(space, fem.ERROR_DEGREE)
    err = np.asarray(exact_hessian(t, tab["qp"])) - fe_hessians_at_qp(space, coeffs, tab)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(err**2, axis=(-2, -1)))))


def sigma_l2_error(space, interface_coeffs, exact, t):
    """L2 norm over the interface of ``exact(t, .)`` minus the trace field."""
    tab = space._line_tables
    fe = np.einsum("el,ql->eq", interface_coeffs[space._interface_cells_local], tab["vals"])
    err = np.asarray(exact(t, tab["qp_x"])) - fe
    return float(np.sqrt(np.sum(tab["wdet"] * err**2)))


def element_mass(coords, order):
    """Local mass matrix of a single triangle (for checks and small uses)."""
    det, _ = fem._affine_maps(np.asarray(coords, dtype=float)[None])
    return fem._local_mass(0.5 * np.abs(det), order)[0]


def element_stiffness(coords, order, viscosity=1.0):
    """Local stiffness matrix of a single triangle."""
    det, jac_inv = fem._affine_maps(np.asarray(coords, dtype=float)[None])
    return viscosity * fem._local_stiffness(0.5 * np.abs(det), jac_inv, order)[0]


# ---------------------------------------------------------------------------
# mesh helpers

def triangle_areas(vertices, triangles):
    """Signed areas of the given triangles (positive for ccw orientation)."""
    p0 = vertices[triangles[:, 0]]
    d1 = vertices[triangles[:, 1]] - p0
    d2 = vertices[triangles[:, 2]] - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def interface_edges(space):
    """Interface segments of a space as (dof_a, dof_b, length), ordered by x;
    the lengths are differences of the end dofs' coordinates."""
    nodes = space.interface_dofs[:: space.order]
    xs = space.dof_coords[nodes, 0]
    out = []
    for a, b, xa, xb in zip(nodes[:-1], nodes[1:], xs[:-1], xs[1:]):
        out.append((int(a), int(b), float(xb - xa)))
    return out


def mesh_to_text(mesh):
    """Plain-text dump (one record per line) for debugging.

    Records: ``v i x y`` vertices, ``tf a b c`` / ``ts a b c`` fluid/solid
    triangles.
    """
    nx, rows_f = grid_size(mesh)
    lines = [f"# two-domain mesh nx={nx} fluid_rows={rows_f}"]
    for i, (x, y) in enumerate(mesh.vertices):
        lines.append(f"v {i} {float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles_f:
        lines.append(f"tf {a} {b} {c}")
    for a, b, c in mesh.triangles_s:
        lines.append(f"ts {a} {b} {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# energy functionals

def zero_case():
    """example1 with zero profiles of u, w and the flux: zero data."""

    def zero_field(x):
        return np.zeros(np.shape(x)[:-1])

    def zero_line(x1):
        return np.zeros(np.shape(x1))

    return dataclasses.replace(case_example1(), u0=zero_field, w0=zero_field, l0=zero_line)


def zs_functionals(*, solid, fluid, trace, alpha, dt, disc):
    """Discrete energy Z and dissipation S of one step, with the
    diffusivities of ``disc.case``.

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
        dt * (disc.case.nu_f * msq(disc.stiff_f, phi1) + disc.case.nu_s * msq(disc.stiff_s, psi1))
        + 0.5 * msq(disc.mass_s, psi1 - psi0)
        + 0.5 * msq(disc.mass_f, phi1 - phi0)
        + 0.5
        * dt
        * alpha
        * msq(msig, (phi1_tr - phi0_tr) + (theta1 - theta0) / alpha)
    )
    return z, s


# ---------------------------------------------------------------------------
# Dirichlet rows, lifted interface blocks and the monolithic residuals

def eliminate_dirichlet(matrix, mask):
    """Zero rows and columns at masked dofs and put ones on their diagonal.

    Valid for homogeneous boundary values: matching right-hand-side entries
    must be set to zero by the caller.
    """
    mask = np.asarray(mask, dtype=bool)
    free = sp.diags((~mask).astype(float))
    fixed = sp.diags(mask.astype(float))
    return linalg.finalize_csr(free @ matrix @ free + fixed)


def lifted_interface_matrix(disc, row, col):
    """Interface mass scattered into ('f'|'s'|'l') x ('f'|'s'|'l') blocks."""
    maps = {
        "f": (disc.if_f, disc.fluid.ndof),
        "s": (disc.if_s, disc.solid.ndof),
        "l": (np.arange(disc.n_sig), disc.n_sig),
    }
    coo = disc.msig.tocoo()
    rmap, rn = maps[row]
    cmap, cn = maps[col]
    return linalg.finalize_csr(
        sp.coo_matrix((coo.data, (rmap[coo.row], cmap[coo.col])), shape=(rn, cn))
    )


def weak_residuals_monolithic(prev, state, disc):
    """Relative residuals of the coupled step and the flux recovery."""
    case, dt = disc.case, disc.config.dt
    t1 = state.n * dt
    _, mono_mass, free, s2m, _ = disc.monolithic_factorization()
    nf = disc.fluid.ndof

    def embed(u, w):
        y = np.zeros(mono_mass.shape[0])
        y[s2m] = w
        y[:nf] = u
        return y

    y0, y1 = embed(prev.u, prev.w), embed(state.u, state.w)
    load = np.zeros(y0.size)
    load_f = disc.load_f(t1)
    load[:nf] += load_f
    load[s2m] += disc.load_s(t1)
    stiff = np.zeros(y0.size)
    stiff[:nf] += case.nu_f * (disc.stiff_f @ state.u)
    stiff[s2m] += case.nu_s * (disc.stiff_s @ state.w)
    terms = [mono_mass @ (y1 - y0) / dt, stiff, -load]
    coupled = schemes._relative(sum(terms), terms, free)

    terms = [
        disc.msig @ state.lam,
        -(disc.mass_f @ (state.u - prev.u) / dt + case.nu_f * (disc.stiff_f @ state.u) - load_f)[
            disc.if_f
        ],
    ]
    return {"coupled": coupled, "flux": schemes._relative(sum(terms), terms)}


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
