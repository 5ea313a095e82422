"""Lagrange finite elements on the two-subdomain mesh.

Provides P1/P2 spaces restricted to one subdomain, vectorized assembly of
mass/stiffness/load operators, one-dimensional assembly along the shared
interface, and quadrature-based error norms against smooth reference fields.

Conventions for callables: a scalar field is ``f(t, x)`` with ``x`` an
array of points of shape (..., 2) returning shape (...); gradients return
(..., 2); Hessians return (..., 2, 2); interface fields are ``g(t, x1)``
with ``x1`` the coordinate along the interface.  Triangle quadrature weights
are normalized to sum to one, so an integral over a triangle is the weighted
sum of point values times the triangle area.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .linalg import finalize_csr
from . import mesh as meshmod


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric triangle rule; points in barycentric coordinates."""

    points: np.ndarray  # (nq, 3)
    weights: np.ndarray  # (nq,), sums to 1
    degree: int


def _perms3(a, b, c):
    vals = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    uniq = []
    for v in vals:
        if v not in uniq:
            uniq.append(v)
    return uniq


def _dunavant(groups, degree):
    pts, wts = [], []
    for w, bary in groups:
        for p in _perms3(*bary):
            pts.append(p)
            wts.append(w)
    return QuadratureRule(np.asarray(pts), np.asarray(wts), degree)


_RULE_DEG1 = _dunavant([(1.0, (1 / 3, 1 / 3, 1 / 3))], degree=1)

_RULE_DEG2 = _dunavant([(1 / 3, (2 / 3, 1 / 6, 1 / 6))], degree=2)

_RULE_DEG4 = _dunavant(
    [
        (0.223381589678011, (0.445948490915965, 0.445948490915965, 0.108103018168070)),
        (0.109951743655322, (0.091576213509771, 0.091576213509771, 0.816847572980458)),
    ],
    degree=4,
)

_RULE_DEG6 = _dunavant(
    [
        (0.116786275726379, (0.249286745170910, 0.249286745170910, 0.501426509658180)),
        (0.050844906370207, (0.063089014491502, 0.063089014491502, 0.873821971016996)),
        (0.082851075618374, (0.310352451033785, 0.636502499121399, 0.053145049844816)),
    ],
    degree=6,
)


_RULES = (_RULE_DEG1, _RULE_DEG2, _RULE_DEG4, _RULE_DEG6)


def triangle_rule(degree):
    """Smallest shipped rule integrating polynomials of the given degree."""
    for rule in _RULES:
        if rule.degree >= degree:
            return rule
    raise ConfigurationError(f"no triangle quadrature rule of degree {degree}")


@dataclass(frozen=True)
class LineRule:
    """Gauss rule on [0, 1]; weights sum to 1."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def line_rule(npoints=4):
    x, w = np.polynomial.legendre.leggauss(npoints)
    return LineRule(0.5 * (x + 1.0), 0.5 * w, degree=2 * npoints - 1)


_LINE_RULE = line_rule(4)


# ---------------------------------------------------------------------------
# reference bases

def _shape_values(order, bary):
    """Basis values at barycentric points; shape (nq, nloc)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if order == 1:
        return np.stack([l0, l1, l2], axis=1)
    return np.stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ],
        axis=1,
    )


_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # barycentric gradients


def _shape_ref_grads(order, bary):
    """Reference gradients at barycentric points; shape (nq, nloc, 2)."""
    nq = bary.shape[0]
    if order == 1:
        return np.broadcast_to(_DL, (nq, 3, 2)).copy()
    l = bary
    out = np.empty((nq, 6, 2))
    for i in range(3):
        out[:, i, :] = (4 * l[:, i] - 1)[:, None] * _DL[i]
    for k, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        out[:, 3 + k, :] = 4 * (l[:, i][:, None] * _DL[j] + l[:, j][:, None] * _DL[i])
    return out


def _shape_ref_hessians(order):
    """Reference Hessians (constant for P2); shape (nloc, 2, 2)."""
    if order == 1:
        return np.zeros((3, 2, 2))
    out = np.empty((6, 2, 2))
    for i in range(3):
        out[i] = 4 * np.outer(_DL[i], _DL[i])
    for k, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        out[3 + k] = 4 * (np.outer(_DL[i], _DL[j]) + np.outer(_DL[j], _DL[i]))
    return out


def _line_shape_values(order, s):
    """1D basis on [0,1] at parameters s; ordering (end0, end1[, mid])."""
    if order == 1:
        return np.stack([1 - s, s], axis=1)
    return np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)], axis=1)


# ---------------------------------------------------------------------------
# finite element space

class FeSpace:
    """Continuous Lagrange space of order 1 or 2 on one subdomain.

    Degrees of freedom are the subdomain vertices (P1) plus edge midpoints
    (P2), numbered locally to the space.  ``dirichlet_mask`` marks the dofs
    on the subdomain's Dirichlet boundary; ``interface_dofs`` lists the dofs
    on the shared interface ordered by increasing x.
    """

    def __init__(self, mesh, subdomain, order):
        if subdomain not in ("fluid", "solid"):
            raise ConfigurationError(f"subdomain must be 'fluid' or 'solid', got {subdomain!r}")
        if order not in (1, 2):
            raise ConfigurationError(f"order must be 1 or 2, got {order!r}")
        self.mesh = mesh
        self.subdomain = subdomain
        self.order = order
        tris_global = mesh.triangles_f if subdomain == "fluid" else mesh.triangles_s

        verts_used, tris_local = np.unique(tris_global, return_inverse=True)
        tris_local = tris_local.reshape(tris_global.shape)
        self._global_vertices = verts_used
        self._vertex_map = {int(g): i for i, g in enumerate(verts_used)}
        nvert = len(verts_used)
        coords = [mesh.vertices[verts_used]]

        if order == 1:
            cell_dofs = tris_local
            self._edge_index = None
        else:
            pairs = np.concatenate(
                [tris_local[:, [0, 1]], tris_local[:, [1, 2]], tris_local[:, [2, 0]]]
            )
            pairs = np.sort(pairs, axis=1)
            edges, inv = np.unique(pairs, axis=0, return_inverse=True)
            nt = tris_local.shape[0]
            edge_dofs = nvert + inv.reshape(3, nt).T
            cell_dofs = np.hstack([tris_local, edge_dofs])
            mid = 0.5 * (
                mesh.vertices[verts_used[edges[:, 0]]] + mesh.vertices[verts_used[edges[:, 1]]]
            )
            coords.append(mid)
            self._edge_index = {(int(a), int(b)): nvert + k for k, (a, b) in enumerate(edges)}

        self.triangles = tris_local
        self.cell_dofs = np.ascontiguousarray(cell_dofs)
        self.dof_coords = np.vstack(coords)
        self.ndof = self.dof_coords.shape[0]

        self._build_geometry()
        self._build_dirichlet()
        self._build_interface()
        self._tables = {}

    # -- construction helpers ------------------------------------------------

    def _build_geometry(self):
        corners = self.mesh.vertices[self.mesh.triangles_f if self.subdomain == "fluid" else self.mesh.triangles_s]
        d1 = corners[:, 1] - corners[:, 0]
        d2 = corners[:, 2] - corners[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0):
            raise ConfigurationError("mesh contains non-ccw triangles")
        self._corners = corners
        self._areas = 0.5 * det
        jac = np.stack([d1, d2], axis=2)  # columns are edge vectors
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        self._jac_inv = inv / det[:, None, None]

    def _build_dirichlet(self):
        tag = meshmod.TAG_DIRICHLET_F if self.subdomain == "fluid" else meshmod.TAG_DIRICHLET_S
        mask = np.zeros(self.ndof, dtype=bool)
        for (a, b), t in zip(self.mesh.boundary_edges, self.mesh.boundary_tags):
            if t != tag:
                continue
            la, lb = self._vertex_map[int(a)], self._vertex_map[int(b)]
            mask[la] = mask[lb] = True
            if self.order == 2:
                mask[self._edge_index[(min(la, lb), max(la, lb))]] = True
        self.dirichlet_mask = mask

    def _build_interface(self):
        nodes = [self._vertex_map[int(g)] for g in self.mesh.interface_nodes]
        cells = []
        dofs = []
        for i, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
            dofs.append(a)
            if self.order == 2:
                m = self._edge_index[(min(a, b), max(a, b))]
                cells.append((a, b, m))
                dofs.append(m)
            else:
                cells.append((a, b))
        dofs.append(nodes[-1])
        self.interface_dofs = np.asarray(dofs, dtype=np.int64)
        self._interface_cells = np.asarray(cells, dtype=np.int64)
        pos = {int(d): i for i, d in enumerate(self.interface_dofs)}
        self._interface_cells_local = np.vectorize(pos.__getitem__)(self._interface_cells)
        self.interface_x = self.dof_coords[self.interface_dofs, 0]
        nodes_xy = self.mesh.vertices[self.mesh.interface_nodes]
        self._interface_lengths = np.diff(nodes_xy[:, 0])
        self._interface_y = float(nodes_xy[0, 1])

    # -- evaluation tables ---------------------------------------------------

    def tables(self, degree):
        """Per-element quadrature tables for the given exactness degree."""
        rule = triangle_rule(degree)
        key = rule.degree
        if key in self._tables:
            return self._tables[key]
        bary = rule.points
        vals = _shape_values(self.order, bary)  # (nq, nloc)
        ref_grads = _shape_ref_grads(self.order, bary)  # (nq, nloc, 2)
        qp = np.einsum("qv,cvd->cqd", bary, self._corners)
        wdet = self._areas[:, None] * rule.weights[None, :]
        tab = {
            "rule": rule,
            "qp": qp,
            "wdet": wdet,
            "vals": vals,
            # (nloc, nq * 2): reference gradients, one row per basis function
            "ref_grads": ref_grads.transpose(1, 0, 2).reshape(vals.shape[1], -1),
            "hess": self._hessians,
        }
        self._tables[key] = tab
        return tab

    @functools.cached_property
    def _hessians(self):
        """(ncell, nloc, 2, 2): J^-T H_ref J^-1 per cell, shared by every table."""
        jac_inv = self._jac_inv
        ref_hess = _shape_ref_hessians(self.order)  # (nloc, 2, 2)
        return np.swapaxes(jac_inv, 1, 2)[:, None] @ ref_hess[None] @ jac_inv[:, None]

    def _line_tables(self):
        if hasattr(self, "_ltab"):
            return self._ltab
        rule = _LINE_RULE
        nodes_x = self.mesh.vertices[self.mesh.interface_nodes][:, 0]
        x0 = nodes_x[:-1]
        qp_x = x0[:, None] + self._interface_lengths[:, None] * rule.points[None, :]
        vals = _line_shape_values(self.order, rule.points)  # (nq, nloc)
        wdet = self._interface_lengths[:, None] * rule.weights[None, :]
        self._ltab = {"rule": rule, "qp_x": qp_x, "wdet": wdet, "vals": vals}
        return self._ltab


def _form_degree(order):
    return 4 if order == 1 else 6


# ---------------------------------------------------------------------------
# assembly

def _scatter(space, local):
    """Scatter per-cell local matrices (nt, nloc, nloc) into a CSR matrix."""
    cd = space.cell_dofs
    rows = np.repeat(cd, cd.shape[1], axis=1).ravel()
    cols = np.tile(cd, (1, cd.shape[1])).ravel()
    return finalize_csr(
        sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.ndof, space.ndof))
    )


def assemble_mass(space):
    """Consistent mass matrix of the space."""
    tab = space.tables(_form_degree(space.order))
    ref = np.einsum("q,qi,qj->ij", tab["rule"].weights, tab["vals"], tab["vals"])
    local = space._areas[:, None, None] * ref[None, :, :]
    return _scatter(space, local)


def assemble_stiffness(space, viscosity=1.0):
    """Stiffness matrix ``viscosity * (grad phi_i, grad phi_j)``."""
    tab = space.tables(_form_degree(space.order))
    ref = tab["ref_grads"]
    # physical gradient: g[c,q,l,d] = sum_e ref[l,q,e] * jac_inv[c,e,d];
    # C order fixes the summation order, and so the rounding, of the next sum
    grads = np.einsum(
        "lqe,ced->cqld", ref.reshape(len(ref), -1, 2), space._jac_inv, order="C"
    )
    local = viscosity * np.einsum("cq,cqid,cqjd->cij", tab["wdet"], grads, grads)
    return _scatter(space, local)


def assemble_load(space, f, t):
    """Load vector ``(f(t, .), phi_i)`` over the subdomain."""
    tab = space.tables(_form_degree(space.order))
    fv = np.asarray(f(t, tab["qp"]))
    local = np.einsum("cq,qi->ci", tab["wdet"] * fv, tab["vals"])
    out = np.zeros(space.ndof)
    np.add.at(out, space.cell_dofs, local)
    return out


def interface_mass_matrix(space):
    """Interface mass matrix in interface-local dof ordering."""
    tab = space._line_tables()
    ref = np.einsum("q,qi,qj->ij", tab["rule"].weights, tab["vals"], tab["vals"])
    local = space._interface_lengths[:, None, None] * ref[None, :, :]
    cd = space._interface_cells_local
    rows = np.repeat(cd, cd.shape[1], axis=1).ravel()
    cols = np.tile(cd, (1, cd.shape[1])).ravel()
    n = len(space.interface_dofs)
    return finalize_csr(sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)))


def assemble_interface_load(space, g, t):
    """Interface load ``<g(t, .), trace phi_i>`` in interface-local ordering."""
    tab = space._line_tables()
    gv = np.asarray(g(t, tab["qp_x"]))
    local = np.einsum("eq,qi->ei", tab["wdet"] * gv, tab["vals"])
    out = np.zeros(len(space.interface_dofs))
    np.add.at(out, space._interface_cells_local, local)
    return out


def element_mass(coords, order):
    """Local mass matrix of a single triangle (for checks and small uses)."""
    rule = triangle_rule(_form_degree(order))
    vals = _shape_values(order, rule.points)
    area = _single_area(coords)
    return area * np.einsum("q,qi,qj->ij", rule.weights, vals, vals)


def element_stiffness(coords, order, viscosity=1.0):
    """Local stiffness matrix of a single triangle."""
    rule = triangle_rule(_form_degree(order))
    coords = np.asarray(coords, dtype=float)
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    jac_inv = np.array([[d2[1], -d2[0]], [-d1[1], d1[0]]]) / det
    ref_grads = _shape_ref_grads(order, rule.points)
    grads = np.einsum("qle,ed->qld", ref_grads, jac_inv)
    return viscosity * abs(det) / 2 * np.einsum("q,qid,qjd->ij", rule.weights, grads, grads)


def _single_area(coords):
    coords = np.asarray(coords, dtype=float)
    d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
    return abs(d1[0] * d2[1] - d1[1] * d2[0]) / 2


# ---------------------------------------------------------------------------
# interpolation and error norms

ERROR_DEGREE = 6  # over-integration degree used by every error norm


def interpolate(space, f, t):
    """Nodal interpolant coefficients of ``f(t, .)``."""
    return np.asarray(f(t, space.dof_coords))


def interpolate_interface(space, g, t):
    """Nodal interpolant of an interface field, in interface-local ordering."""
    return np.asarray(g(t, space.interface_x))


def fe_values_at_qp(space, coeffs, tab):
    return np.einsum("cl,ql->cq", coeffs[space.cell_dofs], tab["vals"])


def fe_grads_at_qp(space, coeffs, tab):
    # reference gradients mapped cell by cell: exact for affine triangles
    gref = coeffs[space.cell_dofs] @ tab["ref_grads"]
    return gref.reshape(len(gref), -1, 2) @ space._jac_inv


def fe_hessians_at_qp(space, coeffs, tab):
    h = np.einsum("cl,cldg->cdg", coeffs[space.cell_dofs], tab["hess"])
    return h[:, None, :, :]


def l2_error(space, coeffs, exact, t):
    """L2 norm over the subdomain of ``exact(t, .)`` minus the FE field."""
    tab = space.tables(ERROR_DEGREE)
    err = np.asarray(exact(t, tab["qp"])) - fe_values_at_qp(space, coeffs, tab)
    return float(np.sqrt(np.sum(tab["wdet"] * err**2)))


def h1_semi_error(space, coeffs, exact_gradient, t):
    """L2 norm of the gradient of the error field."""
    tab = space.tables(ERROR_DEGREE)
    err = np.asarray(exact_gradient(t, tab["qp"])) - fe_grads_at_qp(space, coeffs, tab)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(err**2, axis=-1))))


def broken_h2_seminorm_diff(space, coeffs, exact_hessian, t):
    """Elementwise L2 norm of the Hessian of the error field.

    Second derivatives of the FE field are taken element by element, so this
    is a broken seminorm.  For P1 the FE Hessian vanishes identically and the
    result reduces to the norm of the reference Hessian alone.
    """
    tab = space.tables(ERROR_DEGREE)
    err = np.asarray(exact_hessian(t, tab["qp"])) - fe_hessians_at_qp(space, coeffs, tab)
    return float(np.sqrt(np.sum(tab["wdet"] * np.sum(err**2, axis=(-2, -1)))))


def sigma_l2_error(space, interface_coeffs, exact, t):
    """L2 norm over the interface of ``exact(t, .)`` minus the trace field."""
    tab = space._line_tables()
    fe = np.einsum("el,ql->eq", interface_coeffs[space._interface_cells_local], tab["vals"])
    err = np.asarray(exact(t, tab["qp_x"])) - fe
    return float(np.sqrt(np.sum(tab["wdet"] * err**2)))
