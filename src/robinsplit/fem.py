"""Lagrange finite elements on the two-subdomain mesh.

Provides P1/P2 spaces restricted to one subdomain, vectorized assembly of
mass/stiffness/load operators, one-dimensional assembly along the shared
interface, interpolation, and the chunked quadrature (``quadrature_chunks``)
and derivative operators that the error norms of ``diagnostics`` evaluate.

Mass and stiffness are contracted from reference tensors (the tensor
representation of Kirby & Logg, ACM TOMS 32(3), 2006).  A cell's mass
matrix is its area times the reference mass matrix.  Its stiffness matrix
is ``area * J^-1 J^-T`` (4 numbers per cell) times the reference tensor
``R[i, j, e, f] = sum_q w_q d_e phi_i d_f phi_j``, so the whole form is one
(ncell, 4) by (4, nloc^2) matrix product.  Both reference tensors are
exact rationals (for P2, mass * 360 and stiffness * 6 are integers).
Where the exact value is 0, quadrature with the 15-digit tabulated rules
leaves about 1e-16 to 1e-15 of the largest entry; every entry with
``|x| <= 64 eps max|x|`` is set to exactly 0, so the assembled P2 matrices,
and the LU factors built from them, carry no such entries.

Conventions for callables: a scalar field is ``f(x)`` with ``x`` an
array of points of shape (..., 2) returning shape (...); gradients return
(..., 2); Hessians return (..., 2, 2); interface fields are ``g(x1)``
with ``x1`` the coordinate along the interface.  Triangle quadrature weights
are normalized to sum to one, so an integral over a triangle is the weighted
sum of point values times the triangle area.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .linalg import finalize_csr


# ---------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True)
class QuadratureRule:
    """Points, weights and the polynomial degree integrated exactly.  A
    triangle rule's points are barycentric (nq, 3); a line rule's are
    parameters on [0, 1] (nq,)."""

    points: np.ndarray
    weights: np.ndarray  # (nq,), sums to 1
    degree: int


def _dunavant(groups, degree):
    pts, wts = [], []
    for w, bary in groups:
        # the distinct permutations of the orbit, in first-seen order
        for p in dict.fromkeys(itertools.permutations(bary)):
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


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)

# the 4-point Gauss rule on [0, 1], used along the interface
LINE_RULE = QuadratureRule(0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W, degree=7)


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
    (P2), numbered locally to the space.  Both boundary sets are read off
    the dof coordinates: with ``y = dof_coords[:, 1]``, the fluid's
    Dirichlet dofs are those at ``y == y.min()`` and its interface dofs
    those at ``y == y.max()``, the solid's the other way round.
    ``dirichlet_mask`` marks the Dirichlet dofs; ``interface_dofs`` lists
    the interface dofs ordered by increasing x.  The comparisons are exact,
    since every boundary dof copies one grid row's y and a P2 midpoint of
    two equal values is that value.  The space keeps its cells' corners,
    not the mesh it was built from.
    """

    def __init__(self, mesh, subdomain, order):
        if subdomain not in ("fluid", "solid"):
            raise ConfigurationError(f"subdomain must be 'fluid' or 'solid', got {subdomain!r}")
        if order not in (1, 2):
            raise ConfigurationError(f"order must be 1 or 2, got {order!r}")
        self.subdomain = subdomain
        self.order = order
        tris_global = mesh.triangles_f if subdomain == "fluid" else mesh.triangles_s

        verts_used, tris_local = np.unique(tris_global, return_inverse=True)
        tris_local = tris_local.reshape(tris_global.shape)
        nvert = len(verts_used)
        coords = [mesh.vertices[verts_used]]

        if order == 1:
            cell_dofs = tris_local
        else:
            # edge (a, b), a < b, has the key a * nvert + b: sorted keys number
            # the edges in lexicographic order of their vertex pairs
            pairs = np.concatenate(
                [tris_local[:, [0, 1]], tris_local[:, [1, 2]], tris_local[:, [2, 0]]]
            )
            pairs = np.sort(pairs, axis=1)
            keys, inv = np.unique(pairs[:, 0] * nvert + pairs[:, 1], return_inverse=True)
            nt = tris_local.shape[0]
            edge_dofs = nvert + inv.reshape(3, nt).T
            cell_dofs = np.hstack([tris_local, edge_dofs])
            a, b = np.divmod(keys, nvert)
            coords.append(0.5 * (mesh.vertices[verts_used[a]] + mesh.vertices[verts_used[b]]))

        self.cell_dofs = np.ascontiguousarray(cell_dofs)
        self.dof_coords = np.vstack(coords)
        self.ndof = self.dof_coords.shape[0]

        self._build_geometry(mesh.vertices[tris_global])
        self._build_boundary()

    # -- construction helpers ------------------------------------------------

    def _build_geometry(self, corners):
        det, self._jac_inv = _affine_maps(corners)
        if np.any(det <= 0):
            raise ConfigurationError("mesh contains non-ccw triangles")
        self._corners = corners
        self._areas = 0.5 * det

    def _build_boundary(self):
        y = self.dof_coords[:, 1]
        outer, inner = (y.min(), y.max()) if self.subdomain == "fluid" else (y.max(), y.min())
        self.dirichlet_mask = y == outer
        dofs = np.flatnonzero(y == inner)
        self.interface_dofs = dofs[np.argsort(self.dof_coords[dofs, 0], kind="stable")]
        self.interface_x = self.dof_coords[self.interface_dofs, 0]
        self._interface_lengths = np.diff(self.interface_x[:: self.order])
        # interface cells in interface-local positions: (end0, end1[, mid])
        start = self.order * np.arange(len(self._interface_lengths))
        cells = [start, start + self.order] + ([start + 1] if self.order == 2 else [])
        self._interface_cells_local = np.stack(cells, axis=1)

    @functools.cached_property
    def _hessians(self):
        """(ncell, nloc, 2, 2): J^-T H_ref J^-1 per cell, computed on first use."""
        jac_inv = self._jac_inv
        ref_hess = _shape_ref_hessians(self.order)  # (nloc, 2, 2)
        return np.swapaxes(jac_inv, 1, 2)[:, None] @ ref_hess[None] @ jac_inv[:, None]

    @functools.cached_property
    def _line_tables(self):
        """Interface quadrature: the rule, its points and weights times the
        edge lengths per interface cell, and the 1D basis values."""
        rule = LINE_RULE
        x0 = self.interface_x[:: self.order][:-1]
        qp_x = x0[:, None] + self._interface_lengths[:, None] * rule.points[None, :]
        vals = _line_shape_values(self.order, rule.points)  # (nq, nloc)
        wdet = self._interface_lengths[:, None] * rule.weights[None, :]
        return {"rule": rule, "qp_x": qp_x, "wdet": wdet, "vals": vals}


def _form_degree(order):
    return 4 if order == 1 else 6


# cells per chunk of every evaluation of a field at a rule's points
CHUNK_CELLS = 2048


def quadrature_chunks(space, rule):
    """The rule on consecutive slices of ``CHUNK_CELLS`` cells:
    ``(cells, wdet, qp)`` with the weights times the cell areas (n, nq) and
    the points (n, nq, 2), so no (ncell, nq, ...) array exists whole."""
    for start in range(0, len(space.cell_dofs), CHUNK_CELLS):
        cells = slice(start, start + CHUNK_CELLS)
        wdet = space._areas[cells, None] * rule.weights
        yield cells, wdet, np.matmul(rule.points, space._corners[cells])


# ---------------------------------------------------------------------------
# assembly: exact reference tensors contracted with per-cell geometry

def _affine_maps(corners):
    """Determinant and inverse Jacobian of each cell's map from the reference.

    ``corners`` has shape (ncell, 3, 2); the physical gradient of a basis
    function is its reference gradient times ``jac_inv`` (ncell, 2, 2).
    """
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    jac_inv = np.empty((len(det), 2, 2))
    jac_inv[:, 0, 0] = d2[:, 1]
    jac_inv[:, 0, 1] = -d2[:, 0]
    jac_inv[:, 1, 0] = -d1[:, 1]
    jac_inv[:, 1, 1] = d1[:, 0]
    return det, jac_inv / det[:, None, None]


def _exact_zeros(ref):
    """Set the entries that quadrature left at round-off size to exactly 0."""
    ref = np.array(ref)
    ref[np.abs(ref) <= 64 * np.finfo(float).eps * np.abs(ref).max()] = 0.0
    return ref


def _reference_mass(order):
    """(nloc, nloc): the mass matrix of a cell of unit area."""
    rule = triangle_rule(_form_degree(order))
    vals = _shape_values(order, rule.points)
    return _exact_zeros(np.einsum("q,qi,qj->ij", rule.weights, vals, vals))


def _reference_stiffness(order):
    """(nloc, nloc, 4): ``R[i, j, e, f]`` with (e, f) as one axis, the
    weighted sum over the quadrature points of reference derivative e of
    phi_i times reference derivative f of phi_j."""
    rule = triangle_rule(_form_degree(order))
    grads = _shape_ref_grads(order, rule.points)  # (nq, nloc, 2)
    ref = np.einsum("q,qie,qjf->ijef", rule.weights, grads, grads)
    return _exact_zeros(ref.reshape(*ref.shape[:2], 4))


def _local_mass(areas, order):
    return areas[:, None, None] * _reference_mass(order)


def _local_stiffness(areas, jac_inv, order):
    """(ncell, nloc, nloc): one GEMM of ``area * J^-1 J^-T`` (ncell, 4) with R."""
    geometry = areas[:, None, None] * np.einsum("ced,cfd->cef", jac_inv, jac_inv)
    ref = _reference_stiffness(order)
    local = geometry.reshape(-1, 4) @ ref.reshape(-1, 4).T
    return local.reshape(-1, *ref.shape[:2])


def _scatter(cells, local, n):
    """Sum per-cell matrices (ncell, nloc, nloc) on dofs ``cells`` into n x n CSR."""
    rows = np.repeat(cells, cells.shape[1], axis=1).ravel()
    cols = np.tile(cells, (1, cells.shape[1])).ravel()
    return finalize_csr(sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)))


def assemble_mass(space):
    """Consistent mass matrix of the space."""
    return _scatter(space.cell_dofs, _local_mass(space._areas, space.order), space.ndof)


def assemble_stiffness(space):
    """Stiffness matrix ``(grad phi_i, grad phi_j)``."""
    local = _local_stiffness(space._areas, space._jac_inv, space.order)
    return _scatter(space.cell_dofs, local, space.ndof)


def assemble_load(space, f):
    """Load vector ``(f, phi_i)`` over the subdomain, evaluated
    ``CHUNK_CELLS`` cells at a time and summed by one ``bincount``."""
    rule = triangle_rule(_form_degree(space.order))
    vals = _shape_values(space.order, rule.points)
    local = np.concatenate(
        [(wdet * np.asarray(f(qp))) @ vals for _, wdet, qp in quadrature_chunks(space, rule)]
    )
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.ndof)


def interface_mass_matrix(space):
    """Interface mass matrix in interface-local dof ordering."""
    tab = space._line_tables
    ref = np.einsum("q,qi,qj->ij", tab["rule"].weights, tab["vals"], tab["vals"])
    local = space._interface_lengths[:, None, None] * ref[None, :, :]
    return _scatter(space._interface_cells_local, local, len(space.interface_dofs))


def assemble_interface_load(space, g):
    """Interface load ``<g, trace phi_i>`` in interface-local ordering."""
    tab = space._line_tables
    local = (tab["wdet"] * np.asarray(g(tab["qp_x"]))) @ tab["vals"]
    return np.bincount(
        space._interface_cells_local.ravel(),
        weights=local.ravel(),
        minlength=len(space.interface_dofs),
    )


# ---------------------------------------------------------------------------
# interpolation and evaluation at quadrature points

ERROR_DEGREE = 6  # over-integration degree used by every error norm


def interpolate(space, f):
    """Nodal interpolant coefficients of ``f``."""
    return np.asarray(f(space.dof_coords))


def interpolate_interface(space, g):
    """Nodal interpolant of an interface field, in interface-local ordering."""
    return np.asarray(g(space.interface_x))


def derivative_operator(space, rule, nder):
    """CSR map from coefficients to the FE derivative at the rule's points.

    ``nder`` is 1 (gradient) or 2 (Hessian).  Rows are ordered (cell, point,
    component), so ``(op @ coeffs).reshape(ncell, nq, 2)`` (or ``(..., 2, 2)``)
    is the derivative at each cell's points.  Every row holds the derivatives of the cell's ``nloc`` basis functions, so the CSR
    arrays are written directly.
    """
    ncell, nloc = space.cell_dofs.shape
    nq = len(rule.points)
    if nder == 1:
        ref = _shape_ref_grads(space.order, rule.points).reshape(nq * nloc, 2)
        vals = (ref @ space._jac_inv).reshape(ncell, nq, nloc, 2).transpose(0, 1, 3, 2)
    else:  # piecewise constant: the same rows at every point
        hess = space._hessians.reshape(ncell, 1, nloc, 4).transpose(0, 1, 3, 2)
        vals = np.broadcast_to(hess, (ncell, nq, 4, nloc))
    per_cell = vals.shape[1] * vals.shape[2]
    indices = np.broadcast_to(space.cell_dofs[:, None, :], (ncell, per_cell, nloc))
    indptr = np.arange(0, ncell * per_cell * nloc + 1, nloc)
    return sp.csr_matrix(
        (vals.ravel(), indices.ravel(), indptr), shape=(ncell * per_cell, space.ndof)
    )
