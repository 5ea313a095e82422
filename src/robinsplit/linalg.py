"""Sparse matrices and direct factorization.

Thin layer over scipy.sparse: matrices are canonical CSR
(``finalize_csr``), factorization is a sparse LU kept for repeated solves,
with its seconds and fill, and GMRES returns scipy's residual history with
counts derived from it.  SingularSystemError is raised by a failed
factorization (with the failing pivot index when it can be found), a solve
whose result is not finite, and a GMRES solve that does not converge or
whose right-hand side has no finite norm.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SingularSystemError


def finalize_csr(matrix):
    """Return the matrix as canonical CSR (sorted, deduplicated, no zeros)."""
    m = sp.csr_matrix(matrix)
    m.sum_duplicates()
    m.sort_indices()
    m.eliminate_zeros()
    return m


@dataclass
class Factorization:
    """Sparse LU factorization reused across solves, with nnz(A) of its
    matrix and the seconds ``factorize`` took."""

    shape: tuple
    _lu: object
    nnz_a: int
    seconds: float

    @property
    def nnz(self):
        """SuperLU's count of the entries of L and U, read without building
        either."""
        return self._lu.nnz

    def solve(self, rhs):
        """Solution for ``rhs``; SingularSystemError when it is not finite.

        SuperLU accepts pivots too small to invert in floating point
        without flagging the matrix, and its solve then returns inf/NaN.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.shape[0],):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.shape[0]},)")
        x = self._lu.solve(rhs)
        if not np.isfinite(x).all():
            raise SingularSystemError("sparse LU solve produced a non-finite result")
        return x


def _structural_singular_index(m):
    """Index of the first empty row or column of a CSC matrix, or None.

    Rows are marked from the stored row indices, so neither a copy of ``m``
    nor of its indices is made.
    """
    has_entry = np.zeros(m.shape[0], dtype=bool)
    has_entry[m.indices] = True
    for empty in (np.flatnonzero(~has_entry), np.flatnonzero(np.diff(m.indptr) == 0)):
        if empty.size:
            return int(empty[0])
    return None


def _dense_pivot_index(m):
    """First zero pivot of a dense LU, for small matrices only."""
    import scipy.linalg

    if m.shape[0] > 2048:
        return None
    _, _, u = scipy.linalg.lu(m.toarray())
    diag = np.abs(np.diag(u))
    scale = max(diag.max(), 1.0)
    bad = np.flatnonzero(diag <= 1e-14 * scale)
    return int(bad[0]) if bad.size else None


def factorize(matrix, *, permc_spec="MMD_AT_PLUS_A"):
    """LU-factorize a square sparse matrix with a fill-reducing ordering.

    ``permc_spec`` is SuperLU's column ordering; callers that have ordered
    the matrix themselves pass ``"NATURAL"``.

    Raises
    ------
    SingularSystemError
        If the matrix is structurally or numerically singular; the error
        carries the failing pivot index when it can be identified.
    """
    t0 = time.perf_counter()
    m = sp.csc_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"matrix must be square, got shape {m.shape}")
    idx = _structural_singular_index(m)
    if idx is not None:
        raise SingularSystemError("matrix has an empty row or column", pivot_index=idx)
    try:
        # minimum degree on A^T + A: far less fill than COLAMD on the
        # structurally symmetric FE and start-up block matrices
        lu = spla.splu(m, permc_spec=permc_spec)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse LU factorization failed: {exc}", pivot_index=_dense_pivot_index(m)
        ) from exc
    return Factorization(m.shape, lu, m.nnz, time.perf_counter() - t0)


# GMRES stops once the true residual norm is GMRES_RTOL times that of the
# right-hand side.  From x = 0 (a zero right-hand side returns at once), a
# cycle applies the operator once per step for at most GMRES_MAXITER steps,
# stopping early when the preconditioned residual meets the tolerance, and
# once more for the true residual; if that still misses the tolerance, GMRES
# restarts from there with a tighter inner one.  On the start-up systems of
# example1 P1 and example2/example3 P2 at k = 3..6 the first cycle always
# stops early, after 11 to 28 steps, and up to three were needed: the true
# residual it leaves is close to the rounding of the Schur operator itself.
GMRES_RTOL = 1e-13
GMRES_MAXITER = 400
GMRES_CYCLES = 5


def gmres(apply, rhs, precond):
    """Solve ``apply(x) = rhs`` by GMRES, left-preconditioned by ``precond``.

    ``precond(r)`` solves with an approximation to the operator.  Returns
    the solution and a record: the ``residuals`` scipy reports (relative,
    preconditioned, one per step), ``iterations``, ``applications`` of
    ``apply``, ``restarts`` (the cycles after the first) and ``seconds``.

    Raises
    ------
    SingularSystemError
        If the norm of ``rhs`` is not finite, which would let any iterate
        pass; or if GMRES does not converge, with the iteration count and
        the relative residual reached in the message.
    """
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):  # an overflow is the inf refused below
        rhs_norm = np.linalg.norm(rhs)
    if not np.isfinite(rhs_norm):
        raise SingularSystemError(f"GMRES right-hand side has norm {rhs_norm}, not finite")
    residuals = []
    applications = 0

    def counted(x):
        nonlocal applications
        applications += 1
        return apply(x)

    n = rhs.size
    x, info = spla.gmres(
        spla.LinearOperator((n, n), matvec=counted, dtype=float),
        rhs,
        rtol=GMRES_RTOL,
        atol=0.0,
        restart=GMRES_MAXITER,
        maxiter=GMRES_CYCLES,
        M=spla.LinearOperator((n, n), matvec=precond, dtype=float),
        callback=residuals.append,
        callback_type="pr_norm",
    )
    iterations = len(residuals)
    if info != 0:
        reached = np.linalg.norm(rhs - apply(x)) / rhs_norm
        raise SingularSystemError(
            f"GMRES did not converge: relative residual {reached:.1e} after "
            f"{iterations} iterations (tolerance {GMRES_RTOL:.0e})"
        )
    restarts = max(applications - iterations - 1, 0)
    return x, {"iterations": iterations, "applications": applications, "restarts": restarts,
               "seconds": time.perf_counter() - t0, "residuals": residuals}
