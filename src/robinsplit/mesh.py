"""The structured two-subdomain triangulation of the unit square.

The unit square is divided at ``y = split_y`` into a lower "fluid" rectangle
and an upper "solid" rectangle.  Both rectangles are meshed by the same
uniform grid of squares with spacing ``1/nx``, each square cut from its
lower-left to its upper-right corner into two right triangles, so the
submeshes are conforming along the dividing line and share its vertices.
The mesh is its triangulation alone: each ``fem.FeSpace`` reads its
Dirichlet side and the interface off its own dof coordinates.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class TwoDomainMesh:
    """Conforming triangulation of the split unit square."""

    vertices: np.ndarray
    triangles_f: np.ndarray
    triangles_s: np.ndarray


def build_two_domain_mesh(nx, split_y):
    """Build the two-subdomain mesh with nx cells per unit length.

    Parameters
    ----------
    nx : int
        Number of grid cells along each axis of the unit square (h = 1/nx).
    split_y : float
        Height of the dividing line; nx * split_y must be an integer so the
        line coincides with a grid row.

    Returns
    -------
    TwoDomainMesh
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

    h = 1.0 / nx
    xs = np.arange(nx + 1) * h
    ys = np.arange(nx + 1) * h
    xg, yg = np.meshgrid(xs, ys)  # yg[iy, ix]
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    # squares row by row (iy outer, ix inner), each cut into two triangles
    iy, ix = np.divmod(np.arange(nx * nx, dtype=np.int64), nx)
    v00 = iy * (nx + 1) + ix
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    return TwoDomainMesh(
        vertices=vertices,
        triangles_f=triangles[: 2 * nx * rows_f],
        triangles_s=triangles[2 * nx * rows_f :],
    )
