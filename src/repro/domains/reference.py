"""Ground-truth reference solves on composite domains.

The composite analogue of :func:`repro.fd.solve.solve_laplace_from_loop`:
Dirichlet data given along the (re-entrant) composite boundary loop, solved
with the masked finite-difference system of :mod:`repro.fd.masked` on the
bounding-box grid.  Used to evaluate composite Mosaic Flow solves the same
way the rectangular reference evaluates the Fig.-1 benchmark.
"""

from __future__ import annotations

import numpy as np

from ..fd.masked import solve_laplace_masked

__all__ = ["composite_reference_solution"]


def composite_reference_solution(
    geometry,
    boundary_loop: np.ndarray,
    method: str = "direct",
    tol: float = 1e-10,
) -> np.ndarray:
    """Exact masked FD solution of the Laplace BVP posed by ``boundary_loop``.

    ``geometry`` is a :class:`~repro.mosaic.geometry.MosaicGeometry`; on a
    rectangle this reduces to the rectangular reference solve.  Points
    outside the domain are zero in the result.
    """

    boundary_field = geometry.insert_global_boundary(boundary_loop)
    return solve_laplace_masked(
        geometry.global_grid(),
        geometry.interior_mask(),
        geometry.boundary_point_mask(),
        boundary_field,
        method=method,
        tol=tol,
    )
