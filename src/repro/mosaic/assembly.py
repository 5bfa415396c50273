"""Final dense assembly of the Mosaic Flow solution.

After the interface-lattice iteration converges, every atomic subdomain's
interior is predicted densely from its final boundary values and the
overlapping predictions are averaged (Algorithm 2, lines 10-12).  The
accumulation itself is :func:`repro.mosaic.core.accumulate`, shared with the
predictors and the serving layer; the functions here apply it to one 2-D
field and an arbitrary anchor list (what the sharded assembly of
:mod:`repro.domains.sharded` needs).
"""

from __future__ import annotations

import numpy as np

from .core import accumulate, build_plan, overlap_average
from .geometry import MosaicGeometry
from .solvers import SubdomainSolver

__all__ = ["accumulate_dense_predictions", "overlap_average", "assemble_solution"]


def accumulate_dense_predictions(
    field: np.ndarray,
    geometry: MosaicGeometry,
    solver: SubdomainSolver,
    anchors: list[tuple[int, int]],
    accumulator: np.ndarray | None = None,
    counts: np.ndarray | None = None,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict every subdomain interior and accumulate into sum/count arrays.

    Parameters
    ----------
    field:
        Current global (or rank-local) field holding the converged lattice
        values; must cover all ``anchors`` windows.
    geometry:
        Mosaic geometry describing subdomain layout.
    solver:
        Subdomain solver used for the dense predictions.
    anchors:
        Anchors (in lattice units, relative to ``field``'s origin) to process.
    accumulator, counts:
        Optional pre-existing accumulators matching ``field``'s shape.
    batch_size:
        Number of subdomains predicted per solver call.

    Returns
    -------
    ``(accumulator, counts)`` where ``accumulator[i, j]`` is the sum of all
    predictions at that grid point and ``counts[i, j]`` how many subdomains
    contributed.
    """

    if accumulator is None:
        accumulator = np.zeros(field.shape)
    if counts is None:
        counts = np.zeros(field.shape)
    if not anchors:
        return accumulator, counts
    # Only the plan's assembly half is used: no point of ``field`` is marked
    # as lattice, and the phase split of ``anchors`` goes unread.
    plan = build_plan(
        geometry, anchors, shape=field.shape, lattice_mask=np.zeros(field.shape, dtype=bool)
    )
    total = np.zeros(field.size)
    accumulate(
        np.ascontiguousarray(field, dtype=float).reshape(-1), total,
        [(plan, np.zeros(1, dtype=np.intp), batch_size)],
        lambda boundaries, points, _sessions: solver.predict(boundaries, points),
    )
    accumulator += total.reshape(field.shape)
    counts += plan.counts
    return accumulator, counts


def assemble_solution(
    field: np.ndarray,
    geometry: MosaicGeometry,
    solver: SubdomainSolver,
    boundary_loop: np.ndarray | None = None,
    batch_size: int = 256,
) -> np.ndarray:
    """Dense solution on the global grid from converged lattice values.

    Convenience wrapper used by the single-process predictors: predicts every
    subdomain, averages overlaps and restores the exact global Dirichlet data
    if ``boundary_loop`` is given.  On composite geometries the anchors cover
    exactly the domain, so points outside it keep a zero count and stay zero
    (the masked weighted average never mixes in out-of-domain values).
    """

    accumulator, counts = accumulate_dense_predictions(
        field, geometry, solver, geometry.anchors(), batch_size=batch_size
    )
    solution = overlap_average(accumulator, counts)
    if boundary_loop is not None:
        solution = geometry.insert_global_boundary(
            np.asarray(boundary_loop, dtype=float), solution
        )
    return solution
