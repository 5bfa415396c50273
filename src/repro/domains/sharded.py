"""Load-balanced distributed assembly for composite domains.

On a rectangle every rank of a block partition owns the same number of
anchors (give or take one row/column), so the paper's block decomposition is
automatically balanced.  On a composite domain anchor counts vary wildly
across blocks — a rank whose block falls in a notch owns nothing — so the
dense-assembly stage shards the *anchor list* instead, using
:func:`repro.distributed.cartesian.shard_anchors` (optionally Morton-ordered
for locality) to give every rank an equal share of the subdomain solves.
Each rank accumulates its shard's dense predictions; an allreduce merges the
per-rank sum/count fields before the overlap average.
"""

from __future__ import annotations

import numpy as np

from ..distributed.cartesian import shard_anchors
from ..distributed.comm import Communicator, ReduceOp
from ..distributed.simulated import run_spmd
from ..mosaic.assembly import accumulate_dense_predictions, overlap_average

__all__ = ["sharded_assemble"]


def sharded_assemble(
    field: np.ndarray,
    geometry,
    solver_factory,
    world_size: int,
    boundary_loop: np.ndarray | None = None,
    ordering: str = "row",
    batch_size: int = 256,
    timeout: float = 300.0,
) -> np.ndarray:
    """Dense assembly of a converged lattice field, sharded over ranks.

    Parameters
    ----------
    field:
        Converged global lattice field (bounding-box shape).
    geometry:
        The :class:`~repro.mosaic.geometry.MosaicGeometry` of the domain,
        rectangular or composite.
    solver_factory:
        ``solver_factory(geometry) -> SubdomainSolver``, one per rank.
    world_size:
        Number of simulated ranks to shard the anchors across.
    boundary_loop:
        Optional global Dirichlet loop restored exactly in the result.
    ordering:
        Anchor ordering of the shards (``"row"`` or ``"morton"``).
    """

    anchors = geometry.anchors()
    shards = shard_anchors(anchors, world_size, ordering=ordering)

    def rank_program(comm: Communicator) -> tuple[np.ndarray, np.ndarray]:
        solver = solver_factory(geometry)
        accumulator, counts = accumulate_dense_predictions(
            field, geometry, solver, shards[comm.rank], batch_size=batch_size
        )
        total_acc = comm.allreduce(accumulator, op=ReduceOp.SUM)
        total_counts = comm.allreduce(counts, op=ReduceOp.SUM)
        return total_acc, total_counts

    accumulator, counts = run_spmd(world_size, rank_program, timeout=timeout)[0]
    solution = overlap_average(accumulator, counts)
    if boundary_loop is not None:
        solution = geometry.insert_global_boundary(boundary_loop, solution)
    return solution
