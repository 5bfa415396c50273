"""Cross-request anchor-level mega-batching.

The per-geometry :class:`~repro.serving.fused.FusedBatchRunner` already
stacks one request batch's anchors into fused solver calls; this module
pushes batching one level lower.  Requests from *different* geometry groups
whose subdomains have the same local grid (points and extent) query the
solver with identical local coordinates — the iterate calls all use the
geometry's center-line coordinates and the assembly calls its interior
coordinates, both of which depend only on the subdomain grid.  Their rows can
therefore be concatenated into one solver call regardless of the global
domain shape (a 4x4 rectangle and an L-shaped composite fuse fine), which is
the paper's throughput lever: SDNet calls as large as the traffic allows.

:class:`MegaBatchExecutor` hands all its sessions to one
:class:`~repro.mosaic.core.LatticeRun`: every iteration and every assembly
chunk is one gather and one counted solver call over the requests of all of
them.  No row cap splits that call: on CPU the SDNet forward costs the same
per row from 32 rows up, and the solver chunks its own GEMMs.
Solvers are row-batch invariant (``SDNetSubdomainSolver`` runs every call as
fixed chunks of at most ``GEMM_STABLE_ROWS`` rows, ``FDSubdomainSolver``
accumulates its cached operator's columns in a fixed order, elementwise) and
the core checks convergence on each request's own lattice vector, so every
request gets the bits of its standalone run, which stays the test oracle.

Fusion compatibility is decided by :func:`solver_fusion_key` plus the
subdomain grid parameters; unknown solver types conservatively never fuse.
"""

from __future__ import annotations

import numpy as np

from ..mosaic.core import LatticeRun, Session
from .fused import FusedOutcome

__all__ = ["solver_fusion_key", "MegaBatchExecutor"]


def solver_fusion_key(solver) -> tuple | None:
    """Identity under which two geometry groups may share fused solver calls.

    Two groups fuse only when their solvers are *equivalent*: the same
    trained network (same model object, same internal batch cap) or the same
    exact finite-difference configuration.  Returns ``None`` for solver types
    this module does not understand — those groups never cross-fuse: each
    runs alone on a solver built for it.
    """

    from ..mosaic.solvers import FDSubdomainSolver, SDNetSubdomainSolver

    if isinstance(solver, FDSubdomainSolver):
        grid = solver.grid
        return ("fd", grid.nx, grid.ny, tuple(grid.extent), solver.method)
    if isinstance(solver, SDNetSubdomainSolver):
        return ("sdnet", id(solver.model), solver.max_batch)
    return None


class MegaBatchExecutor:
    """Drive many fused sessions through shared, row-concatenated solver calls.

    Parameters
    ----------
    solver:
        The shared subdomain solver answering every fused call.
    on_call:
        Optional ``on_call(rows, sessions)`` observer fired once per issued
        solver call with the fused row count and the number of sessions that
        contributed — the mega-batch occupancy signal.

    Attributes
    ----------
    calls, rows:
        Number of solver calls issued and total rows carried by them.
    """

    def __init__(self, solver, on_call=None):
        self.solver = solver
        self.on_call = on_call
        self.calls = 0
        self.rows = 0

    def run(self, sessions: list[Session]) -> list[list[FusedOutcome]]:
        """Run every session (see :meth:`FusedBatchRunner.session
        <repro.serving.fused.FusedBatchRunner.session>`) to completion."""

        if not sessions:
            return []
        run = LatticeRun(sessions)
        run.iterate(self._predict)
        return run.outcomes(self._predict)

    def _predict(self, stacked, points, sessions: int) -> np.ndarray:
        self.calls += 1
        self.rows += stacked.shape[0]
        if self.on_call is not None:
            self.on_call(stacked.shape[0], sessions)
        return self.solver.predict(stacked, points)
