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
exactly the paper's throughput lever: SDNet calls as close to the
memory-feasible maximum batch as the traffic allows.

:class:`MegaBatchExecutor` drives several runners' call generators
(:meth:`~repro.serving.fused.FusedBatchRunner.iterate_calls` /
``assembly_calls``) in lockstep.  Each round it collects every session's
pending ``(boundaries, points)`` call, concatenates the boundary rows, runs
the solver once (chunked to a perfmodel-sized row cap when one is
configured), and scatters the prediction rows back to their sessions.  Row
order within each session's call is untouched and solvers are row-batch
invariant (``SDNetSubdomainSolver`` runs every call as fixed chunks of at most
``GEMM_STABLE_ROWS`` rows, ``FDSubdomainSolver`` contracts the rows with its
cached boundary-to-field operator in a fixed column order with elementwise
operations only), so every session receives bitwise-identical predictions to
its sequential run — the per-request path stays the test oracle.

Fusion compatibility is decided by :func:`solver_fusion_key` plus the
subdomain grid parameters; unknown solver types conservatively never fuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import memory as obs_memory
from .fused import FusedBatchRunner, FusedOutcome, FusedState

__all__ = ["solver_fusion_key", "MegaSession", "MegaBatchExecutor"]


def solver_fusion_key(solver) -> tuple | None:
    """Identity under which two geometry groups may share fused solver calls.

    Two groups fuse only when their solvers are *equivalent*: the same
    trained network (same model object, same internal batch cap) or the same
    exact finite-difference configuration.  Returns ``None`` for solver types
    this module does not understand — those groups never cross-fuse, they
    just keep their classic per-group path.
    """

    from ..mosaic.solvers import FDSubdomainSolver, SDNetSubdomainSolver

    if isinstance(solver, FDSubdomainSolver):
        grid = solver.grid
        return ("fd", grid.nx, grid.ny, tuple(grid.extent), solver.method)
    if isinstance(solver, SDNetSubdomainSolver):
        return ("sdnet", id(solver.model), solver.max_batch)
    return None


@dataclass
class MegaSession:
    """One request batch's runner + iteration state inside a mega run."""

    runner: FusedBatchRunner
    state: FusedState

    @classmethod
    def begin(cls, runner: FusedBatchRunner, loops, tols, budgets) -> "MegaSession":
        return cls(runner=runner, state=runner.begin(loops, tols, budgets))


class MegaBatchExecutor:
    """Drive many fused sessions through shared, row-concatenated solver calls.

    Parameters
    ----------
    solver:
        The shared subdomain solver answering every fused call.
    max_rows_for:
        Optional ``max_rows_for(q_points) -> int`` sizing the largest fused
        call (rows) the perfmodel allows for a given query-point count;
        over-cap calls are split into consecutive chunks (chunking is
        bitwise-invariant for row-batch-invariant solvers).  ``None`` puts
        every pending row into one call.
    on_call:
        Optional ``on_call(rows, sessions)`` observer fired once per issued
        solver call with the fused row count and the number of sessions that
        contributed — the mega-batch occupancy signal.

    Attributes
    ----------
    calls, rows:
        Number of solver calls issued and total rows carried by them.
    """

    def __init__(self, solver, max_rows_for=None, on_call=None):
        self.solver = solver
        self.max_rows_for = max_rows_for
        self.on_call = on_call
        self.calls = 0
        self.rows = 0

    def run(self, sessions: list[MegaSession]) -> list[list[FusedOutcome]]:
        """Run every session to completion; returns per-session outcomes."""

        self._drive([s.runner.iterate_calls(s.state) for s in sessions])
        self._drive([s.runner.assembly_calls(s.state) for s in sessions])
        return [s.runner.outcomes(s.state) for s in sessions]

    # -- lockstep driver ---------------------------------------------------------

    def _drive(self, generators) -> None:
        pending = []
        for generator in generators:
            try:
                pending.append((generator, next(generator)))
            except StopIteration:
                continue
        while pending:
            points = pending[0][1][1]
            for _, (_, other) in pending[1:]:
                if other is not points and not np.array_equal(other, points):
                    raise ValueError(
                        "mega-batched sessions disagree on query coordinates; "
                        "their geometries are not fusion-compatible"
                    )
            boundaries = [call[0] for _, call in pending]
            counts = [b.shape[0] for b in boundaries]
            scratch_bytes = 0
            if len(boundaries) > 1:
                stacked = np.concatenate(boundaries, axis=0)
                # Concatenation scratch is the mega path's only allocation
                # beyond the solver's own; account it so bytes-per-request
                # reflects occupancy.
                scratch_bytes = int(stacked.nbytes)
                obs_memory.add(obs_memory.MEGA_SCRATCH, scratch_bytes)
            else:
                stacked = boundaries[0]
            try:
                predictions = self._predict(stacked, points, sessions=len(pending))
            finally:
                if scratch_bytes:
                    obs_memory.sub(obs_memory.MEGA_SCRATCH, scratch_bytes)
            advanced = []
            offset = 0
            for (generator, _), count in zip(pending, counts):
                part = predictions[offset:offset + count]
                offset += count
                try:
                    advanced.append((generator, generator.send(part)))
                except StopIteration:
                    continue
            pending = advanced

    def _predict(self, stacked, points, sessions: int) -> np.ndarray:
        total = stacked.shape[0]
        cap = None if self.max_rows_for is None else int(self.max_rows_for(points.shape[0]))
        if cap is None or cap < 1 or total <= cap:
            self.calls += 1
            self.rows += total
            if self.on_call is not None:
                self.on_call(total, sessions)
            return self.solver.predict(stacked, points)
        out = np.empty((total, points.shape[0]), dtype=float)
        obs_memory.add(obs_memory.MEGA_SCRATCH, out.nbytes)
        try:
            for start in range(0, total, cap):
                stop = min(start + cap, total)
                out[start:stop] = self.solver.predict(stacked[start:stop], points)
                self.calls += 1
                self.rows += stop - start
                if self.on_call is not None:
                    self.on_call(stop - start, sessions)
            return out
        finally:
            obs_memory.sub(obs_memory.MEGA_SCRATCH, out.nbytes)
