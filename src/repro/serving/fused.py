"""Fused execution of many same-geometry BVPs in one lattice iteration.

This is the serving-layer generalization of the device-level batching in
:class:`~repro.mosaic.MosaicFlowPredictor`: where the single-BVP predictor
stacks the non-overlapping subdomains of one iteration phase into one solver
call, the fused runner additionally stacks that phase across *all* requests
of a batch — a batch of ``B`` requests with ``S`` subdomains per phase makes
one solver call over ``B * S`` boundary loops.  Requests are independent
problems, so fusing them changes only the shape of the solver call, never the
numbers fed to (or read from) the solver.

Per-request semantics are kept *identical* to running
``MosaicFlowPredictor.run(loop, max_iterations, tol)`` on each request alone,
down to the bits of the convergence deltas, because both are the same code:
:class:`FusedBatchRunner` validates a batch into a
:class:`~repro.mosaic.core.Session` and drives
:class:`~repro.mosaic.core.LatticeRun` over that one session (see there for
how a request keeps its own tolerance, budget and check cadence and retires
alone).  The runner owns the ``fused.iterate`` / ``fused.assembly`` spans and
the call counters.  Several sessions in one run is cross-request
mega-batching (:mod:`repro.serving.megabatch`).
"""

from __future__ import annotations

import numpy as np

from ..mosaic.core import ASSEMBLY_CHUNK, LatticeOutcome, LatticeRun, Session, checked_solver
from ..mosaic.geometry import MosaicGeometry
from ..mosaic.solvers import SubdomainSolver
from ..obs.trace import span

__all__ = ["FusedOutcome", "FusedBatchRunner"]


#: per-request outcome of a fused batch run (the core's outcome type)
FusedOutcome = LatticeOutcome


class FusedBatchRunner:
    """Run a batch of same-geometry BVPs through fused solver calls.

    Parameters
    ----------
    geometry:
        Shared interface-lattice geometry of every request in the batch,
        rectangular or composite.
    solver:
        Subdomain solver; fused calls receive ``(B * S, 4N)`` boundary
        stacks.
    init_mode, check_interval:
        Shared lattice initialization and convergence-check cadence (these
        are part of the batcher's group key).
    assembly_batch:
        Anchors per request carried by one dense-assembly call, as in
        :func:`~repro.mosaic.assembly.accumulate_dense_predictions`.
    """

    def __init__(
        self,
        geometry: MosaicGeometry,
        solver: SubdomainSolver,
        init_mode: str = "mean",
        check_interval: int = 1,
        assembly_batch: int = ASSEMBLY_CHUNK,
    ):
        if check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        self.geometry = geometry
        self.solver = checked_solver(geometry, solver)
        self.init_mode = init_mode
        self.check_interval = int(check_interval)
        self.assembly_batch = int(assembly_batch)
        #: number of fused solver calls issued (iteration + assembly)
        self.predict_calls = 0
        #: total subdomain solves carried by those calls
        self.subdomains_solved = 0

    def session(
        self,
        boundary_loops: np.ndarray,
        tols: np.ndarray | float = 1e-6,
        max_iterations: np.ndarray | int = 400,
    ) -> Session:
        """Validate one batch's inputs into a core session."""

        loops = np.asarray(boundary_loops, dtype=float)
        if loops.ndim != 2 or loops.shape[1] != self.geometry.global_boundary_size:
            raise ValueError(
                f"boundary_loops must have shape (B, {self.geometry.global_boundary_size}), "
                f"got {loops.shape}"
            )
        num_requests = loops.shape[0]
        budgets = np.broadcast_to(np.asarray(max_iterations, dtype=int), (num_requests,))
        if np.any(budgets < 1):
            raise ValueError("max_iterations must be at least 1")
        return Session(
            self.geometry, loops,
            np.broadcast_to(np.asarray(tols, dtype=float), (num_requests,)), budgets,
            self.init_mode, self.check_interval, self.assembly_batch,
        )

    def _predict(self, boundaries: np.ndarray, points: np.ndarray, _sessions=1) -> np.ndarray:
        self.predict_calls += 1
        self.subdomains_solved += boundaries.shape[0]
        return self.solver.predict(boundaries, points)

    def run(
        self,
        boundary_loops: np.ndarray,
        tols: np.ndarray | float = 1e-6,
        max_iterations: np.ndarray | int = 400,
    ) -> list[FusedOutcome]:
        """Solve every request of the batch; returns per-request outcomes.

        ``tols`` and ``max_iterations`` may be scalars (shared) or per-request
        vectors — per-request values do not break fusion.
        """

        run = LatticeRun([self.session(boundary_loops, tols, max_iterations)])
        requests = len(run.plans)
        with span("fused.iterate", requests=requests) as iterate_span:
            run.iterate(self._predict)
            iterate_span.set_attr("iterations", max((r.iterations for r in run.results), default=0))
        with span("fused.assembly", requests=requests):
            return run.outcomes(self._predict)[0]
