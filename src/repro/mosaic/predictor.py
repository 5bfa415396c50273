"""Sequential and batched Mosaic Flow predictor (single process).

The predictor iteratively refines the solution on the interface lattice by
feeding every atomic subdomain's boundary to the subdomain solver and writing
the predicted centre lines back (Section 2.4 / Figure 2 of the paper).  The
two device-level execution modes of Section 4.1 are both implemented:

* ``batched=False`` — the baseline: one solver call per subdomain,
* ``batched=True``  — all (non-overlapping) subdomains of the current
  iteration are stacked into a single solver call, which raises device
  utilisation by orders of magnitude without changing the results, because a
  phase's subdomains neither overlap nor read what the phase writes.

The iteration itself is :class:`repro.mosaic.core.LatticeRun`; this class is
its one-request driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LatticeOutcome, LatticeRun, Session, checked_reference, checked_solver,
    initialize_lattice_field, timed,
)
from .geometry import MosaicGeometry
from .solvers import SubdomainSolver

__all__ = ["MFPResult", "MosaicFlowPredictor", "initialize_lattice_field"]


@dataclass
class MFPResult(LatticeOutcome):
    """Result of a Mosaic Flow predictor run."""

    mae_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def time_per_iteration(self) -> float:
        busy = self.timings.get("inference", 0.0) + self.timings.get("boundaries_io", 0.0)
        return busy / max(self.iterations, 1)


class MosaicFlowPredictor:
    """Single-process Mosaic Flow predictor.

    Parameters
    ----------
    geometry:
        Interface-lattice geometry of the target domain, rectangular or
        composite; the iteration only ever touches the geometry's enumerated
        anchors and masks, so non-rectangular domains need no special casing
        here.
    solver:
        Subdomain solver (neural or finite-difference).
    batched:
        Batch the non-overlapping subdomains of each iteration into a single
        solver call (Section 4.1).  Results are identical either way.
    init_mode:
        Lattice initialization passed to :func:`initialize_lattice_field`.
    """

    def __init__(
        self,
        geometry: MosaicGeometry,
        solver: SubdomainSolver,
        batched: bool = True,
        init_mode: str = "mean",
    ):
        self.geometry = geometry
        self.solver = checked_solver(geometry, solver)
        self.batched = bool(batched)
        self.init_mode = init_mode

    def _one_by_one(self, boundaries: np.ndarray, points: np.ndarray, _sessions=1) -> np.ndarray:
        return np.concatenate(
            [self.solver.predict(boundaries[i: i + 1], points) for i in range(len(boundaries))]
        )

    def run(
        self,
        boundary_loop: np.ndarray,
        max_iterations: int = 200,
        tol: float = 1e-4,
        reference: np.ndarray | None = None,
        target_mae: float | None = None,
        check_interval: int = 1,
        assemble: bool = True,
    ) -> MFPResult:
        """Solve the BVP defined by ``boundary_loop`` on the global domain.

        Parameters
        ----------
        boundary_loop:
            Dirichlet data along the global boundary loop
            (length ``geometry.global_boundary_size``; for composite domains
            this is the re-entrant boundary loop of the domain polygon).
        max_iterations:
            Iteration budget (each iteration processes one placement phase).
        tol:
            Relative-change convergence threshold on the lattice values
            (Algorithm 2, line 5-8).
        reference:
            Optional reference solution of shape ``(global_ny, global_nx)``;
            enables the MAE-based stopping criterion used in the paper's
            scaling studies.
        target_mae:
            Stop once the assembled-lattice MAE against ``reference`` drops
            below this value; requires ``reference``.
        check_interval:
            How often (in iterations) convergence checks are evaluated.
        assemble:
            Skip the final dense assembly when only lattice values are needed.
        """

        reference = checked_reference(self.geometry, reference, target_mae)
        run = LatticeRun([Session(
            self.geometry, np.asarray(boundary_loop)[None], tol, max_iterations,
            self.init_mode, check_interval,
        )])
        mae_history: list[tuple[int, float]] = []
        on_check = None
        if reference is not None:
            lattice_reference = reference.reshape(-1)[run.plans[0].lattice]

            def on_check(_request, iteration, lattice_values):
                mae = float(np.mean(np.abs(lattice_values - lattice_reference)))
                mae_history.append((iteration, mae))
                return target_mae is not None and mae < target_mae

        def solve(boundaries, points, _sessions=1):
            return self.solver.predict(boundaries, points)

        run.iterate(solve if self.batched else self._one_by_one, on_check)
        with timed(run.timings, "assembly"):
            outcome = run.outcomes(solve if assemble else None)[0][0]
        return MFPResult(**vars(outcome), mae_history=mae_history, timings=run.timings)
