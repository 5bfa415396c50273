"""One session served as one lattice run: parity with individual solves.

The core guarantee of the serving layer: fusing many BVPs into one lattice
run (:func:`repro.serving.compute.lattice_run`) changes *only* the shape of
the solver calls — every request's iterate sequence, stopping decision and
assembled solution match a standalone ``MosaicFlowPredictor.run``.
"""

import numpy as np
import pytest

from repro.mosaic import (
    FDSubdomainSolver,
    MosaicFlowPredictor,
    SDNetSubdomainSolver,
    MosaicGeometry,
)
from repro.mosaic.core import Session
from repro.serving.compute import lattice_run


def _fd_factory(geometry):
    return FDSubdomainSolver(geometry.subdomain_grid(), method="direct")


def _run(geometry, solver, loops, tols, budgets):
    """Every request of one session: ``(outcomes, calls)``."""

    outcomes, calls = lattice_run(solver, [Session(geometry, loops, tols, budgets)])
    return outcomes[0], calls


class TestOneSession:
    def test_matches_individual_runs_exactly(self, small_geometry, harmonic_loops):
        loops = harmonic_loops(5, seed=11)
        outcomes, _ = _run(small_geometry, _fd_factory(small_geometry), loops, 1e-7, 150)

        solver = _fd_factory(small_geometry)
        for loop, outcome in zip(loops, outcomes):
            reference = MosaicFlowPredictor(small_geometry, solver, batched=True).run(
                loop, max_iterations=150, tol=1e-7
            )
            # The FD solver is deterministic per boundary row, so the fused
            # run reproduces the standalone run bit for bit.
            assert outcome.iterations == reference.iterations
            assert outcome.converged == reference.converged
            np.testing.assert_array_equal(outcome.lattice_field, reference.lattice_field)
            np.testing.assert_array_equal(outcome.solution, reference.solution)
            # One iteration core: the convergence deltas are the predictor's
            # own (sqrt(x.x) on the request's lattice vector), to the bit.
            assert outcome.deltas == reference.deltas

    def test_per_request_tolerances_and_budgets(self, small_geometry, harmonic_loops):
        loops = harmonic_loops(3, seed=5)
        tols = np.array([1e-2, 1e-8, 0.0])
        budgets = np.array([200, 200, 9])
        outcomes, _ = _run(small_geometry, _fd_factory(small_geometry), loops, tols, budgets)
        solver = _fd_factory(small_geometry)
        for loop, tol, budget, outcome in zip(loops, tols, budgets, outcomes):
            reference = MosaicFlowPredictor(small_geometry, solver, batched=True).run(
                loop, max_iterations=int(budget), tol=float(tol)
            )
            assert outcome.iterations == reference.iterations
            assert outcome.converged == reference.converged
            np.testing.assert_array_equal(outcome.solution, reference.solution)
        # the loose-tolerance request stopped earlier than the tight one
        assert outcomes[0].iterations < outcomes[1].iterations
        assert outcomes[2].iterations == 9 and not outcomes[2].converged

    def test_fuses_calls_across_requests(self, small_geometry, harmonic_loops):
        loops = harmonic_loops(4, seed=3)
        _, calls = _run(small_geometry, _fd_factory(small_geometry), loops, 0.0, 8)
        # 8 iterations + 1 assembly chunk = 9 fused calls for all 4 requests,
        # versus 4 * 9 had each request been run alone.
        assert len(calls) == 9
        assert sum(rows for rows, _ in calls) >= 4 * small_geometry.num_subdomains
        assert {sessions for _, sessions in calls} == {1}

    def test_neural_solver_parity_within_tolerance(self, small_geometry, small_sdnet,
                                                   harmonic_loops):
        # An (untrained) SDNet exercises the batched-matmul path: results may
        # differ from standalone runs only by BLAS reduction order.
        loops = harmonic_loops(3, seed=7)
        outcomes, _ = _run(small_geometry, SDNetSubdomainSolver(small_sdnet), loops, 0.0, 8)
        solver = SDNetSubdomainSolver(small_sdnet)
        for loop, outcome in zip(loops, outcomes):
            reference = MosaicFlowPredictor(small_geometry, solver, batched=True).run(
                loop, max_iterations=8, tol=0.0
            )
            np.testing.assert_allclose(
                outcome.solution, reference.solution, rtol=1e-9, atol=1e-10
            )

    def test_input_validation(self, small_geometry):
        solver = _fd_factory(small_geometry)
        with pytest.raises(ValueError, match="shape"):
            _run(small_geometry, solver, np.zeros((2, 5)), 1e-6, 400)
        with pytest.raises(ValueError, match="max_iterations"):
            _run(small_geometry, solver,
                 np.zeros((1, small_geometry.global_grid().boundary_size)), 1e-6, 0)
        with pytest.raises(ValueError, match="boundary size"):
            bad = MosaicGeometry(subdomain_points=13, subdomain_extent=0.5,
                                 steps_x=4, steps_y=4)
            _run(small_geometry, _fd_factory(bad),
                 np.zeros((1, small_geometry.global_grid().boundary_size)), 1e-6, 4)
