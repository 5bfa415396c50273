"""Sequential / batched Mosaic Flow predictor."""

import numpy as np
import pytest

from repro.fd import solve_laplace_from_loop
from repro.mosaic import (
    FDSubdomainSolver,
    MosaicFlowPredictor,
    MosaicGeometry,
    assemble_solution,
    initialize_lattice_field,
)
from repro.pde import HARMONIC_FUNCTIONS


def make_problem(geometry, fn_name="saddle"):
    grid = geometry.global_grid()
    fn = HARMONIC_FUNCTIONS[fn_name]
    loop = grid.boundary_from_function(fn)
    reference = solve_laplace_from_loop(grid, loop, method="direct")
    return grid, loop, reference


class TestInitialization:
    def test_modes(self, small_geometry):
        grid, loop, _ = make_problem(small_geometry)
        for mode in ("zero", "mean", "linear"):
            field = initialize_lattice_field(small_geometry, loop, mode)
            assert field.shape == grid.shape
            assert np.allclose(grid.extract_boundary(field), grid.extract_boundary(grid.insert_boundary(loop)))
        with pytest.raises(ValueError):
            initialize_lattice_field(small_geometry, loop, "random")

    def test_linear_mode_interpolates_linear_data_exactly(self):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4)
        grid = geo.global_grid()
        exact = grid.field_from_function(HARMONIC_FUNCTIONS["linear"])
        loop = grid.extract_boundary(exact)
        field = initialize_lattice_field(geo, loop, "linear")
        assert np.max(np.abs(field - exact)) < 1e-10


class TestConvergenceToReference:
    def test_converges_with_exact_subdomain_solver(self, small_geometry, fd_subdomain_solver):
        grid, loop, reference = make_problem(small_geometry, "exp_sine")
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver, batched=True)
        result = predictor.run(loop, max_iterations=300, tol=1e-9, reference=reference)
        assert result.converged
        assert np.mean(np.abs(result.solution - reference)) < 1e-5
        assert result.iterations < 300
        # deltas should broadly decrease
        assert result.deltas[-1] < result.deltas[0]

    def test_boundary_values_are_exact(self, small_geometry, fd_subdomain_solver):
        grid, loop, reference = make_problem(small_geometry)
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver)
        result = predictor.run(loop, max_iterations=40, tol=1e-8)
        canonical = grid.insert_boundary(loop)
        mask = grid.boundary_mask()
        assert np.allclose(result.solution[mask], canonical[mask])

    def test_target_mae_stopping(self, small_geometry, fd_subdomain_solver):
        grid, loop, reference = make_problem(small_geometry, "cubic")
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver)
        result = predictor.run(
            loop, max_iterations=200, tol=0.0, reference=reference, target_mae=0.05
        )
        assert result.converged
        assert result.mae_history[-1][1] < 0.05

    def test_larger_domain_still_converges(self, fd_subdomain_solver):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=6)
        grid, loop, reference = make_problem(geo, "product")
        solver = FDSubdomainSolver(geo.subdomain_grid())
        predictor = MosaicFlowPredictor(geo, solver)
        result = predictor.run(loop, max_iterations=400, tol=1e-8, reference=reference)
        assert np.mean(np.abs(result.solution - reference)) < 1e-4


class TestBatchedEqualsUnbatched:
    def test_identical_lattice_fields(self, small_geometry):
        grid, loop, _ = make_problem(small_geometry, "exp_sine")
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        batched = MosaicFlowPredictor(small_geometry, solver, batched=True)
        unbatched = MosaicFlowPredictor(small_geometry, solver, batched=False)
        res_b = batched.run(loop, max_iterations=12, tol=0.0, assemble=False)
        res_u = unbatched.run(loop, max_iterations=12, tol=0.0, assemble=False)
        assert np.array_equal(res_b.lattice_field, res_u.lattice_field)

    def test_timings_recorded(self, small_geometry, fd_subdomain_solver):
        grid, loop, _ = make_problem(small_geometry)
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver)
        result = predictor.run(loop, max_iterations=8, tol=0.0)
        assert {"inference", "boundaries_io", "assembly"} <= set(result.timings)
        assert result.time_per_iteration > 0


class TestAssembly:
    def test_assembled_solution_covers_every_point(self, small_geometry, fd_subdomain_solver):
        grid, loop, _ = make_problem(small_geometry)
        field = initialize_lattice_field(small_geometry, loop, "linear")
        solution = assemble_solution(field, small_geometry, fd_subdomain_solver, boundary_loop=loop)
        assert solution.shape == grid.shape
        assert np.all(np.isfinite(solution))

    def test_validation_of_boundary_and_solver_sizes(self, small_geometry, fd_subdomain_solver):
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver)
        with pytest.raises(ValueError):
            predictor.run(np.zeros(7))
        big_geo = MosaicGeometry(subdomain_points=13, subdomain_extent=0.5, steps_x=4, steps_y=4)
        with pytest.raises(ValueError):
            MosaicFlowPredictor(big_geo, fd_subdomain_solver)

    @pytest.mark.parametrize("check_interval", [0, -1])
    def test_check_interval_below_one_is_rejected(
        self, small_geometry, fd_subdomain_solver, check_interval
    ):
        _, loop, _ = make_problem(small_geometry)
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver)
        with pytest.raises(ValueError, match="check_interval must be at least 1"):
            predictor.run(loop, max_iterations=4, check_interval=check_interval)


class TestNeuralPredictor:
    def test_runs_with_sdnet_solver(self, small_geometry, small_sdnet):
        """An untrained SDNet will not be accurate, but the pipeline must run."""

        from repro.mosaic import SDNetSubdomainSolver

        grid, loop, _ = make_problem(small_geometry)
        # The SDNet fixture was built for the 9x9 subdomain boundary (32 samples).
        assert small_sdnet.boundary_size == small_geometry.subdomain_grid().boundary_size
        predictor = MosaicFlowPredictor(small_geometry, SDNetSubdomainSolver(small_sdnet))
        result = predictor.run(loop, max_iterations=8, tol=0.0)
        assert result.solution.shape == grid.shape
        assert np.all(np.isfinite(result.solution))
