"""Sequential / batched Mosaic Flow predictor."""

import numpy as np
import pytest

from repro.fd import solve_laplace_from_loop
from repro.mosaic import (
    DistributedMosaicFlowPredictor,
    FDSubdomainSolver,
    MosaicFlowPredictor,
    MosaicGeometry,
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
        solution = MosaicFlowPredictor(
            small_geometry, fd_subdomain_solver, init_mode="linear"
        ).run(loop, max_iterations=1, tol=0.0).solution
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


    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_budget_below_one_is_rejected(
        self, small_geometry, fd_subdomain_solver, max_iterations
    ):
        _, loop, _ = make_problem(small_geometry)
        predictor = MosaicFlowPredictor(small_geometry, fd_subdomain_solver)
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            predictor.run(loop, max_iterations=max_iterations)


class TestReferenceValidation:
    """Both predictors refuse a reference off the global grid, or a
    ``target_mae`` without a reference, before any subdomain is solved."""

    @staticmethod
    def _run(kind, geometry, loop, solvers, **kwargs):
        def factory():
            solvers.append(FDSubdomainSolver(geometry.subdomain_grid(), method="direct"))
            return solvers[-1]

        kwargs.update(max_iterations=20, tol=0.0)
        if kind == "single":
            return MosaicFlowPredictor(geometry, factory()).run(loop, **kwargs)
        return DistributedMosaicFlowPredictor(geometry, factory).run(2, loop, **kwargs)[0]

    @staticmethod
    def _assert_nothing_solved(kind, solvers):
        if kind == "single":  # the predictor holds its solver from construction
            assert [solver.inference_calls for solver in solvers] == [0]
        else:  # no rank started
            assert solvers == []

    @pytest.mark.parametrize("kind", ["single", "distributed"])
    def test_global_reference_stops_on_target_mae(self, small_geometry, kind):
        _, loop, reference = make_problem(small_geometry)
        result = self._run(kind, small_geometry, loop, [], reference=reference, target_mae=1e-3)
        assert result.converged and result.iterations < 20
        assert result.mae_history[-1][1] < 1e-3

    @pytest.mark.parametrize("kind", ["single", "distributed"])
    @pytest.mark.parametrize(
        "shape", [(20, 20), (17, 16), (17 * 17,)], ids=["padded", "cropped", "flat"])
    def test_reference_off_the_global_grid_is_rejected(self, small_geometry, kind, shape):
        _, loop, reference = make_problem(small_geometry)
        wrong = np.zeros(shape)
        if wrong.ndim == 2:  # the right reference in the top-left corner
            rows, cols = min(shape[0], 17), min(shape[1], 17)
            wrong[:rows, :cols] = reference[:rows, :cols]
        else:
            wrong[:] = reference.reshape(-1)
        solvers = []
        with pytest.raises(ValueError, match="global grid's shape"):
            self._run(kind, small_geometry, loop, solvers, reference=wrong, target_mae=1e-3)
        self._assert_nothing_solved(kind, solvers)

    @pytest.mark.parametrize("kind", ["single", "distributed"])
    def test_target_mae_without_reference_is_rejected(self, small_geometry, kind):
        _, loop, _ = make_problem(small_geometry)
        solvers = []
        with pytest.raises(ValueError, match="target_mae needs a reference"):
            self._run(kind, small_geometry, loop, solvers, target_mae=1e-3)
        self._assert_nothing_solved(kind, solvers)


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
