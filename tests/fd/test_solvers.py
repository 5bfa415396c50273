"""Discretization, smoothers, multigrid, CG and the high-level solvers."""

import os

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fd import solve as fd_solve
from repro.fd import (
    GeometricMultigrid,
    Grid2D,
    apply_laplacian,
    assemble_poisson,
    conjugate_gradient,
    gauss_seidel,
    get_smoother,
    laplacian_matrix,
    poisson_rhs,
    prolongation_1d,
    solve_laplace,
    solve_laplace_from_loop,
    solve_laplace_masked,
    solve_poisson,
    sor,
    weighted_jacobi,
)
from repro.pde import HARMONIC_FUNCTIONS


class TestDiscretization:
    def test_matrix_is_symmetric_positive_definite(self):
        grid = Grid2D(9, 7)
        A = laplacian_matrix(grid)
        dense = A.toarray()
        assert np.allclose(dense, dense.T)
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.min() > 0

    def test_row_sums_reflect_boundary_coupling(self):
        grid = Grid2D(5, 5, extent=(1.0, 1.0))
        A = laplacian_matrix(grid)
        # Interior-of-interior rows have zero row sum; rows next to the
        # boundary are missing neighbours and have positive row sums.
        sums = np.asarray(A.sum(axis=1)).ravel()
        assert sums.max() > 0
        assert np.all(sums >= -1e-10)

    def test_apply_laplacian_of_exact_harmonic_is_zero(self):
        grid = Grid2D(17, 17)
        field = grid.field_from_function(HARMONIC_FUNCTIONS["saddle"])
        assert np.max(np.abs(apply_laplacian(grid, field))) < 1e-10

    def test_rhs_includes_boundary_and_forcing(self):
        grid = Grid2D(5, 5)
        boundary_field = np.zeros(grid.shape)
        boundary_field[0, :] = 1.0  # south edge
        A, b = assemble_poisson(grid, forcing=2.0, boundary_field=boundary_field)
        assert b.shape == (9,)
        # the three unknowns adjacent to the south edge see the boundary term
        assert np.count_nonzero(b > 2.0) == 3

    def test_forcing_shape_validation(self):
        grid = Grid2D(5, 5)
        with pytest.raises(ValueError):
            assemble_poisson(grid, forcing=np.zeros((2, 2)))


class TestSmoothers:
    def setup_method(self):
        self.grid = Grid2D(17, 17)
        self.A, self.b = assemble_poisson(
            self.grid, 1.0, np.zeros(self.grid.shape)
        )

    @pytest.mark.parametrize("smoother", [weighted_jacobi, gauss_seidel, sor])
    def test_smoothers_reduce_residual(self, smoother):
        # Stationary smoothers damp high-frequency error quickly but converge
        # slowly overall; 20 sweeps should still clearly reduce the residual.
        x0 = np.zeros_like(self.b)
        x1 = smoother(self.A, self.b, x0.copy(), iterations=20)
        r0 = np.linalg.norm(self.b - self.A @ x0)
        r1 = np.linalg.norm(self.b - self.A @ x1)
        assert r1 < 0.75 * r0

    def test_gauss_seidel_beats_jacobi(self):
        x_j = weighted_jacobi(self.A, self.b, np.zeros_like(self.b), iterations=10)
        x_gs = gauss_seidel(self.A, self.b, np.zeros_like(self.b), iterations=10)
        assert np.linalg.norm(self.b - self.A @ x_gs) < np.linalg.norm(self.b - self.A @ x_j)

    def test_get_smoother_lookup(self):
        assert get_smoother("jacobi") is weighted_jacobi
        with pytest.raises(ValueError):
            get_smoother("ilu")

    def test_sor_omega_validation(self):
        with pytest.raises(ValueError):
            sor(self.A, self.b, np.zeros_like(self.b), omega=2.5)


class TestMultigrid:
    def test_hierarchy_depth(self):
        grid = Grid2D(65, 65)
        A, _ = assemble_poisson(grid, 1.0)
        mg = GeometricMultigrid(A, (63, 63), min_size=64)
        assert mg.num_levels >= 3

    def test_prolongation_shape_and_partition_of_unity(self):
        P = prolongation_1d(9)
        assert P.shape == (9, 5)
        assert np.allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0)
        with pytest.raises(ValueError):
            prolongation_1d(2)

    def test_v_cycle_converges_fast(self):
        grid = Grid2D(65, 65)
        A, b = assemble_poisson(grid, 1.0)
        mg = GeometricMultigrid(A, (63, 63))
        _, info = mg.solve(b, tol=1e-9, max_cycles=60)
        assert info["converged"]
        assert info["cycles"] < 60
        # Error contraction per cycle should be well below 1.
        history = info["history"]
        assert history[5] / history[0] < 0.2

    def test_multigrid_handles_non_power_of_two_sizes(self):
        grid = Grid2D(41, 29)
        A, b = assemble_poisson(grid, 1.0)
        mg = GeometricMultigrid(A, (27, 39))
        _, info = mg.solve(b, tol=1e-9)
        assert info["converged"]

    def test_zero_rhs_short_circuit(self):
        grid = Grid2D(17, 17)
        A, _ = assemble_poisson(grid, 0.0)
        mg = GeometricMultigrid(A, (15, 15))
        x, info = mg.solve(np.zeros(A.shape[0]))
        assert np.allclose(x, 0.0) and info["converged"]


class TestConjugateGradient:
    def test_converges_on_spd_system(self):
        grid = Grid2D(33, 33)
        A, b = assemble_poisson(grid, 1.0)
        x, info = conjugate_gradient(A, b, tol=1e-10)
        assert info["converged"]
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) < 1e-9

    def test_multigrid_preconditioning_reduces_iterations(self):
        grid = Grid2D(65, 65)
        A, b = assemble_poisson(grid, 1.0)
        _, plain = conjugate_gradient(A, b, tol=1e-8)
        mg = GeometricMultigrid(A, (63, 63))
        _, preconditioned = conjugate_gradient(
            A, b, tol=1e-8, preconditioner=lambda r: mg.v_cycle(r)
        )
        assert preconditioned["iterations"] < plain["iterations"]

    def test_zero_rhs(self):
        grid = Grid2D(9, 9)
        A, _ = assemble_poisson(grid, 0.0)
        x, info = conjugate_gradient(A, np.zeros(A.shape[0]))
        assert np.allclose(x, 0.0) and info["converged"]


class TestHighLevelSolvers:
    @pytest.mark.parametrize("name", sorted(HARMONIC_FUNCTIONS))
    def test_laplace_reproduces_harmonic_functions(self, name):
        fn = HARMONIC_FUNCTIONS[name]
        grid = Grid2D(33, 33, extent=(1.0, 1.0))
        exact = grid.field_from_function(fn)
        boundary = np.where(grid.boundary_mask(), exact, 0.0)
        solution = solve_laplace(grid, boundary, method="direct")
        # Second-order accuracy: errors are tiny for low-order polynomials and
        # bounded by the truncation error otherwise.  Normalize by the field
        # amplitude because some harmonics (cosh-based) reach values of ~100.
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(solution - exact)) / scale < 2e-3

    @pytest.mark.parametrize("method", ["direct", "multigrid", "cg"])
    def test_methods_agree(self, method):
        grid = Grid2D(25, 25)
        exact = grid.field_from_function(HARMONIC_FUNCTIONS["exp_sine"])
        boundary = np.where(grid.boundary_mask(), exact, 0.0)
        reference = solve_laplace(grid, boundary, method="direct")
        solution = solve_laplace(grid, boundary, method=method, tol=1e-11)
        assert np.max(np.abs(solution - reference)) < 1e-7

    def test_loop_interface(self):
        grid = Grid2D(17, 17, extent=(0.5, 0.5))
        exact = grid.field_from_function(HARMONIC_FUNCTIONS["product"])
        loop = grid.extract_boundary(exact)
        solution = solve_laplace_from_loop(grid, loop)
        assert np.max(np.abs(solution - exact)) < 1e-10

    def test_poisson_with_forcing_manufactured_solution(self):
        # u = sin(pi x) sin(pi y) solves -Laplace(u) = 2 pi^2 u with zero BC.
        grid = Grid2D(49, 49)
        exact = grid.field_from_function(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        forcing = 2 * np.pi ** 2 * exact
        solution = solve_poisson(grid, forcing, np.zeros(grid.shape), method="direct")
        assert np.max(np.abs(solution - exact)) < 2e-3

    def test_invalid_method(self):
        grid = Grid2D(9, 9)
        with pytest.raises(ValueError):
            solve_laplace(grid, np.zeros(grid.shape), method="spectral")

    def test_solution_satisfies_discrete_pde(self):
        grid = Grid2D(21, 21)
        rng = np.random.default_rng(0)
        boundary = np.where(grid.boundary_mask(), rng.normal(size=grid.shape), 0.0)
        solution = solve_laplace(grid, boundary, method="direct")
        assert np.max(np.abs(apply_laplacian(grid, solution))) < 1e-9


class TestDirectMatrixCache:
    """The direct path reuses one read-only CSC Laplacian per grid."""

    @staticmethod
    def _problem(grid, seed=0):
        rng = np.random.default_rng(seed)
        boundary = np.where(grid.boundary_mask(), rng.normal(size=grid.shape), 0.0)
        return rng.normal(size=grid.shape), boundary

    def test_cached_solve_is_a_fresh_assembly_bitwise(self):
        grid = Grid2D(9, 9, extent=(0.5, 0.5))
        forcing, boundary = self._problem(grid)
        fresh = spla.spsolve(laplacian_matrix(grid).tocsc(), poisson_rhs(grid, forcing, boundary))
        fd_solve._direct_matrix.cache_clear()
        for _ in range(2):  # the miss that builds the entry, then a hit
            field = solve_poisson(grid, forcing, boundary, method="direct")
            assert field[1:-1, 1:-1].tobytes() == fresh.reshape(7, 7).tobytes()
        assert fd_solve._direct_matrix.cache_info().hits == 1

    def test_cached_matrix_is_read_only_and_shared(self):
        matrix = fd_solve._direct_matrix(9, 9, (0.5, 0.5))
        for array in (matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError):
                array[0] = array[0]
        # The origin does not enter the matrix; the laplacian_matrix stays pure.
        moved = Grid2D(9, 9, extent=(0.5, 0.5), origin=(2.0, -1.0))
        solve_laplace(moved, np.zeros(moved.shape), method="direct")
        assert fd_solve._direct_matrix(9, 9, (0.5, 0.5)) is matrix
        assert laplacian_matrix(moved).data.flags.writeable

    def test_grids_above_the_direct_limit_are_not_kept(self):
        limit = fd_solve._DIRECT_SOLVE_LIMIT
        at_limit = Grid2D(143, 143)      # 141**2 = 19,881 unknowns
        above = Grid2D(145, 145)         # 143**2 = 20,449 unknowns
        assert (at_limit.nx - 2) ** 2 <= limit < (above.nx - 2) ** 2
        fd_solve._direct_matrix.cache_clear()
        solve_laplace(above, self._problem(above)[1], method="direct")
        assert fd_solve._direct_matrix.cache_info().currsize == 0
        solve_laplace(at_limit, self._problem(at_limit)[1], method="direct")
        assert fd_solve._direct_matrix.cache_info().currsize == 1

    def test_cache_is_bounded(self):
        for n in range(fd_solve._MATRIX_CACHE_ENTRIES + 3):
            solve_laplace(Grid2D(4, 4, (1.0 + n, 1.0)), np.zeros((4, 4)), method="direct")
        info = fd_solve._direct_matrix.cache_info()
        assert info.maxsize == fd_solve._MATRIX_CACHE_ENTRIES
        assert info.currsize <= info.maxsize

    def test_forked_child_solves(self):
        grid = Grid2D(9, 9, extent=(0.5, 0.5))
        forcing, boundary = self._problem(grid, seed=1)
        expected = solve_poisson(grid, forcing, boundary, method="direct")  # cached
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                os.write(write, solve_poisson(grid, forcing, boundary, method="direct").tobytes())
            finally:
                os._exit(0)
        os.close(write)
        chunks = []
        while chunk := os.read(read, 1 << 16):
            chunks.append(chunk)
        os.close(read)
        os.waitpid(pid, 0)
        assert b"".join(chunks) == expected.tobytes()

    def test_masked_reference_solves_do_not_use_it(self):
        grid = Grid2D(9, 9)
        boundary_field = self._problem(grid, seed=2)[1]
        interior = np.zeros(grid.shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        before = fd_solve._direct_matrix.cache_info()
        solve_laplace_masked(grid, interior, grid.boundary_mask(), boundary_field)
        assert fd_solve._direct_matrix.cache_info() == before
