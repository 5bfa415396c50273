"""FD and SDNet subdomain solvers behind the common predict() interface."""

import threading

import numpy as np
import pytest

import repro.fd.solve as fd_solve
from repro.fd import Grid2D, laplace_loop_operator, solve_laplace_from_loop
from repro.mosaic import FDSubdomainSolver, SDNetSubdomainSolver
from repro.mosaic.solvers import SubdomainSolver
from repro.pde import HARMONIC_FUNCTIONS


class TestFDSubdomainSolver:
    def test_protocol_conformance(self, fd_subdomain_solver):
        assert isinstance(fd_subdomain_solver, SubdomainSolver)

    def test_exactness_on_harmonic_boundary(self, small_geometry):
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        grid = small_geometry.subdomain_grid()
        exact = grid.field_from_function(HARMONIC_FUNCTIONS["saddle"])
        loop = grid.extract_boundary(exact)
        points = grid.interior_points()
        prediction = solver.predict(loop[None, :], points)
        assert prediction.shape == (1, points.shape[0])
        assert np.max(np.abs(prediction[0] - exact[1:-1, 1:-1].ravel())) < 1e-12

    def test_batch_of_boundaries(self, small_geometry, rng):
        grid = small_geometry.subdomain_grid()
        solver = FDSubdomainSolver(grid)
        loops = rng.normal(size=(3, grid.boundary_size))
        points = small_geometry.center_line_local_coordinates()
        out = solver.predict(loops, points)
        assert out.shape == (3, points.shape[0])
        assert solver.inference_calls == 3

    def test_rejects_off_grid_points(self, small_geometry):
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        grid = small_geometry.subdomain_grid()
        loops = np.zeros((1, grid.boundary_size))
        with pytest.raises(ValueError, match="only supports queries at grid points"):
            solver.predict(loops, np.array([[grid.hx * 0.37, 0.0]]))
        with pytest.raises(ValueError, match="outside the subdomain grid"):
            solver.predict(loops, np.array([[10.0, 0.0]]))
        with pytest.raises(ValueError, match="outside the subdomain grid"):
            solver.predict(loops, np.array([[0.0, -grid.hy]]))

    def test_rejects_wrong_boundary_shape(self, small_geometry):
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        with pytest.raises(ValueError, match=r"boundaries must have shape \(B, 36\)"):
            solver.predict(np.zeros((2, 7)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="boundaries must have shape"):
            solver.predict(np.zeros(36), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"points must have shape \(q, 2\)"):
            solver.predict(np.zeros((2, 36)), np.zeros((3, 3)))

    def test_empty_query_returns_empty_columns(self, small_geometry):
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        out = solver.predict(np.ones((3, solver.boundary_size)), np.empty((0, 2)))
        assert out.shape == (3, 0)
        assert solver.inference_calls == 3 and solver.points_evaluated == 0


def _per_column_predict(grid, boundaries, points):
    """The retired solve: one multiply and one add per boundary column, in order."""

    rows = np.rint(points[:, 1] / grid.hy).astype(int)
    cols = np.rint(points[:, 0] / grid.hx).astype(int)
    weights = laplace_loop_operator(grid, "direct")[:, rows, cols]
    out = np.zeros((boundaries.shape[0], points.shape[0]))
    for k in range(grid.boundary_size):
        out += boundaries[:, k : k + 1] * weights[k]
    return out


def _center_line_points(grid):
    """The two centre lines of ``grid``, endpoints excluded, centre point once."""

    row, col = grid.ny // 2, grid.nx // 2
    across = np.arange(1, grid.nx - 1)
    down = np.arange(1, grid.ny - 1)
    down = down[down != row]
    rows = np.concatenate([np.full(across.size, row), down])
    cols = np.concatenate([across, np.full(down.size, col)])
    return np.stack([cols * grid.hx, rows * grid.hy], axis=1)


_GRIDS = pytest.mark.parametrize(
    "grid",
    [Grid2D(9, 9, (0.5, 0.5)), Grid2D(9, 7, (0.5, 0.3)), Grid2D(10, 12, (1.0, 0.7))],
    ids=["9x9", "9x7", "10x12"],
)
_POINT_SETS = pytest.mark.parametrize(
    "point_set",
    [_center_line_points, Grid2D.interior_points, Grid2D.points],
    ids=["centre-line", "interior", "full-grid"],
)


class TestFDPerColumnOracle:
    """``predict`` is bitwise the retired per-column loop, whatever the row count."""

    @_POINT_SETS
    @_GRIDS
    def test_equals_the_per_column_loop_bitwise(self, grid, point_set):
        solver = FDSubdomainSolver(grid)
        points = point_set(grid)
        rng = np.random.default_rng(grid.nx * grid.ny)
        for batch in [*range(301), 1000]:
            loops = rng.normal(size=(batch, grid.boundary_size))
            expected = _per_column_predict(grid, loops, points)
            assert solver.predict(loops, points).tobytes() == expected.tobytes(), batch

    @_GRIDS
    def test_memory_layout_of_the_inputs_does_not_change_the_bytes(self, grid, rng):
        solver = FDSubdomainSolver(grid)
        points = grid.interior_points()
        loops = rng.normal(size=(57, grid.boundary_size))
        expected = solver.predict(loops, points).tobytes()

        fortran = np.asfortranarray(loops)
        assert not fortran.flags.c_contiguous
        assert solver.predict(fortran, points).tobytes() == expected

        spread = np.zeros((2 * loops.shape[0], grid.boundary_size))
        spread[::2] = loops
        assert solver.predict(spread[::2], points).tobytes() == expected

        wide = np.zeros((points.shape[0], 4))
        wide[:, ::2] = points
        strided_points = wide[:, ::2]
        assert not strided_points.flags.c_contiguous
        fresh = FDSubdomainSolver(grid)
        assert fresh.predict(loops, strided_points).tobytes() == expected


def _consistent_loops(grid, rng, count):
    """Random loops whose two samples of each corner carry the same value."""

    loops = rng.normal(size=(count, grid.boundary_size))
    return np.stack([grid.extract_boundary(grid.insert_boundary(loop)) for loop in loops])


class TestFDBoundaryOperator:
    """``predict`` as a contraction with the cached boundary-to-field operator."""

    @pytest.mark.parametrize(
        "point_set, batch",
        [
            pytest.param(point_set, batch, id=f"{prefix}{batch}")
            for point_set, prefix in (("center_line", ""), ("interior", "interior-"))
            for batch in (0, 1, 2, 31, 32, 33, 1000)
        ],
    )
    def test_rows_do_not_depend_on_how_they_are_grouped(self, small_geometry, point_set, batch):
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        points = getattr(small_geometry, f"{point_set}_local_coordinates")()
        rng = np.random.default_rng(batch)
        loops = rng.normal(size=(batch, solver.boundary_size))
        together = solver.predict(loops, points)
        assert together.shape == (batch, points.shape[0])

        alone = [solver.predict(loops[i : i + 1], points) for i in range(batch)]
        assert b"".join(a.tobytes() for a in alone) == together.tobytes()

        order = rng.permutation(batch)
        assert solver.predict(loops[order], points).tobytes() == together[order].tobytes()

        cut = batch // 3
        halves = [solver.predict(part, points) for part in (loops[:cut], loops[cut:])]
        assert np.concatenate(halves).tobytes() == together.tobytes()

        others = rng.normal(size=(5, solver.boundary_size))
        mixed = solver.predict(np.concatenate([others, loops, others]), points)
        assert mixed[5 : 5 + batch].tobytes() == together.tobytes()

    @pytest.mark.parametrize("method", ["direct", "auto", "cg", "multigrid"])
    @_GRIDS
    def test_agrees_with_per_row_solve(self, grid, method, rng):
        # The retired path solved every row on its own.  The direct methods
        # differ from it only in summation order.  cg, and multigrid once the
        # interior exceeds its 64-unknown direct coarse level (10x12 does),
        # stop at a 1e-10 relative residual, so two routes to the answer
        # agree to that tolerance times the conditioning and no further.
        solver = FDSubdomainSolver(grid, method=method)
        loops = rng.normal(size=(4, grid.boundary_size))
        points = grid.points()
        fields = np.stack(
            [solve_laplace_from_loop(grid, loop, method=method).ravel() for loop in loops]
        )
        error = np.max(np.abs(solver.predict(loops, points) - fields)) / np.max(np.abs(fields))
        assert error <= (1e-12 if method in ("direct", "auto") else 1e-8)

    def test_boundary_ring_queries_return_the_loop(self, rng):
        grid = Grid2D(9, 7, (0.5, 0.3))
        loops = _consistent_loops(grid, rng, 6)
        out = FDSubdomainSolver(grid).predict(loops, grid.boundary_coordinates())
        np.testing.assert_array_equal(out, loops)

    def test_operator_is_read_only_and_shared(self):
        grid = Grid2D(9, 9, (0.5, 0.5))
        operator = laplace_loop_operator(grid, "direct")
        assert operator.shape == (grid.boundary_size, 9, 9)
        assert not operator.flags.writeable
        with pytest.raises(ValueError):
            operator[0, 0, 0] = 1.0
        # The origin does not enter the Laplace problem.
        moved = Grid2D(9, 9, (0.5, 0.5), origin=(3.0, -1.0))
        assert laplace_loop_operator(moved, "direct") is operator
        assert laplace_loop_operator(grid, "cg") is not operator

    def test_one_build_shared_by_instances_and_racing_threads(self, monkeypatch, rng):
        grid = Grid2D(7, 6, (0.4371, 0.2113))  # no other test builds this one
        solves = []
        real = fd_solve.solve_laplace_from_loop

        def counting(*args, **kwargs):
            solves.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(fd_solve, "solve_laplace_from_loop", counting)
        loops = rng.normal(size=(8, grid.boundary_size))
        points = grid.interior_points()
        barrier = threading.Barrier(2)
        results = {}

        def first_predict(name):
            solver = FDSubdomainSolver(grid)
            barrier.wait(timeout=10)
            results[name] = solver.predict(loops, points).tobytes()

        threads = [threading.Thread(target=first_predict, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert results["a"] == results["b"]
        assert FDSubdomainSolver(grid).predict(loops, points).tobytes() == results["a"]
        assert len(solves) == grid.boundary_size and len(set(solves)) == 1

    def test_operator_cache_is_bounded(self):
        for n in range(fd_solve._OPERATOR_CACHE_ENTRIES + 3):
            laplace_loop_operator(Grid2D(3, 3, (1.0 + n, 1.0)), "direct")
        info = fd_solve._build_loop_operator.cache_info()
        assert info.maxsize == fd_solve._OPERATOR_CACHE_ENTRIES
        assert info.currsize <= info.maxsize

    def test_fusion_key_is_unchanged(self):
        solver = FDSubdomainSolver(Grid2D(9, 7, (0.5, 0.3), origin=(1.0, 2.0)), method="cg")
        assert solver.fusion_key() == ("fd", 9, 7, (0.5, 0.3), "cg")


class TestSDNetSubdomainSolver:
    def test_predictions_match_direct_model_call(self, small_sdnet, small_geometry, rng):
        solver = SDNetSubdomainSolver(small_sdnet)
        loops = rng.normal(size=(4, small_sdnet.boundary_size))
        points = small_geometry.center_line_local_coordinates()
        out = solver.predict(loops, points)
        direct = small_sdnet.predict(loops, np.broadcast_to(points, (4,) + points.shape).copy())
        assert np.allclose(out, direct)
        assert solver.inference_calls == 1
        assert solver.points_evaluated == 4 * points.shape[0]

    def test_max_batch_splits_but_preserves_results(self, small_sdnet, small_geometry, rng):
        loops = rng.normal(size=(5, small_sdnet.boundary_size))
        points = small_geometry.center_line_local_coordinates()
        full = SDNetSubdomainSolver(small_sdnet).predict(loops, points)
        chunked_solver = SDNetSubdomainSolver(small_sdnet, max_batch=2)
        chunked = chunked_solver.predict(loops, points)
        assert np.allclose(full, chunked)
        assert chunked_solver.inference_calls == 3

    def test_input_validation(self, small_sdnet):
        solver = SDNetSubdomainSolver(small_sdnet)
        with pytest.raises(ValueError):
            solver.predict(np.zeros((2, 5)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            solver.predict(np.zeros((2, small_sdnet.boundary_size)), np.zeros((3, 3)))
