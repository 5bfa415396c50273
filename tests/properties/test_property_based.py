"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, grad, ops
from repro.distributed import ProcessGrid, block_range, choose_grid_dims
from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.fd import Grid2D, apply_laplacian, solve_laplace
from repro.mosaic import FDSubdomainSolver, MosaicGeometry

# Keep hypothesis fast and deterministic for CI-style runs.
COMMON_SETTINGS = settings(max_examples=25, deadline=None)


small_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


class TestAutodiffProperties:
    @COMMON_SETTINGS
    @given(st.lists(small_floats, min_size=1, max_size=8),
           st.lists(small_floats, min_size=1, max_size=8))
    def test_addition_gradient_is_ones(self, xs, ys):
        n = min(len(xs), len(ys))
        a = Tensor(np.array(xs[:n]), requires_grad=True)
        b = Tensor(np.array(ys[:n]), requires_grad=True)
        ga, gb = grad(ops.sum(a + b), [a, b])
        assert np.allclose(ga.data, 1.0) and np.allclose(gb.data, 1.0)

    @COMMON_SETTINGS
    @given(st.lists(small_floats, min_size=2, max_size=10))
    def test_sum_linearity_of_gradients(self, xs):
        x = Tensor(np.array(xs), requires_grad=True)
        (g,) = grad(ops.sum(3.0 * x) + ops.sum(2.0 * x), [x])
        assert np.allclose(g.data, 5.0)

    @COMMON_SETTINGS
    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=6))
    def test_tanh_gradient_bounds(self, xs):
        x = Tensor(np.array(xs), requires_grad=True)
        (g,) = grad(ops.sum(ops.tanh(x)), [x])
        assert np.all(g.data >= 0.0) and np.all(g.data <= 1.0)

    @COMMON_SETTINGS
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    def test_matmul_gradient_shapes(self, n, m):
        a = Tensor(np.ones((n, m)), requires_grad=True)
        b = Tensor(np.ones((m, 3)), requires_grad=True)
        ga, gb = grad(ops.sum(ops.matmul(a, b)), [a, b])
        assert ga.shape == (n, m) and gb.shape == (m, 3)

    @COMMON_SETTINGS
    @given(st.lists(small_floats, min_size=1, max_size=9))
    def test_reshape_preserves_gradient_values(self, xs):
        x = Tensor(np.array(xs), requires_grad=True)
        (g1,) = grad(ops.sum(x * x), [x])
        (g2,) = grad(ops.sum(ops.reshape(x, (len(xs), 1)) ** 2.0), [x])
        assert np.allclose(g1.data, g2.data)


class TestGridProperties:
    @COMMON_SETTINGS
    @given(st.integers(min_value=3, max_value=20), st.integers(min_value=3, max_value=20))
    def test_boundary_roundtrip(self, nx, ny):
        grid = Grid2D(nx, ny)
        rng = np.random.default_rng(nx * 100 + ny)
        field = rng.normal(size=grid.shape)
        loop = grid.extract_boundary(field)
        assert loop.shape == (2 * nx + 2 * ny,)
        rebuilt = grid.insert_boundary(loop)
        # every boundary position matches the canonical loop values
        assert np.allclose(grid.extract_boundary(rebuilt), grid.extract_boundary(rebuilt))
        assert np.allclose(rebuilt[~grid.boundary_mask()], 0.0)

    @COMMON_SETTINGS
    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=3, max_value=12))
    def test_boundary_mask_count(self, nx, ny):
        grid = Grid2D(nx, ny)
        assert grid.boundary_mask().sum() == 2 * nx + 2 * ny - 4
        assert grid.num_interior == (nx - 2) * (ny - 2)

    @COMMON_SETTINGS
    @given(st.integers(min_value=9, max_value=21))
    def test_discrete_maximum_principle(self, n):
        """The Laplace solution is bounded by its boundary values."""

        grid = Grid2D(n, n)
        rng = np.random.default_rng(n)
        boundary = np.where(grid.boundary_mask(), rng.uniform(-1, 1, size=grid.shape), 0.0)
        solution = solve_laplace(grid, boundary, method="direct")
        b_min = boundary[grid.boundary_mask()].min()
        b_max = boundary[grid.boundary_mask()].max()
        assert solution.min() >= b_min - 1e-10
        assert solution.max() <= b_max + 1e-10

    @COMMON_SETTINGS
    @given(st.integers(min_value=9, max_value=17))
    def test_solution_is_discrete_harmonic(self, n):
        grid = Grid2D(n, n)
        rng = np.random.default_rng(n + 7)
        boundary = np.where(grid.boundary_mask(), rng.normal(size=grid.shape), 0.0)
        solution = solve_laplace(grid, boundary, method="direct")
        assert np.max(np.abs(apply_laplacian(grid, solution))) < 1e-8


class TestPartitioningProperties:
    @COMMON_SETTINGS
    @given(st.integers(min_value=1, max_value=64))
    def test_grid_dims_multiply_to_size(self, size):
        rows, cols = choose_grid_dims(size)
        assert rows * cols == size

    @COMMON_SETTINGS
    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=10))
    def test_block_range_partitions_exactly(self, total, parts):
        ranges = [block_range(total, parts, i) for i in range(parts)]
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1

    @COMMON_SETTINGS
    @given(st.integers(min_value=1, max_value=16), st.sampled_from(["row", "morton"]))
    def test_process_grid_rank_coordinate_bijection(self, size, ordering):
        grid = ProcessGrid(size, ordering=ordering)
        coords = [grid.coords(r) for r in range(size)]
        assert len(set(coords)) == size
        for rank, rc in enumerate(coords):
            assert grid.rank_at(*rc) == rank

    @COMMON_SETTINGS
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=12, max_value=40),
           st.integers(min_value=12, max_value=40))
    def test_partition_tiles_lattice(self, size, rows, cols):
        grid = ProcessGrid(size)
        coverage = np.zeros((rows, cols), dtype=int)
        for rank in range(size):
            p = grid.partition(rows, cols, rank)
            coverage[p.row_start: p.row_stop, p.col_start: p.col_stop] += 1
        assert np.all(coverage == 1)


class TestGeometryProperties:
    @COMMON_SETTINGS
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8),
           st.sampled_from([5, 9, 13]))
    def test_phases_partition_anchors(self, steps_x, steps_y, m):
        geo = MosaicGeometry(subdomain_points=m, subdomain_extent=0.5,
                             steps_x=steps_x, steps_y=steps_y)
        union = []
        for phase in range(4):
            union.extend(geo.anchors_for_phase(phase))
        assert sorted(union) == sorted(geo.anchors())
        assert len(union) == len(set(union))
        assert geo.global_nx == steps_x * geo.half + 1

    @COMMON_SETTINGS
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
    def test_centre_lines_cover_interior_lattice(self, steps_x, steps_y):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                             steps_x=steps_x, steps_y=steps_y)
        updated = np.zeros((geo.global_ny, geo.global_nx), dtype=bool)
        crow, ccol = geo.center_line_local_indices()
        for anchor in geo.anchors():
            r0, c0 = geo.anchor_window(anchor)
            updated[r0 + crow, c0 + ccol] = True
        lattice = geo.lattice_mask()
        interior = lattice.copy()
        interior[0, :] = interior[-1, :] = False
        interior[:, 0] = interior[:, -1] = False
        assert np.array_equal(updated, interior)


@st.composite
def composite_domains(draw) -> CompositeDomain:
    """Random well-formed composite shapes from the supported families."""

    kind = draw(st.sampled_from(["rect", "l", "t", "plus", "union"]))
    if kind == "rect":
        return CompositeDomain.rectangle(
            draw(st.integers(2, 6)), draw(st.integers(2, 6))
        )
    if kind == "l":
        sx, sy = draw(st.integers(4, 7)), draw(st.integers(4, 7))
        return CompositeDomain.l_shape(
            sx, sy, draw(st.integers(2, sx - 2)), draw(st.integers(2, sy - 2))
        )
    if kind == "t":
        bar_x = draw(st.integers(4, 8))
        return CompositeDomain.t_shape(
            bar_x, draw(st.integers(2, 4)),
            draw(st.integers(2, bar_x)), draw(st.integers(2, 4)),
        )
    if kind == "plus":
        return CompositeDomain.plus_shape(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    # free-form union of two rectangles; skip draws that violate the
    # well-formedness rules (disconnected, pinched, ...)
    rects = [
        (
            draw(st.integers(0, 3)), draw(st.integers(0, 3)),
            draw(st.integers(2, 4)), draw(st.integers(2, 4)),
        )
        for _ in range(2)
    ]
    try:
        return CompositeDomain.from_rects(rects)
    except ValueError:
        assume(False)


@st.composite
def composite_geometries(draw) -> MosaicGeometry:
    domain = draw(composite_domains())
    try:
        return CompositeMosaicGeometry(
            subdomain_points=draw(st.sampled_from([5, 9])),
            subdomain_extent=0.5,
            domain=domain,
        )
    except ValueError:
        # anchor/lattice coverage can reject free-form unions
        assume(False)


def _loop_reference_corners(cells: np.ndarray):
    """Boundary corners by per-cell loops, or ``None`` for a rejected shape.

    The per-cell reference the vectorised :class:`CompositeDomain` checks and
    trace must agree with: a flood fill for connectivity, then a unit-edge
    walk that fails on a pinched corner or on edges left over (holes).
    """

    covered = {(int(i), int(j)) for i, j in zip(*np.nonzero(cells))}
    start = min(covered)
    seen, stack = {start}, [start]
    while stack:
        i, j = stack.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in covered and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != covered:
        return None
    outgoing = {}
    for i, j in covered:  # unit edges, counter-clockwise, as start -> end
        for outside, edge in (((i - 1, j), ((i, j), (i, j + 1))),
                              ((i, j + 1), ((i, j + 1), (i + 1, j + 1))),
                              ((i + 1, j), ((i + 1, j + 1), (i + 1, j))),
                              ((i, j - 1), ((i + 1, j), (i, j)))):
            if outside not in covered:
                outgoing.setdefault(edge[0], []).append(edge[1])
    if any(len(ends) > 1 for ends in outgoing.values()):
        return None
    path = [min(outgoing)]
    while (nxt := outgoing[path[-1]][0]) != path[0]:
        path.append(nxt)
    if len(path) != len(outgoing):
        return None
    n = len(path)
    return tuple(
        path[k] for k in range(n)
        if np.subtract(path[k], path[k - 1]).tolist()
        != np.subtract(path[(k + 1) % n], path[k]).tolist()
    )


@st.composite
def cell_masks(draw) -> np.ndarray:
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                   max_size=rows * cols)), dtype=bool).reshape(rows, cols)
    assume(cells.any())
    # trim to the bounding box: from_cells translates the shape to the origin
    return cells[cells.any(axis=1)][:, cells.any(axis=0)]


class TestCompositeDomainProperties:
    @settings(max_examples=200, deadline=None)
    @given(cell_masks())
    def test_vectorised_checks_and_trace_match_the_loop_reference(self, cells):
        expected = _loop_reference_corners(cells)
        if expected is None:
            with pytest.raises(ValueError):
                CompositeDomain.from_cells(cells)
        else:
            assert CompositeDomain.from_cells(cells).boundary_corners == expected

    @COMMON_SETTINGS
    @given(composite_domains())
    def test_boundary_loop_is_closed_and_axis_aligned(self, domain):
        corners = domain.boundary_corners
        assert len(corners) >= 4 and len(corners) % 2 == 0
        for (r0, c0), (r1, c1) in zip(corners, corners[1:] + corners[:1]):
            assert (r0 == r1) != (c0 == c1)  # one axis changes per segment
        # counter-clockwise orientation: shoelace area equals the cell count
        area = 0
        for (r0, c0), (r1, c1) in zip(corners, corners[1:] + corners[:1]):
            area += c0 * r1 - c1 * r0
        assert area == 2 * domain.num_cells

    @COMMON_SETTINGS
    @given(composite_geometries())
    def test_grid_boundary_loop_is_closed(self, geometry):
        rows, cols = geometry.global_boundary_indices()
        # the loop returns to its start and every step moves by at most one
        # grid point (zero at duplicated segment corners)
        assert (rows[0], cols[0]) == (rows[-1], cols[-1])
        dr = np.abs(np.diff(rows))
        dc = np.abs(np.diff(cols))
        assert np.all(dr + dc <= 1)
        # duplicated points appear exactly once per polygon corner
        assert int(np.sum((dr + dc) == 0)) == len(geometry.domain.boundary_corners) - 1
        assert geometry.boundary_point_mask()[rows, cols].all()

    @COMMON_SETTINGS
    @given(composite_geometries())
    def test_every_anchor_window_inside_mask(self, geometry):
        valid = geometry.valid_mask()
        m = geometry.subdomain_points
        anchors = geometry.anchors()
        assert anchors == sorted(anchors)  # row-major enumeration
        for r, c in anchors:
            r0, c0 = geometry.anchor_window((r, c))
            assert valid[r0: r0 + m, c0: c0 + m].all()
        union = []
        for phase in range(4):
            union.extend(geometry.anchors_for_phase(phase))
        assert sorted(union) == anchors and len(union) == len(set(union))

    @COMMON_SETTINGS
    @given(composite_geometries())
    def test_centre_lines_cover_interior_lattice_exactly(self, geometry):
        updated = np.zeros((geometry.global_ny, geometry.global_nx), dtype=bool)
        crow, ccol = geometry.center_line_local_indices()
        for anchor in geometry.anchors():
            r0, c0 = geometry.anchor_window(anchor)
            updated[r0 + crow, c0 + ccol] = True
        interior_lattice = geometry.lattice_mask() & geometry.interior_mask()
        assert np.array_equal(updated, interior_lattice)

    @COMMON_SETTINGS
    @given(st.integers(2, 6), st.integers(2, 6), st.sampled_from([5, 9]))
    def test_rectangular_composite_reduces_to_mosaic_geometry(self, sx, sy, m):
        composite = CompositeMosaicGeometry(m, 0.5, CompositeDomain.rectangle(sx, sy))
        box = MosaicGeometry(subdomain_points=m, subdomain_extent=0.5,
                             steps_x=sx, steps_y=sy)
        assert composite.is_rectangular
        assert composite == box and hash(composite) == hash(box)
        assert composite.anchors() == box.anchors()
        rows_c, cols_c = composite.global_boundary_indices()
        rows_b, cols_b = box.global_grid().boundary_indices()
        assert np.array_equal(rows_c, rows_b) and np.array_equal(cols_c, cols_b)
        assert np.array_equal(composite.lattice_mask(), box.lattice_mask())
        assert composite.valid_mask().all()


class TestFDSubdomainSolverProperties:
    """A row's prediction is a pure function of (row, points).

    This is the invariant cross-request mega-batching rests on: it
    concatenates rows of different requests into one call and expects each
    request's rows back bit for bit.
    """

    GRID = Grid2D(6, 5, (0.5, 0.4))

    @COMMON_SETTINGS
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 40), st.just(GRID.boundary_size)),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
        ),
        st.data(),
    )
    def test_any_regrouping_of_rows_gives_identical_bytes(self, loops, data):
        solver = FDSubdomainSolver(self.GRID)
        points = self.GRID.points()
        batch = loops.shape[0]
        together = solver.predict(loops, points)

        order = np.asarray(data.draw(st.permutations(range(batch))), dtype=int)
        cuts = sorted(data.draw(st.lists(st.integers(0, batch), max_size=4)))
        regrouped = np.empty_like(together)
        for group in np.split(order, cuts):
            regrouped[group] = solver.predict(loops[group], points)
        assert regrouped.tobytes() == together.tobytes()
