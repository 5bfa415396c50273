"""The one geometry class on composite domains: anchors, masks, boundary loop, validation."""

import pickle

import numpy as np
import pytest

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.fd import Grid2D
from repro.mosaic import PHASE_OFFSETS, MosaicGeometry
from repro.mosaic.core import PlanCache, build_plan


@pytest.fixture(scope="module")
def l_geometry() -> MosaicGeometry:
    return CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))


def _arithmetic_plan(points: int, steps_x: int, steps_y: int) -> dict:
    """A rectangle's plan from anchor arithmetic alone: every (r, c) of the box."""

    h = (points - 1) // 2
    nx, ny = steps_x * h + 1, steps_y * h + 1
    brow, bcol = Grid2D(points, points).boundary_indices()
    crow, ccol = MosaicGeometry(points, 0.5, 2, 2).center_line_local_indices()
    anchors = [(r, c) for r in range(steps_y - 1) for c in range(steps_x - 1)]
    counts = np.zeros((ny, nx))
    for r, c in anchors:
        counts[r * h:r * h + points, c * h:c * h + points] += 1
        # the boundary loop repeats the window's four corners
        counts[r * h:r * h + points:points - 1, c * h:c * h + points:points - 1] += 1
    reads, writes = [], []
    for dr, dc in PHASE_OFFSETS:
        mine = np.array([r * h * nx + c * h for r, c in anchors if (r % 2, c % 2) == (dr, dc)],
                        dtype=np.intp).reshape(-1)
        reads.append(mine[:, None] + (brow * nx + bcol))
        writes.append(mine[:, None] + (crow * nx + ccol))
    on_lines = (np.arange(ny) % h == 0)[:, None] | (np.arange(nx) % h == 0)[None, :]
    return {
        "reads": reads, "writes": writes, "lattice": np.flatnonzero(on_lines),
        "windows": np.array([r * h * nx + c * h for r, c in anchors]), "counts": counts,
    }


@pytest.mark.parametrize("points", [5, 9, 33])
@pytest.mark.parametrize("steps_x", range(2, 13))
class TestRectangularReduction:
    """A rectangle is the full cell mask: checked against Grid2D and anchor arithmetic."""

    def test_boundary_matches_grid(self, points, steps_x):
        steps_y = 14 - steps_x
        geometry = MosaicGeometry(points, 0.5, steps_x, steps_y)
        grid = Grid2D(geometry.global_nx, geometry.global_ny, geometry.global_extent)
        rows, cols = geometry.global_boundary_indices()
        rows_g, cols_g = grid.boundary_indices()
        assert np.array_equal(rows, rows_g) and np.array_equal(cols, cols_g)
        assert np.array_equal(geometry.boundary_point_mask(), grid.boundary_mask())
        assert geometry.valid_mask().all()
        loop = np.arange(grid.boundary_size, dtype=float)
        assert geometry.insert_global_boundary(loop).tobytes() == grid.insert_boundary(loop).tobytes()
        assert (geometry.global_boundary_coordinates().tobytes()
                == grid.boundary_coordinates().tobytes())

    def test_plan_matches_anchor_arithmetic(self, points, steps_x):
        steps_y = 14 - steps_x
        plan = build_plan(MosaicGeometry(points, 0.5, steps_x, steps_y))
        expected = _arithmetic_plan(points, steps_x, steps_y)
        for phase in range(len(PHASE_OFFSETS)):
            assert np.array_equal(plan.reads[phase], expected["reads"][phase])
            assert np.array_equal(plan.writes[phase], expected["writes"][phase])
        for name in ("lattice", "windows", "counts"):
            assert np.array_equal(getattr(plan, name), expected[name]), name

    def test_rectangular_composite_is_the_rectangle(self, points, steps_x):
        steps_y = 14 - steps_x
        rect = MosaicGeometry(points, 0.5, steps_x, steps_y)
        composite = CompositeMosaicGeometry(
            points, 0.5, CompositeDomain.rectangle(steps_x, steps_y))
        assert composite == rect and hash(composite) == hash(rect)
        assert type(composite) is MosaicGeometry and composite.is_rectangular
        cache = PlanCache()
        assert cache.get(composite) is cache.get(rect) and len(cache) == 1


class TestCompositeAnchors:
    def test_l_shape_excludes_notch_anchors(self, l_geometry):
        # 6x6 box has 5x5 anchors; the 3x3 notch forbids those whose 2x2
        # window overlaps it.
        box_anchors = set(l_geometry.box.anchors())
        anchors = l_geometry.anchors()
        assert set(anchors) < box_anchors
        assert len(anchors) == 16
        for r, c in anchors:
            assert not (r >= 2 and c >= 2)

    def test_anchor_windows_inside_valid_mask(self, l_geometry):
        valid = l_geometry.valid_mask()
        m = l_geometry.subdomain_points
        for r, c in l_geometry.anchors():
            r0, c0 = l_geometry.anchor_window((r, c))
            assert valid[r0: r0 + m, c0: c0 + m].all()

    def test_anchor_window_rejects_notch_anchor(self, l_geometry):
        with pytest.raises(ValueError, match="not inside"):
            l_geometry.anchor_window((4, 4))

    def test_phases_partition_anchors(self, l_geometry):
        union = []
        for phase in range(4):
            union.extend(l_geometry.anchors_for_phase(phase))
        assert sorted(union) == sorted(l_geometry.anchors())
        assert len(union) == len(set(union))


class TestMasks:
    def test_boundary_points_equal_traced_loop(self, l_geometry):
        rows, cols = l_geometry.global_boundary_indices()
        from_trace = set(zip(rows.tolist(), cols.tolist()))
        from_mask = set(zip(*map(list, np.nonzero(l_geometry.boundary_point_mask()))))
        assert from_trace == from_mask

    def test_masks_partition_valid_points(self, l_geometry):
        valid = l_geometry.valid_mask()
        interior = l_geometry.interior_mask()
        boundary = l_geometry.boundary_point_mask()
        assert not (interior & boundary).any()
        assert np.array_equal(interior | boundary, valid)

    def test_notch_points_invalid(self, l_geometry):
        valid = l_geometry.valid_mask()
        h = l_geometry.half
        # strictly inside the notch (top-right 3x3 steps of the 6x6 box)
        assert not valid[3 * h + 1:, 3 * h + 1:].any()
        # the re-entrant corner itself belongs to the domain boundary
        assert valid[3 * h, 3 * h]
        assert l_geometry.boundary_point_mask()[3 * h, 3 * h]

    def test_lattice_mask_restricted_to_domain(self, l_geometry):
        lattice = l_geometry.lattice_mask()
        assert not (lattice & ~l_geometry.valid_mask()).any()
        assert (lattice.sum() < l_geometry.box.lattice_mask().sum())


class TestValidation:
    def test_too_small_domain(self):
        with pytest.raises(ValueError, match="at least one full subdomain"):
            CompositeMosaicGeometry(9, 0.5, CompositeDomain.rectangle(1, 4))

    def test_thin_appendage_rejected(self):
        with pytest.raises(ValueError, match="outside every subdomain window"):
            CompositeMosaicGeometry(
                9, 0.5, CompositeDomain.from_rects([(0, 0, 4, 4), (1, 4, 1, 2)])
            )

    def test_zigzag_lattice_pinch_rejected(self):
        cells = np.zeros((4, 3), dtype=bool)
        cells[0:2, 0:2] = True
        cells[2:4, 1:3] = True
        with pytest.raises(ValueError, match="not updated by any anchor"):
            CompositeMosaicGeometry(9, 0.5, CompositeDomain.from_cells(cells))

    def test_hashable_for_cache_and_group_keys(self, l_geometry):
        twin = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))
        assert l_geometry == twin and hash(l_geometry) == hash(twin)
        other = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 2))
        assert l_geometry != other

    def test_domain_must_match_the_steps(self):
        with pytest.raises(ValueError, match="domain spans"):
            MosaicGeometry(9, 0.5, 6, 4, CompositeDomain.l_shape(6, 6, 3, 3))

    def test_from_domain_is_the_constructor(self, l_geometry):
        domain = l_geometry.domain
        assert CompositeMosaicGeometry.from_domain(domain, 9, 0.5) == l_geometry
        assert MosaicGeometry.from_domain(domain, subdomain_points=9) == l_geometry

    def test_scaled_scales_the_cells(self, l_geometry):
        big = l_geometry.scaled(2)
        assert big == CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(12, 12, 6, 6))
        assert not big.is_rectangular and big != big.box
        with pytest.raises(ValueError):
            l_geometry.scaled(0)

    def test_pickles_without_its_cached_masks(self, l_geometry):
        fresh = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))
        size = len(pickle.dumps(fresh))
        fresh.valid_mask(), fresh.anchors(), fresh.global_boundary_indices()
        assert len(pickle.dumps(fresh)) == size < 1024
        restored = pickle.loads(pickle.dumps(l_geometry))
        assert restored == l_geometry
        assert np.array_equal(restored.lattice_mask(), l_geometry.lattice_mask())

    def test_cached_arrays_are_read_only(self, l_geometry):
        for array in (l_geometry.valid_mask(), l_geometry.interior_mask(),
                      l_geometry.lattice_mask(), l_geometry.boundary_point_mask(),
                      *l_geometry.global_boundary_indices()):
            assert not array.flags.writeable


class TestBoundarySampling:
    def test_boundary_from_function_matches_coordinates(self, l_geometry):
        loop = l_geometry.boundary_from_function(lambda x, y: 2 * x - y)
        coords = l_geometry.global_boundary_coordinates()
        np.testing.assert_allclose(loop, 2 * coords[:, 0] - coords[:, 1])

    def test_insert_extract_roundtrip(self, l_geometry):
        rows, cols = l_geometry.global_boundary_indices()
        loop = l_geometry.boundary_from_function(lambda x, y: x * y + 0.5)
        field = l_geometry.insert_global_boundary(loop)
        # duplicated corners carry consistent data, so extraction reproduces
        # the loop exactly
        np.testing.assert_array_equal(field[rows, cols], loop)
        assert (field[~l_geometry.valid_mask()] == 0).all()
