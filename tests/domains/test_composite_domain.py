"""CompositeDomain: cell masks, boundary tracing, validation."""

import numpy as np
import pytest

from repro.domains import CompositeDomain


class TestConstruction:
    def test_rectangle_is_rectangle(self):
        d = CompositeDomain.rectangle(5, 3)
        assert d.is_rectangle
        assert (d.steps_x, d.steps_y) == (5, 3)
        assert d.num_cells == 15
        assert d.cell_mask().all()

    def test_from_rects_normalizes_to_origin(self):
        d = CompositeDomain.from_rects([(3, 5, 2, 2), (5, 5, 2, 2)])
        assert (d.steps_x, d.steps_y) == (2, 4)
        assert d.cell_mask().all()
        assert d.is_rectangle

    def test_raw_constructor_rejects_offset_rects(self):
        with pytest.raises(ValueError, match="normalized"):
            CompositeDomain(((1, 1, 2, 2),))

    def test_l_shape_cells(self):
        d = CompositeDomain.l_shape(4, 4, 2, 2)
        cells = d.cell_mask()
        assert not d.is_rectangle
        assert d.num_cells == 12
        # the top-right 2x2 notch is uncovered
        assert not cells[2:, 2:].any()
        assert cells[:2, :].all() and cells[:, :2].all()

    def test_plus_and_t_shapes(self):
        plus = CompositeDomain.plus_shape(2, 2)
        assert plus.num_cells == 2 * (6 * 2) - 4
        t = CompositeDomain.t_shape(6, 2, 2, 3)
        assert t.num_cells == 12 + 6

    def test_overlapping_rects_union(self):
        d = CompositeDomain.from_rects([(0, 0, 3, 3), (1, 1, 3, 3)])
        assert d.num_cells == 9 + 9 - 4

    def test_from_cells_roundtrip(self):
        rng = np.random.default_rng(0)
        base = CompositeDomain.l_shape(5, 4, 2, 2)
        rebuilt = CompositeDomain.from_cells(base.cell_mask())
        assert np.array_equal(rebuilt.cell_mask(), base.cell_mask())

    def test_rejects_empty_and_bad_rects(self):
        with pytest.raises(ValueError, match="at least one rectangle"):
            CompositeDomain.from_rects([])
        with pytest.raises(ValueError, match="non-positive side"):
            CompositeDomain.from_rects([(0, 0, 0, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not edge-connected"):
            CompositeDomain.from_rects([(0, 0, 2, 2), (0, 4, 2, 2)])
        # diagonal touching is not edge-connectivity
        with pytest.raises(ValueError, match="not edge-connected"):
            CompositeDomain.from_rects([(0, 0, 2, 2), (2, 2, 2, 2)])

    def test_disconnected_message_counts_cells_unreachable_from_the_first(self):
        # The S-shaped part is reached through four turns; the lone cell is not.
        cells = np.array(
            [[1, 1, 1, 0, 1],
             [0, 0, 1, 0, 0],
             [1, 1, 1, 0, 0],
             [1, 0, 0, 0, 0],
             [1, 1, 1, 1, 0]], dtype=bool,
        )
        message = ("composite domain is not edge-connected: 1 of 13 cells are "
                   "unreachable from cell (0, 0)")
        with pytest.raises(ValueError) as error:
            CompositeDomain.from_cells(cells)
        assert str(error.value) == message

    def test_connectivity_agrees_with_scipy_labelling(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(0)
        for _ in range(400):
            cells = rng.random(tuple(rng.integers(1, 8, 2))) < rng.uniform(0.4, 0.9)
            if not cells.any():
                continue
            rows, cols = np.nonzero(cells)
            cells = cells[rows.min(): rows.max() + 1, cols.min(): cols.max() + 1]
            labels, count = ndimage.label(cells)
            try:
                CompositeDomain.from_cells(cells)
                error = ""
            except ValueError as exc:
                error = str(exc)
            if count == 1:
                assert "not edge-connected" not in error
                continue
            first = np.argwhere(labels)[0]
            reached = int(np.count_nonzero(labels == labels[tuple(first)]))
            total = int(np.count_nonzero(labels))
            assert error == (
                f"composite domain is not edge-connected: {total - reached} of "
                f"{total} cells are unreachable from cell {tuple(first.tolist())}"
            )

    def test_rejects_holes(self):
        with pytest.raises(ValueError, match="holes"):
            CompositeDomain.from_rects(
                [(0, 0, 1, 6), (0, 0, 6, 1), (5, 0, 1, 6), (0, 5, 6, 1)]
            )

    def test_rejects_pinched_corner(self):
        # cells (2, 1) and (1, 2) meet only at corner (2, 2)
        cells = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
        with pytest.raises(ValueError, match=r"pinched at corner \(2, 2\)"):
            CompositeDomain.from_cells(cells)

    def test_scaled_scales_every_rectangle(self):
        d = CompositeDomain.l_shape(4, 4, 2, 2)
        big = d.scaled(3)
        assert big == CompositeDomain.l_shape(12, 12, 6, 6)
        assert np.array_equal(big.cell_mask(), d.cell_mask().repeat(3, 0).repeat(3, 1))
        with pytest.raises(ValueError):
            d.scaled(0)


class TestBoundaryTrace:
    def test_rectangle_boundary_is_four_segments(self):
        d = CompositeDomain.rectangle(4, 3)
        segments = d.boundary_segments()
        assert segments == (
            ((0, 0), (0, 4)),   # bottom, left to right
            ((0, 4), (3, 4)),   # right, bottom to top
            ((3, 4), (3, 0)),   # top, right to left
            ((3, 0), (0, 0)),   # left, top to bottom
        )

    def test_l_shape_has_six_corners(self):
        d = CompositeDomain.l_shape(4, 4, 2, 2)
        assert len(d.boundary_corners) == 6
        # trace starts at the bottom-left corner heading +x
        assert d.boundary_corners[0] == (0, 0)
        assert d.boundary_corners[1] == (0, 4)

    def test_segments_form_closed_ccw_loop(self):
        for d in (
            CompositeDomain.l_shape(5, 4, 2, 2),
            CompositeDomain.plus_shape(2, 3),
            CompositeDomain.t_shape(8, 2, 4, 3),
        ):
            segments = d.boundary_segments()
            for (a, b), (c, _) in zip(segments, segments[1:] + segments[:1]):
                assert b == c  # each segment ends where the next begins
                assert (a[0] == b[0]) != (a[1] == b[1])  # axis-aligned
            # shoelace area in step units is positive (counter-clockwise) and
            # equals the covered cell count (simple polygon, no holes)
            corners = d.boundary_corners
            area = 0
            for (r0, c0), (r1, c1) in zip(corners, corners[1:] + corners[:1]):
                area += c0 * r1 - c1 * r0
            assert area / 2 == d.num_cells


class TestEquality:
    def test_hashable_and_equal_by_rects(self):
        a = CompositeDomain.l_shape(4, 4, 2, 2)
        b = CompositeDomain.l_shape(4, 4, 2, 2)
        assert a == b and hash(a) == hash(b)
        assert a != CompositeDomain.l_shape(4, 4, 2, 1)
        assert len({a, b}) == 1
