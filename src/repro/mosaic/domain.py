"""Domain shapes as unions of axis-aligned rectangles.

A :class:`CompositeDomain` describes the *shape* of a target domain on the
half-subdomain step lattice of the Mosaic Flow decomposition: the union of
axis-aligned rectangles whose corners sit on that lattice.  Rectangles,
L-shapes, T-shapes, plus-shapes, notched plates and staircases are all
expressible; the shape is purely combinatorial (integer step units) and
independent of the subdomain resolution, which
:class:`~repro.mosaic.geometry.MosaicGeometry` adds on top.

The domain is validated at construction: it must be non-empty, edge-connected,
free of holes and free of *pinched* corners (two boundary loops meeting at a
point), so that its boundary is a single closed axis-aligned polygon.  The
boundary is traced counter-clockwise starting from the bottom-left-most
corner and reported as maximal straight segments; for a plain rectangle this
reproduces exactly the bottom/right/top/left edge order (with corners shared
between consecutive edges) of the :class:`~repro.fd.grid.Grid2D` boundary-loop
convention.  Every check works on whole cell masks, and the trace steps from
corner to corner, so no loop runs over cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..procs import fresh_cached_property_locks

__all__ = ["CompositeDomain"]

#: unit steps (row, col) of the four boundary directions: +x, +y, -x, -y
_DIRECTIONS = ((0, 1), (1, 0), (0, -1), (-1, 0))


def _run_labels(cells: np.ndarray) -> np.ndarray:
    """Label each maximal run of set cells along the rows: 1, 2, ...; 0 elsewhere."""

    starts = cells.copy()
    starts[:, 1:] &= ~cells[:, :-1]
    return np.cumsum(starts, axis=None).reshape(cells.shape) * cells


@dataclass(frozen=True)
class CompositeDomain:
    """Union of axis-aligned rectangles on the half-subdomain step lattice.

    Parameters
    ----------
    rects:
        Tuple of rectangles ``(row0, col0, rows, cols)`` in half-subdomain
        step units: the rectangle covers step cells ``[row0, row0+rows) x
        [col0, col0+cols)``.  Rectangles may overlap; the domain is their
        union.  Use :meth:`from_rects` (which normalizes the placement so the
        bounding box starts at the origin) rather than the raw constructor.
    """

    rects: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if not self.rects:
            raise ValueError("a CompositeDomain needs at least one rectangle")
        for rect in self.rects:
            row0, col0, rows, cols = rect
            if rows < 1 or cols < 1:
                raise ValueError(f"rectangle {rect} has a non-positive side")
        if min(r[0] for r in self.rects) != 0 or min(r[1] for r in self.rects) != 0:
            raise ValueError(
                "rectangles must be normalized so the bounding box starts at "
                "(0, 0); build the domain with CompositeDomain.from_rects"
            )
        # One rectangle is a simple polygon; a union is validated eagerly so
        # every constructed domain is known to be one hole-free polygon.
        if len(self.rects) > 1:
            self._check_connected()
            _ = self.boundary_corners

    def __getstate__(self) -> dict:
        # Pickled as its rectangles; the cached masks and trace are rebuilt.
        return {"rects": self.rects}

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_rects(cls, rects) -> "CompositeDomain":
        """Build a domain from rectangles, translating them to the origin."""

        rects = tuple((int(r), int(c), int(h), int(w)) for r, c, h, w in rects)
        if not rects:
            raise ValueError("a CompositeDomain needs at least one rectangle")
        row_min = min(r[0] for r in rects)
        col_min = min(r[1] for r in rects)
        return cls(tuple((r - row_min, c - col_min, h, w) for r, c, h, w in rects))

    @classmethod
    def rectangle(cls, steps_x: int, steps_y: int) -> "CompositeDomain":
        """A plain ``steps_x x steps_y`` rectangle (the classical Mosaic case)."""

        return cls(((0, 0, int(steps_y), int(steps_x)),))

    @classmethod
    def l_shape(
        cls, steps_x: int, steps_y: int, notch_x: int, notch_y: int
    ) -> "CompositeDomain":
        """An L: the ``steps_x x steps_y`` box minus its top-right notch."""

        steps_x, steps_y = int(steps_x), int(steps_y)
        notch_x, notch_y = int(notch_x), int(notch_y)
        if not (0 < notch_x < steps_x and 0 < notch_y < steps_y):
            raise ValueError(
                f"notch ({notch_x}, {notch_y}) must be strictly inside the "
                f"({steps_x}, {steps_y}) bounding box"
            )
        return cls(
            (
                (0, 0, steps_y - notch_y, steps_x),
                (steps_y - notch_y, 0, notch_y, steps_x - notch_x),
            )
        )

    @classmethod
    def t_shape(cls, bar_x: int, bar_y: int, stem_x: int, stem_y: int) -> "CompositeDomain":
        """A T: a ``bar_x x bar_y`` top bar over a centred ``stem_x x stem_y`` stem."""

        bar_x, bar_y, stem_x, stem_y = int(bar_x), int(bar_y), int(stem_x), int(stem_y)
        if stem_x > bar_x:
            raise ValueError("the stem cannot be wider than the bar")
        offset = (bar_x - stem_x) // 2
        return cls.from_rects(
            (
                (stem_y, 0, bar_y, bar_x),
                (0, offset, stem_y, stem_x),
            )
        )

    @classmethod
    def plus_shape(cls, arm: int, thickness: int) -> "CompositeDomain":
        """A plus: two centred ``(2*arm + thickness)``-long crossing bars."""

        arm, thickness = int(arm), int(thickness)
        span = 2 * arm + thickness
        return cls.from_rects(
            (
                (arm, 0, thickness, span),
                (0, arm, span, thickness),
            )
        )

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "CompositeDomain":
        """Build a domain from a boolean cell mask (row-run decomposition)."""

        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 2 or not cells.any():
            raise ValueError("cells must be a non-empty 2-D boolean mask")
        edges = np.diff(np.pad(cells, ((0, 0), (1, 1))).astype(np.int8), axis=1)
        rows, starts = np.nonzero(edges == 1)
        stops = np.nonzero(edges == -1)[1]
        return cls.from_rects(
            (r, c, 1, w) for r, c, w in zip(rows.tolist(), starts.tolist(),
                                            (stops - starts).tolist())
        )

    def scaled(self, factor: int) -> "CompositeDomain":
        """The same shape with every rectangle ``factor`` times larger per side."""

        if factor < 1:
            raise ValueError("factor must be >= 1")
        return CompositeDomain(tuple(tuple(v * int(factor) for v in r) for r in self.rects))

    # -- cell-level queries -----------------------------------------------------------

    @property
    def steps_x(self) -> int:
        """Half-subdomain steps spanned by the bounding box along x."""

        return max(r[1] + r[3] for r in self.rects)

    @property
    def steps_y(self) -> int:
        return max(r[0] + r[2] for r in self.rects)

    @cached_property
    def _cells(self) -> np.ndarray:
        cells = np.zeros((self.steps_y, self.steps_x), dtype=bool)
        for row0, col0, rows, cols in self.rects:
            cells[row0: row0 + rows, col0: col0 + cols] = True
        cells.flags.writeable = False
        return cells

    def cell_mask(self) -> np.ndarray:
        """Boolean mask of covered step cells, shape ``(steps_y, steps_x)``."""

        return self._cells.copy()

    @property
    def num_cells(self) -> int:
        return int(self._cells.sum())

    @property
    def is_rectangle(self) -> bool:
        """Whether the union is exactly its bounding box."""

        return len(self.rects) == 1 or bool(self._cells.all())

    def _check_connected(self) -> None:
        # 4-neighbour flood fill from the first cell, a whole run at a time:
        # each pass grows the reached set to every row run it touches, then
        # to every column run, so a shape with few turns takes few passes.
        cells = self._cells
        row_runs = _run_labels(cells)
        col_runs = _run_labels(cells.T).T
        first = np.argwhere(cells)[0]
        reached = np.zeros_like(cells)
        reached[tuple(first)] = True
        count = 1
        while True:
            for runs in (row_runs, col_runs):
                touched = np.zeros(runs.max() + 1, dtype=bool)
                touched[runs[reached]] = True
                reached = touched[runs]
            grown = int(np.count_nonzero(reached))
            if grown == count:
                break
            count = grown
        total = int(np.count_nonzero(cells))
        if count < total:
            raise ValueError(
                f"composite domain is not edge-connected: {total - count} of "
                f"{total} cells are unreachable from cell {tuple(first.tolist())}"
            )

    # -- boundary tracing -------------------------------------------------------------

    @cached_property
    def boundary_corners(self) -> tuple[tuple[int, int], ...]:
        """Corners ``(row, col)`` of the boundary polygon, counter-clockwise.

        The trace starts at the bottom-left-most corner heading right (+x);
        consecutive corners differ along exactly one axis.  The first corner
        is not repeated at the end.  Raises :class:`ValueError` for pinched
        corners or interior holes.
        """

        padded = np.pad(self._cells, 1)
        cells = padded[1:-1, 1:-1]
        # Unit boundary edges per direction, oriented counter-clockwise (the
        # domain lies to the left of travel), as masks of their start points
        # on the (steps_y + 1, steps_x + 1) lattice of cell corners.
        starts = np.zeros((4, cells.shape[0] + 1, cells.shape[1] + 1), dtype=bool)
        starts[0, :-1, :-1] = cells & ~padded[:-2, 1:-1]   # bottom edges, +x
        starts[1, :-1, 1:] = cells & ~padded[1:-1, 2:]     # right edges, +y
        starts[2, 1:, 1:] = cells & ~padded[2:, 1:-1]      # top edges, -x
        starts[3, 1:, :-1] = cells & ~padded[1:-1, :-2]    # left edges, -y
        outgoing = starts.sum(axis=0)
        if (outgoing > 1).any():
            raise ValueError(
                f"composite domain boundary is pinched at corner "
                f"{tuple(np.argwhere(outgoing > 1)[0].tolist())}: the domain "
                f"touches itself at a point; thicken the connection to at "
                f"least one full step"
            )
        heading = starts.argmax(axis=0)      # direction leaving each point
        arriving = np.zeros_like(heading)    # direction reaching it
        for code, (dr, dc) in enumerate(_DIRECTIONS):
            rows, cols = np.nonzero(starts[code])
            arriving[rows + dr, cols + dc] = code
        is_corner = (outgoing == 1) & (heading != arriving)

        # Walk corner to corner: a segment ends at the first corner its ray meets.
        start = tuple(np.argwhere(outgoing)[0].tolist())
        corners, traced, (r, c) = [start], 0, start
        while True:
            dr, dc = _DIRECTIONS[heading[r, c]]
            ray = is_corner[r, c + dc::dc] if dr == 0 else is_corner[r + dr::dr, c]
            length = int(np.argmax(ray)) + 1
            r, c, traced = r + dr * length, c + dc * length, traced + length
            if (r, c) == start:
                break
            corners.append((r, c))
        remaining = int(outgoing.sum()) - traced
        if remaining:
            raise ValueError(
                f"composite domain has interior holes ({remaining} boundary "
                f"edges remain after tracing the outer loop); holes are not "
                f"supported"
            )
        return tuple(corners)

    def boundary_segments(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """Maximal straight boundary segments ``((r0, c0), (r1, c1))``, CCW.

        The segments form a closed loop: each ends where the next begins, and
        the last ends at the first's start.  For a rectangle this is exactly
        bottom, right, top, left.
        """

        corners = self.boundary_corners
        return tuple(
            (corners[k], corners[(k + 1) % len(corners)]) for k in range(len(corners))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompositeDomain({self.steps_x}x{self.steps_y} steps, "
            f"{len(self.rects)} rects, {self.num_cells} cells)"
        )


fresh_cached_property_locks(CompositeDomain)
