"""Geometry of the Mosaic Flow interface lattice.

The Mosaic Flow predictor keeps the PDE solution only on the *interface
lattice*: the grid lines spaced half a subdomain apart (the paper's
``1/(2m)`` spacing with ``d = 2``).  Atomic subdomains are anchored at every
lattice node; a subdomain anchored at lattice node ``(r, c)`` spans two
lattice cells per direction, so neighbouring anchors overlap by half a
subdomain.

Within one iteration only one *phase* of anchors is processed — the subset
whose anchor parities match the phase offset — which makes the subdomains of
an iteration non-overlapping (Figure 2).  A phase's subdomains read their
boundary edges from lattice lines of one parity and write their centre lines
to lattice lines of the other parity, which is why batching them (Section
4.1) is exactly equivalent to processing them sequentially.

The domain is a :class:`~repro.mosaic.domain.CompositeDomain` cell mask in
its bounding-box grid; a rectangle is the full mask.  Only anchors whose
window lies inside the domain are enumerated (row-major), the Dirichlet loop
traces the domain polygon counter-clockwise with corners duplicated (on a
rectangle, the ``2*nx + 2*ny`` loop of :class:`~repro.fd.grid.Grid2D`), and
the point masks are restricted to the domain.  All index arithmetic for
anchors, phases, windows, boundary loops and centre lines lives here so
every predictor shares a single geometric truth.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from ..fd.grid import Grid2D
from ..procs import fresh_cached_property_locks
from .domain import CompositeDomain

__all__ = ["MosaicGeometry", "PHASE_OFFSETS"]

#: Iteration phases: parity offsets (row, col) of the anchors processed in
#: that phase.  Cycling through all four covers every anchor.
PHASE_OFFSETS: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (0, 1), (1, 0))


def _dilate(mask: np.ndarray) -> np.ndarray:
    """``mask`` grown by one row and column: a cell or window touches 2x2 entries."""

    out = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=bool)
    for dr in (0, 1):
        for dc in (0, 1):
            out[dr:dr + mask.shape[0], dc:dc + mask.shape[1]] |= mask
    return out


@dataclass(frozen=True)
class MosaicGeometry:
    """Discrete geometry shared by all Mosaic Flow predictor variants.

    Parameters
    ----------
    subdomain_points:
        Grid points per side of an atomic subdomain (must be odd so the
        subdomain has an exact centre line).  The paper's 32x32-cell
        subdomain corresponds to 33 grid points per side.
    subdomain_extent:
        Physical side length of an atomic subdomain (paper: 0.5).
    steps_x, steps_y:
        Number of half-subdomain steps the bounding box spans per axis.
        The global grid therefore measures
        ``steps_x * subdomain_extent / 2`` by ``steps_y * subdomain_extent / 2``
        and has ``steps_* * (subdomain_points - 1) / 2 + 1`` grid points per
        side.  Both must be at least 2 (one full subdomain).
    domain:
        Shape in step cells; the default is the full ``steps_x x steps_y``
        rectangle.  A domain whose union is a rectangle is stored as that
        rectangle, so it equals, hashes like and shares plans with the plain
        geometry.  Equality and hashing cost grows with rectangles, not cells.

    A non-rectangular domain is validated up front: every covered step cell
    must lie in some anchor window and every interior lattice point must be
    written by some anchor's centre lines (single-step appendages and
    diagonal zigzags fail), else a :class:`ValueError` is raised.
    """

    subdomain_points: int
    subdomain_extent: float
    steps_x: int
    steps_y: int
    domain: CompositeDomain | None = None

    def __post_init__(self):
        if self.subdomain_points < 5 or self.subdomain_points % 2 == 0:
            raise ValueError("subdomain_points must be odd and at least 5")
        if self.steps_x < 2 or self.steps_y < 2:
            raise ValueError(
                f"the domain must span at least one full subdomain (2 half-subdomain "
                f"steps) per axis to place any anchor, got steps "
                f"({self.steps_x}, {self.steps_y})"
            )
        if self.subdomain_extent <= 0:
            raise ValueError("subdomain_extent must be positive")
        domain = self.domain
        if domain is not None and (domain.steps_x, domain.steps_y) != (self.steps_x, self.steps_y):
            raise ValueError(
                f"domain spans ({domain.steps_x}, {domain.steps_y}) steps, "
                f"not ({self.steps_x}, {self.steps_y})"
            )
        if domain is None or domain.is_rectangle:
            object.__setattr__(
                self, "domain", CompositeDomain.rectangle(self.steps_x, self.steps_y))
        else:
            self._validate_anchor_coverage()

    def __getstate__(self) -> dict:
        # Pickled (journal keys) as its fields; the cached masks and hash are rebuilt.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __hash__(self) -> int:
        # The generated dataclass hash, computed once: a geometry keys several
        # dict lookups per request, and each would rehash every field, the
        # domain's rectangles included.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(
                tuple(getattr(self, f.name) for f in fields(self)))
            return value

    # -- derived sizes -------------------------------------------------------------

    @property
    def half(self) -> int:
        """Grid points per half-subdomain step (lattice spacing in grid units)."""

        return (self.subdomain_points - 1) // 2

    @property
    def spacing(self) -> float:
        """Physical grid spacing."""

        return self.subdomain_extent / (self.subdomain_points - 1)

    @property
    def global_nx(self) -> int:
        return self.steps_x * self.half + 1

    @property
    def global_ny(self) -> int:
        return self.steps_y * self.half + 1

    @property
    def global_extent(self) -> tuple[float, float]:
        return (self.steps_x * self.subdomain_extent / 2.0,
                self.steps_y * self.subdomain_extent / 2.0)

    @property
    def anchor_rows(self) -> int:
        """Number of anchor rows of the bounding box."""

        return self.steps_y - 1

    @property
    def anchor_cols(self) -> int:
        return self.steps_x - 1

    @property
    def num_subdomains(self) -> int:
        return len(self._anchors)

    @property
    def is_rectangular(self) -> bool:
        """Whether the domain is a plain axis-aligned rectangle."""

        return self.domain.is_rectangle

    @property
    def box(self) -> "MosaicGeometry":
        """The geometry of the bounding-box rectangle (``self`` on a rectangle)."""

        return self if self.is_rectangular else replace(self, domain=None)

    # -- grids ------------------------------------------------------------------------

    def global_grid(self, origin: tuple[float, float] = (0.0, 0.0)) -> Grid2D:
        """The bounding-box grid every global field lives on."""

        return Grid2D(self.global_nx, self.global_ny, self.global_extent, origin)

    def subdomain_grid(self) -> Grid2D:
        """The local grid of one atomic subdomain (origin at its corner)."""

        m, extent = self.subdomain_points, self.subdomain_extent
        return Grid2D(m, m, (extent, extent))

    # -- anchors and phases ---------------------------------------------------------------

    @cached_property
    def _anchor_ok(self) -> np.ndarray:
        """(anchor_rows, anchor_cols) mask of anchors whose 2x2 cells are covered."""

        cells = self.domain.cell_mask()
        ok = cells[:-1, :-1] & cells[1:, :-1] & cells[:-1, 1:] & cells[1:, 1:]
        ok.flags.writeable = False
        return ok

    @cached_property
    def _anchors(self) -> tuple[tuple[int, int], ...]:
        rows, cols = np.nonzero(self._anchor_ok)
        return tuple(zip(rows.tolist(), cols.tolist()))

    def anchors(self) -> list[tuple[int, int]]:
        """All anchor positions ``(row, col)`` in lattice units, row-major."""

        return list(self._anchors)

    def anchors_for_phase(self, phase: int) -> list[tuple[int, int]]:
        """Anchors processed in iteration phase ``phase`` (0..3), row-major."""

        dr, dc = PHASE_OFFSETS[phase % len(PHASE_OFFSETS)]
        rows, cols = np.nonzero(self._anchor_ok[dr::2, dc::2])
        return list(zip((2 * rows + dr).tolist(), (2 * cols + dc).tolist()))

    def anchor_window(self, anchor: tuple[int, int]) -> tuple[int, int]:
        """Global grid index of the subdomain's lower-left corner ``(row0, col0)``."""

        r, c = anchor
        if not (0 <= r < self.anchor_rows and 0 <= c < self.anchor_cols
                and self._anchor_ok[r, c]):
            raise ValueError(f"anchor {anchor} is not inside the domain")
        return r * self.half, c * self.half

    # -- index helpers (local, shared by all anchors) ----------------------------------------

    def boundary_loop_local_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) local indices of the subdomain boundary loop."""

        return self.subdomain_grid().boundary_indices()

    def center_line_local_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) local indices of the two centre lines, endpoints excluded.

        The centre lines are the horizontal and vertical lines through the
        subdomain centre.  Endpoints lie on the subdomain's own boundary and
        are never overwritten; the centre point appears once.
        """

        m, h = self.subdomain_points, self.half
        interior = np.arange(1, m - 1)
        # the horizontal line (row h, every interior column), then the
        # vertical line (column h, interior rows except the centre)
        rows = np.concatenate([np.full(m - 2, h), interior[interior != h]])
        return rows, np.concatenate([interior, np.full(m - 3, h)])

    def center_line_local_coordinates(self) -> np.ndarray:
        """Physical local coordinates of the centre-line points, shape ``(q, 2)``."""

        rows, cols = self.center_line_local_indices()
        return np.stack([cols * self.spacing, rows * self.spacing], axis=1)

    def interior_local_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) local indices of all interior subdomain points."""

        m = self.subdomain_points
        rows, cols = np.meshgrid(np.arange(1, m - 1), np.arange(1, m - 1), indexing="ij")
        return rows.ravel(), cols.ravel()

    def interior_local_coordinates(self) -> np.ndarray:
        rows, cols = self.interior_local_indices()
        return np.stack([cols * self.spacing, rows * self.spacing], axis=1)

    # -- point masks (read-only, cached) ---------------------------------------------------

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        h = self.half
        # A point is valid when one of the (up to four) cells it touches is covered.
        valid = _dilate(self.domain.cell_mask().repeat(h, axis=0).repeat(h, axis=1))
        # A valid point is interior iff its 3x3 neighbourhood is valid; with
        # half >= 2 every covered cell is at least two grid units thick, so
        # this is exactly "not on the boundary polygon".
        rows = np.zeros_like(valid)
        rows[1:-1] = valid[:-2] & valid[1:-1] & valid[2:]
        interior = np.zeros_like(valid)
        interior[:, 1:-1] = rows[:, :-2] & rows[:, 1:-1] & rows[:, 2:]
        lattice = np.zeros_like(valid)
        lattice[::h, :] = lattice[:, ::h] = True
        lattice &= valid
        masks = valid, interior, lattice, valid & ~interior
        for mask in masks:
            mask.flags.writeable = False
        return masks

    def valid_mask(self) -> np.ndarray:
        """Grid points inside (or on the boundary of) the domain."""

        return self._masks[0]

    def interior_mask(self) -> np.ndarray:
        """Grid points strictly inside the domain."""

        return self._masks[1]

    def lattice_mask(self) -> np.ndarray:
        """Interface-lattice points inside the domain (the iterated state)."""

        return self._masks[2]

    def boundary_point_mask(self) -> np.ndarray:
        """Grid points on the (possibly re-entrant) domain boundary."""

        return self._masks[3]

    # -- global boundary loop ----------------------------------------------------------

    @cached_property
    def _boundary_loop(self) -> tuple[np.ndarray, np.ndarray]:
        # Each straight segment contributes its grid points with both ends, so
        # corners repeat exactly as in the rectangular ``2*nx + 2*ny`` loop.
        h, rows, cols = self.half, [], []
        for (r0, c0), (r1, c1) in self.domain.boundary_segments():
            steps = np.arange(abs(r1 - r0 + c1 - c0) * h + 1)
            rows.append(r0 * h + np.sign(r1 - r0) * steps)
            cols.append(c0 * h + np.sign(c1 - c0) * steps)
        loop = np.concatenate(rows), np.concatenate(cols)
        for array in loop:
            array.flags.writeable = False
        return loop

    @property
    def global_boundary_size(self) -> int:
        """Number of samples in the global Dirichlet boundary loop."""

        return int(self._boundary_loop[0].size)

    def global_boundary_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) global grid indices tracing the domain boundary loop."""

        return self._boundary_loop

    def global_boundary_coordinates(self) -> np.ndarray:
        """Physical coordinates of the boundary loop samples, shape ``(n, 2)``."""

        rows, cols = self._boundary_loop
        grid = self.global_grid()
        return np.stack([cols * grid.hx, rows * grid.hy], axis=1)

    def boundary_from_function(self, fn) -> np.ndarray:
        """Sample ``fn(x, y)`` along the global boundary loop."""

        coords = self.global_boundary_coordinates()
        return np.asarray(fn(coords[:, 0], coords[:, 1]), dtype=float)

    def insert_global_boundary(
        self, boundary_loop: np.ndarray, field: np.ndarray | None = None
    ) -> np.ndarray:
        """Write the global boundary loop into a (new or existing) field.

        Duplicated corner samples follow last-write-wins, exactly like
        :meth:`Grid2D.insert_boundary`.
        """

        boundary_loop = np.asarray(boundary_loop, dtype=float)
        if boundary_loop.shape != (self.global_boundary_size,):
            raise ValueError(
                f"boundary loop must have length {self.global_boundary_size}, "
                f"got {boundary_loop.shape}"
            )
        field = (np.zeros((self.global_ny, self.global_nx)) if field is None
                 else np.array(field, dtype=float, copy=True))
        field[self._boundary_loop] = boundary_loop
        return field

    # -- construction-time validation --------------------------------------------------

    def _validate_anchor_coverage(self) -> None:
        # Every covered cell must fall inside some anchor window, otherwise
        # the dense assembly would never predict parts of the domain.
        missing = self.domain.cell_mask() & ~_dilate(self._anchor_ok)
        if missing.any():
            rows, cols = np.nonzero(missing)
            raise ValueError(
                f"composite domain has {rows.size} step cell(s) outside every "
                f"subdomain window (first: ({int(rows[0])}, {int(cols[0])})); "
                f"appendages must be at least 2 half-subdomain steps wide"
            )
        # Every interior lattice point must be written by some anchor's
        # centre lines, otherwise the iteration would keep its init value.
        crow, ccol = self.center_line_local_indices()
        rows, cols = np.nonzero(self._anchor_ok)
        updated = np.zeros((self.global_ny, self.global_nx), dtype=bool)
        updated[(rows * self.half)[:, None] + crow, (cols * self.half)[:, None] + ccol] = True
        stale = self.lattice_mask() & self.interior_mask() & ~updated
        if stale.any():
            rows, cols = np.nonzero(stale)
            raise ValueError(
                f"composite domain has {rows.size} interior lattice point(s) "
                f"not updated by any anchor centre line (first grid point: "
                f"({int(rows[0])}, {int(cols[0])})); the shape pinches the "
                f"anchor lattice — thicken the offending region"
            )

    # -- construction helpers ----------------------------------------------------------------------

    @classmethod
    def from_domain(
        cls, domain: CompositeDomain, subdomain_points: int = 33, subdomain_extent: float = 0.5
    ) -> "MosaicGeometry":
        """The geometry of ``domain``'s shape at the given subdomain resolution."""

        return cls(subdomain_points, subdomain_extent, domain.steps_x, domain.steps_y, domain)

    @classmethod
    def from_domain_size(cls, domain_size: tuple[float, float], subdomain_points: int = 33,
                         subdomain_extent: float = 0.5) -> "MosaicGeometry":
        """Build a geometry covering ``domain_size`` (must be a multiple of half the subdomain)."""

        if min(domain_size) <= 0:
            raise ValueError(f"domain_size must be positive, got {tuple(domain_size)}")
        if min(domain_size) < subdomain_extent - 1e-9:
            raise ValueError(
                f"domain_size {tuple(domain_size)} is too small for a single "
                f"{subdomain_extent} x {subdomain_extent} subdomain: the Mosaic "
                f"lattice needs at least one full subdomain (one anchor) per axis"
            )
        half_extent = subdomain_extent / 2.0
        steps = [round(size / half_extent) for size in domain_size]
        if any(abs(n * half_extent - size) > 1e-9 for n, size in zip(steps, domain_size)):
            raise ValueError(
                "domain_size must be an integer multiple of half the subdomain extent"
            )
        return cls(subdomain_points, subdomain_extent, *steps)

    def scaled(self, factor: int) -> "MosaicGeometry":
        """The same shape ``factor`` times larger per side (same subdomain)."""

        return MosaicGeometry(self.subdomain_points, self.subdomain_extent, self.steps_x * factor,
                              self.steps_y * factor, self.domain.scaled(factor))


fresh_cached_property_locks(MosaicGeometry)
