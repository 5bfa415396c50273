"""2-D Cartesian process grids, rank mappings and block partitioning.

Section 4.2 of the paper assigns processors to a 2-D grid in a row-wise scan
pattern and notes that locality-preserving orderings (Morton / Z-order) could
improve load balance; both mappings are implemented here.  The module also
provides balanced 1-D/2-D block partitioning of the interface lattice and the
8-neighbour (orthogonal + diagonal) stencil used by the halo exchange in
Figure 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "choose_grid_dims",
    "morton_encode",
    "ProcessGrid",
    "block_range",
    "BlockPartition",
]


def choose_grid_dims(size: int) -> tuple[int, int]:
    """Pick process grid dimensions ``(rows, cols)`` as close to square as possible."""

    if size <= 0:
        raise ValueError("size must be positive")
    rows = int(math.isqrt(size))
    while rows > 1 and size % rows != 0:
        rows -= 1
    return rows, size // rows


def morton_encode(row: int, col: int) -> int:
    """Interleave the bits of (row, col) to produce the Morton (Z-order) key."""

    result = 0
    for bit in range(32):
        result |= ((col >> bit) & 1) << (2 * bit)
        result |= ((row >> bit) & 1) << (2 * bit + 1)
    return result


def block_range(total: int, parts: int, index: int) -> tuple[int, int]:
    """Balanced contiguous partition of ``total`` items into ``parts`` blocks.

    Returns the half-open range ``[start, stop)`` of block ``index``; the
    first ``total % parts`` blocks receive one extra item.
    """

    if parts <= 0:
        raise ValueError("parts must be positive")
    if not 0 <= index < parts:
        raise ValueError("index out of range")
    base, remainder = divmod(total, parts)
    start = index * base + min(index, remainder)
    stop = start + base + (1 if index < remainder else 0)
    return start, stop


@dataclass(frozen=True)
class BlockPartition:
    """The sub-block of a global 2-D lattice owned by one processor."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols(self) -> int:
        return self.col_stop - self.col_start

    @property
    def count(self) -> int:
        return self.rows * self.cols

    def contains(self, row: int, col: int) -> bool:
        return self.row_start <= row < self.row_stop and self.col_start <= col < self.col_stop


class ProcessGrid:
    """A 2-D logical grid of processors with a configurable rank mapping.

    Parameters
    ----------
    size:
        Number of processors.
    dims:
        Optional explicit ``(rows, cols)``; chosen automatically otherwise.
    ordering:
        ``"row"`` for the paper's row-wise scan or ``"morton"`` for Z-order.
    """

    def __init__(self, size: int, dims: tuple[int, int] | None = None, ordering: str = "row"):
        if dims is None:
            dims = choose_grid_dims(size)
        rows, cols = dims
        if rows * cols != size:
            raise ValueError(f"dims {dims} do not multiply to size {size}")
        if ordering not in ("row", "morton"):
            raise ValueError("ordering must be 'row' or 'morton'")
        self.size = int(size)
        self.rows = int(rows)
        self.cols = int(cols)
        self.ordering = ordering

        coords = [(r, c) for r in range(rows) for c in range(cols)]
        if ordering == "morton":
            coords.sort(key=lambda rc: morton_encode(rc[0], rc[1]))
        # rank -> (row, col) and the inverse map
        self._rank_to_coord = {rank: rc for rank, rc in enumerate(coords)}
        self._coord_to_rank = {rc: rank for rank, rc in self._rank_to_coord.items()}

    # -- mapping ------------------------------------------------------------------

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates ``(row, col)`` of ``rank``."""

        return self._rank_to_coord[rank]

    def rank_at(self, row: int, col: int) -> int:
        return self._coord_to_rank[(row, col)]

    def neighbors(self, rank: int) -> dict[tuple[int, int], int]:
        """Existing neighbours of ``rank`` keyed by offset ``(drow, dcol)``.

        Includes the four orthogonal and four diagonal neighbours (Figure 4's
        stencil communication pattern); processors on the domain boundary have
        fewer neighbours.
        """

        row, col = self.coords(rank)
        result: dict[tuple[int, int], int] = {}
        for drow in (-1, 0, 1):
            for dcol in (-1, 0, 1):
                if drow == 0 and dcol == 0:
                    continue
                nr, nc = row + drow, col + dcol
                if 0 <= nr < self.rows and 0 <= nc < self.cols:
                    result[(drow, dcol)] = self.rank_at(nr, nc)
        return result

    def orthogonal_neighbors(self, rank: int) -> dict[tuple[int, int], int]:
        return {
            offset: r
            for offset, r in self.neighbors(rank).items()
            if abs(offset[0]) + abs(offset[1]) == 1
        }

    def diagonal_neighbors(self, rank: int) -> dict[tuple[int, int], int]:
        return {
            offset: r
            for offset, r in self.neighbors(rank).items()
            if abs(offset[0]) + abs(offset[1]) == 2
        }

    # -- partitioning ----------------------------------------------------------------

    def partition(self, global_rows: int, global_cols: int, rank: int) -> BlockPartition:
        """Balanced block of a ``global_rows x global_cols`` lattice owned by ``rank``."""

        row, col = self.coords(rank)
        r0, r1 = block_range(global_rows, self.rows, row)
        c0, c1 = block_range(global_cols, self.cols, col)
        return BlockPartition(r0, r1, c0, c1)

    def all_partitions(self, global_rows: int, global_cols: int) -> list[BlockPartition]:
        return [self.partition(global_rows, global_cols, rank) for rank in range(self.size)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGrid(size={self.size}, dims=({self.rows}, {self.cols}), ordering='{self.ordering}')"
