"""Distributed Mosaic Flow predictor (Algorithm 2 of the paper).

The global domain is partitioned over a 2-D processor grid: each rank owns a
contiguous block of atomic-subdomain anchors and stores the part of the
interface lattice its subdomains touch (its *processor subdomain*, which
overlaps its neighbours' by half a subdomain).  Each rank runs the
single-process iteration, :class:`~repro.mosaic.core.LatticeRun`, over the
plan of its block, so every iteration it

1. updates the centre lines of its own anchors for the current phase,
   applying updates immediately within the rank (as in the baseline), then
2. exchanges with its (up to eight) neighbours the lattice values the
   neighbours need but do not compute themselves — the *relaxed
   synchronization* of Section 4.2: cross-rank information only propagates
   once per iteration, so some halo values are one iteration stale, and
3. checks the relative-change (and optionally MAE) stopping criteria with an
   allreduce.

Steps 2 and 3 are the two callables the rank hands to
:meth:`~repro.mosaic.core.LatticeRun.iterate`; the phase order and the stop
rule are the core's.  After the iteration every rank densely predicts its
own subdomains, the per-rank accumulators are allgathered and overlapping
predictions are averaged (Algorithm 2 lines 10-12).

The communication plan (which points go to which neighbour) is derived
programmatically from anchor ownership, so the same code handles interior
ranks, edge ranks and corner ranks, arbitrary processor-grid shapes and the
row-scan or Morton rank orderings.

:meth:`DistributedMosaicFlowPredictor.run` forks one process per rank
(:func:`~repro.distributed.processes.fork_spmd`), so the ranks compute at the
same time; the rank plans are built once per world size, before the fork.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..distributed.cartesian import BlockPartition, ProcessGrid
from ..distributed.comm import Communicator, ReduceOp
from ..distributed.processes import fork_spmd
from ..obs.trace import span
from .core import (
    LatticeRun, Session, accumulate, build_plan, checked_reference, checked_solver,
    overlap_average, timed,
)
from .geometry import MosaicGeometry

__all__ = [
    "RankLayout",
    "HaloExchangePlan",
    "DistributedMFPResult",
    "DistributedMosaicFlowPredictor",
]


# ---------------------------------------------------------------------------
# Per-rank layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankLayout:
    """Index bookkeeping for one rank's processor subdomain."""

    rank: int
    part: BlockPartition            # anchor-block partition [ar0, ar1) x [ac0, ac1)
    row_offset: int                 # global grid row of local row 0
    col_offset: int                 # global grid col of local col 0
    local_shape: tuple[int, int]    # (rows, cols) of the local field

    @classmethod
    def build(cls, geometry: MosaicGeometry, grid: ProcessGrid, rank: int) -> "RankLayout":
        part = grid.partition(geometry.anchor_rows, geometry.anchor_cols, rank)
        if part.rows == 0 or part.cols == 0:
            raise ValueError(
                f"rank {rank} received an empty anchor block; use fewer processors "
                f"({grid.size}) for a {geometry.anchor_rows}x{geometry.anchor_cols} anchor grid"
            )
        half = geometry.half
        row_offset = part.row_start * half
        col_offset = part.col_start * half
        rows = (part.row_stop - part.row_start + 1) * half + 1
        cols = (part.col_stop - part.col_start + 1) * half + 1
        return cls(rank, part, row_offset, col_offset, (rows, cols))

    def to_local(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return rows - self.row_offset, cols - self.col_offset

    def local_anchors(self) -> list[tuple[int, int]]:
        """Anchors owned by the rank, expressed relative to the local field."""

        return [
            (r - self.part.row_start, c - self.part.col_start)
            for r in range(self.part.row_start, self.part.row_stop)
            for c in range(self.part.col_start, self.part.col_stop)
        ]

    def owned_row_range(self, geometry: MosaicGeometry) -> tuple[int, int]:
        """Global grid rows owned exclusively by this rank (for reductions)."""

        half = geometry.half
        start = self.part.row_start * half
        if self.part.row_stop == geometry.anchor_rows:
            stop = geometry.global_ny
        else:
            stop = self.part.row_stop * half
        return start, stop

    def owned_col_range(self, geometry: MosaicGeometry) -> tuple[int, int]:
        half = geometry.half
        start = self.part.col_start * half
        if self.part.col_stop == geometry.anchor_cols:
            stop = geometry.global_nx
        else:
            stop = self.part.col_stop * half
        return start, stop

    def owned_lattice(self, geometry: MosaicGeometry) -> np.ndarray:
        """Mask of the local field's lattice points this rank alone reduces over."""

        half = geometry.half
        rows = (np.arange(self.local_shape[0]) + self.row_offset) % half == 0
        cols = (np.arange(self.local_shape[1]) + self.col_offset) % half == 0
        (r0, r1), (c0, c1) = self.owned_row_range(geometry), self.owned_col_range(geometry)
        owned = np.zeros(self.local_shape, dtype=bool)
        owned[r0 - self.row_offset:r1 - self.row_offset,
              c0 - self.col_offset:c1 - self.col_offset] = True
        return owned & (rows[:, None] | cols[None, :])


# ---------------------------------------------------------------------------
# Halo exchange plan
# ---------------------------------------------------------------------------


def _owner_anchor(geometry: MosaicGeometry, row: int, col: int) -> tuple[int, int] | None:
    """Anchor whose centre lines produce the lattice value at global (row, col).

    Returns ``None`` for points on the global domain boundary (fixed Dirichlet
    data nobody computes).  For points produced by two overlapping anchors a
    canonical owner is chosen so sender and receiver agree.
    """

    half = geometry.half
    ny, nx = geometry.global_ny, geometry.global_nx
    if row == 0 or col == 0 or row == ny - 1 or col == nx - 1:
        return None
    on_lattice_row = row % half == 0
    on_lattice_col = col % half == 0
    if on_lattice_row and on_lattice_col:
        return row // half - 1, col // half - 1
    if on_lattice_row:
        anchor_row = row // half - 1
        anchor_col = min(col // half, geometry.anchor_cols - 1)
        return anchor_row, anchor_col
    if on_lattice_col:
        anchor_col = col // half - 1
        anchor_row = min(row // half, geometry.anchor_rows - 1)
        return anchor_row, anchor_col
    # Not on a lattice line: never part of the iterated state.
    return None


def _frame_points(geometry: MosaicGeometry, layout: RankLayout) -> np.ndarray:
    """Global (row, col) points on the outer frame of a rank's extent."""

    half = geometry.half
    r0 = layout.row_offset
    r1 = layout.row_offset + layout.local_shape[0] - 1
    c0 = layout.col_offset
    c1 = layout.col_offset + layout.local_shape[1] - 1
    points = []
    for col in range(c0, c1 + 1):
        points.append((r0, col))
        points.append((r1, col))
    for row in range(r0 + 1, r1):
        points.append((row, c0))
        points.append((row, c1))
    return np.asarray(points, dtype=int)


@dataclass
class HaloExchangePlan:
    """Per-rank halo exchange plan.

    ``sends[peer]`` / ``recvs[peer]`` hold local ``(rows, cols)`` index arrays
    of the values exchanged with ``peer`` every iteration.
    """

    sends: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    recvs: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def num_neighbors(self) -> int:
        return len(set(self.sends) | set(self.recvs))

    def bytes_per_iteration(self) -> int:
        sent = sum(rows.size for rows, _ in self.sends.values())
        received = sum(rows.size for rows, _ in self.recvs.values())
        return 8 * (sent + received)

    @classmethod
    def build(
        cls,
        geometry: MosaicGeometry,
        grid: ProcessGrid,
        layouts: list[RankLayout],
        rank: int,
    ) -> "HaloExchangePlan":
        """Derive the exchange plan for ``rank`` from anchor ownership."""

        plan = cls()
        my_layout = layouts[rank]
        anchor_rank = _anchor_rank_lookup(geometry, grid)

        # Receives: frame points of my extent owned by another rank.
        recv_by_peer: dict[int, list[tuple[int, int]]] = {}
        for row, col in _frame_points(geometry, my_layout):
            owner = _owner_anchor(geometry, int(row), int(col))
            if owner is None:
                continue
            peer = anchor_rank(owner)
            if peer != rank:
                recv_by_peer.setdefault(peer, []).append((int(row), int(col)))

        # Sends: frame points of each neighbour's extent owned by me.
        neighbor_ranks = set(grid.neighbors(rank).values())
        send_by_peer: dict[int, list[tuple[int, int]]] = {}
        for peer in neighbor_ranks:
            for row, col in _frame_points(geometry, layouts[peer]):
                owner = _owner_anchor(geometry, int(row), int(col))
                if owner is None:
                    continue
                if anchor_rank(owner) == rank:
                    send_by_peer.setdefault(peer, []).append((int(row), int(col)))

        for peer, points in recv_by_peer.items():
            arr = np.asarray(points, dtype=int)
            plan.recvs[peer] = my_layout.to_local(arr[:, 0], arr[:, 1])
        for peer, points in send_by_peer.items():
            arr = np.asarray(points, dtype=int)
            plan.sends[peer] = my_layout.to_local(arr[:, 0], arr[:, 1])
        return plan


def _anchor_rank_lookup(geometry: MosaicGeometry, grid: ProcessGrid):
    """Return a function mapping an anchor (row, col) to its owning rank."""

    row_bounds = [grid.partition(geometry.anchor_rows, geometry.anchor_cols, grid.rank_at(r, 0)).row_stop
                  for r in range(grid.rows)]
    col_bounds = [grid.partition(geometry.anchor_rows, geometry.anchor_cols, grid.rank_at(0, c)).col_stop
                  for c in range(grid.cols)]

    def lookup(anchor: tuple[int, int]) -> int:
        a_row, a_col = anchor
        p_row = int(np.searchsorted(row_bounds, a_row, side="right"))
        p_col = int(np.searchsorted(col_bounds, a_col, side="right"))
        return grid.rank_at(p_row, p_col)

    return lookup


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class DistributedMFPResult:
    """Per-rank result of a distributed MFP run (rank 0 carries the solution)."""

    rank: int
    world_size: int
    solution: np.ndarray | None
    iterations: int
    converged: bool
    deltas: list = field(default_factory=list)
    mae_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    comm_stats: dict = field(default_factory=dict)
    halo_bytes_per_iteration: int = 0


# ---------------------------------------------------------------------------
# The distributed predictor
# ---------------------------------------------------------------------------

#: guards every predictor's memo of rank plans
_PLANS_LOCK = threading.Lock()


def _fresh_plans_lock() -> None:
    # A forked rank reads the plans its parent built; a parent thread that
    # held the lock at the fork does not exist there.
    global _PLANS_LOCK
    _PLANS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_plans_lock)


class DistributedMosaicFlowPredictor:
    """Domain-parallel Mosaic Flow predictor (Algorithm 2).

    Parameters
    ----------
    geometry:
        Interface-lattice geometry of the global domain.
    solver_factory:
        Zero-argument callable producing a fresh :class:`SubdomainSolver` for
        each rank (keeps per-rank counters independent).
    ordering:
        Processor-to-grid mapping: ``"row"`` (paper) or ``"morton"``.
    init_mode:
        Lattice initialization mode.

    The block partition (:class:`RankLayout`) splits a rectangle's anchor
    grid, so a composite geometry is rejected here; it is solved by the
    single-process :class:`~repro.mosaic.MosaicFlowPredictor`.
    """

    def __init__(
        self,
        geometry: MosaicGeometry,
        solver_factory,
        ordering: str = "row",
        init_mode: str = "mean",
    ):
        if not geometry.is_rectangular:
            raise ValueError(
                "DistributedMosaicFlowPredictor partitions a rectangular anchor "
                "grid into rank blocks; this geometry's domain is not a rectangle"
            )
        self.geometry = geometry
        self.solver_factory = solver_factory
        self.ordering = ordering
        self.init_mode = init_mode
        #: world size -> per rank ``(RankLayout, HaloExchangePlan, LatticePlan)``
        self._plans: dict[int, list[tuple]] = {}

    def _rank_plans(self, world_size: int) -> list[tuple]:
        """Per rank ``(layout, halo plan, index plan)`` of ``world_size`` ranks.

        Built on first use and kept: no rank writes to them, so rank threads
        share them and forked ranks inherit them.
        """

        with _PLANS_LOCK:
            plans = self._plans.get(world_size)
            if plans is None:
                geometry = self.geometry
                grid = ProcessGrid(world_size, ordering=self.ordering)
                layouts = [RankLayout.build(geometry, grid, r) for r in range(world_size)]
                # The rank's share of the index plan: its own anchors by
                # global phase over the local field, the owned lattice points
                # as convergence vector.
                plans = self._plans[world_size] = [(
                    layout,
                    HaloExchangePlan.build(geometry, grid, layouts, layout.rank),
                    build_plan(
                        geometry, layout.local_anchors(),
                        origin=(layout.part.row_start, layout.part.col_start),
                        shape=layout.local_shape, lattice_mask=layout.owned_lattice(geometry),
                    ),
                ) for layout in layouts]
            return plans

    # -- driver ----------------------------------------------------------------

    def run(
        self,
        world_size: int,
        boundary_loop: np.ndarray,
        max_iterations: int = 200,
        tol: float = 1e-4,
        reference: np.ndarray | None = None,
        target_mae: float | None = None,
        check_interval: int = 1,
        timeout: float = 600.0,
    ) -> list[DistributedMFPResult]:
        """Run the predictor on ``world_size`` ranks, one forked process each.

        Returns the list of per-rank results; rank 0's entry carries the
        assembled global solution.  ``timeout`` bounds every communication
        wait of every rank.
        """

        # The session every rank builds, built once here so that a bad
        # budget, cadence, loop length or reference fails before any rank
        # starts; the rank plans too, so the forked ranks inherit them.
        reference = checked_reference(self.geometry, reference, target_mae)
        Session(self.geometry, np.asarray(boundary_loop, dtype=float)[None], tol,
                max_iterations, self.init_mode, check_interval)
        self._rank_plans(world_size)
        return fork_spmd(
            world_size,
            self.run_rank,
            args=(boundary_loop,),
            kwargs={
                "max_iterations": max_iterations,
                "tol": tol,
                "reference": reference,
                "target_mae": target_mae,
                "check_interval": check_interval,
            },
            timeout=timeout,
        )

    # -- per-rank program ----------------------------------------------------------

    def run_rank(
        self,
        comm: Communicator,
        boundary_loop: np.ndarray,
        max_iterations: int = 200,
        tol: float = 1e-4,
        reference: np.ndarray | None = None,
        target_mae: float | None = None,
        check_interval: int = 1,
    ) -> DistributedMFPResult:
        """SPMD body executed by every rank (usable directly under real MPI).

        :meth:`run` gives each rank a process of its own, so the ``mfp.rank``
        span roots a trace in that process (a thread world, ``run_spmd(w,
        predictor.run_rank, ...)``, roots one per rank thread).  The
        per-phase sections (boundaries IO, inference, sendrecv, convergence
        check, allgather, assembly) come back in the result's ``timings``
        dict, which only this rank touches.
        """

        with span("mfp.rank", rank=comm.rank, world=comm.size):
            geometry = self.geometry
            timings = {}
            tic = time.perf_counter()

            layout, plan, indices = self._rank_plans(comm.size)[comm.rank]
            solver = checked_solver(geometry, self.solver_factory())

            # The run's field is the global initial field cropped to this
            # rank's processor subdomain ("Boundaries IO" in the paper's
            # breakdown).
            boundary_loop = np.asarray(boundary_loop, dtype=float)
            run = LatticeRun([Session(
                geometry, boundary_loop[None], tol, max_iterations, self.init_mode, check_interval,
            )], plans=[indices])
            local = run.field(0)
            local_reference = 0.0
            if reference is not None:
                (row, col), (ny, nx) = indices.offset, indices.shape
                local_reference = np.asarray(reference)[
                    row:row + ny, col:col + nx].reshape(-1)[indices.lattice]
            timings["boundaries_io"] = time.perf_counter() - tic

            def solve(boundaries, points, _sessions=1):
                return solver.predict(boundaries, points)

            def exchange(iteration):
                # communicate_new_boundaries, after every update
                tic = time.perf_counter()
                for peer in sorted(plan.sends):
                    send_rows, send_cols = plan.sends[peer]
                    comm.send(local[send_rows, send_cols], peer, tag=iteration)
                for peer in sorted(plan.recvs):
                    recv_rows, recv_cols = plan.recvs[peer]
                    local[recv_rows, recv_cols] = comm.recv(peer, tag=iteration)
                elapsed = time.perf_counter() - tic
                timings["sendrecv"] = timings.get("sendrecv", 0.0) + elapsed

            # [Σstep², Σpast², Σ|current - reference|, points] over every
            # rank, allreduced at each check.  ``np.sum(x ** 2)`` rather than
            # ``x.dot(x)``: in a forked rank, an OpenBLAS ddot over more than
            # ~10,000 elements wakes BLAS threads that spin on the cores the
            # other ranks run on (two forked half-domain runs took 1.52-1.66 s
            # against 0.84 s with those threads off).
            totals = np.zeros(4)

            def reduce(current, past, step):
                totals[:] = comm.allreduce(np.array([
                    float(np.sum(step ** 2)), float(np.sum(past ** 2)),
                    float(np.sum(np.abs(current - local_reference))), float(current.size),
                ]), op=ReduceOp.SUM)
                return totals[0], totals[1]

            mae_history: list[tuple[int, float]] = []
            on_check = None
            if reference is not None:
                def on_check(_request, iteration, _lattice_values):
                    mae = float(totals[2] / totals[3])
                    mae_history.append((iteration, mae))
                    return target_mae is not None and mae < target_mae

            run.iterate(solve, on_check, exchange, reduce)
            for name, seconds in run.timings.items():
                timings[name] = timings.get(name, 0.0) + seconds
            outcome = run.results[0]

            # Dense assembly of the local anchors
            with timed(timings, "inference"):
                accumulator = np.zeros(layout.local_shape)
                accumulate(run.buffer, accumulator.reshape(-1), run.groups, solve)

            # Allgather and overlap averaging
            with timed(timings, "allgather"):
                payload = (
                    layout.row_offset,
                    layout.col_offset,
                    accumulator,
                    indices.counts,
                )
                gathered = comm.allgather(payload)

            solution = None
            if comm.rank == 0:
                with timed(timings, "assembly"):
                    global_sum = np.zeros((geometry.global_ny, geometry.global_nx))
                    global_count = np.zeros_like(global_sum)
                    for row_off, col_off, acc, cnt in gathered:
                        r = slice(row_off, row_off + acc.shape[0])
                        c = slice(col_off, col_off + acc.shape[1])
                        global_sum[r, c] += acc
                        global_count[r, c] += cnt
                    solution = overlap_average(global_sum, global_count)
                    solution = geometry.global_grid().insert_boundary(boundary_loop, solution)

            return DistributedMFPResult(
                rank=comm.rank,
                world_size=comm.size,
                solution=solution,
                iterations=outcome.iterations,
                converged=outcome.converged,
                deltas=outcome.deltas,
                mae_history=mae_history,
                timings=timings,
                comm_stats=comm.trace.as_dict(),
                halo_bytes_per_iteration=plan.bytes_per_iteration(),
            )
