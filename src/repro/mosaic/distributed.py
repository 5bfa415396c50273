"""Distributed Mosaic Flow predictor (Algorithm 2 of the paper).

The global domain is partitioned over a 2-D processor grid: each rank owns a
contiguous block of atomic-subdomain anchors and stores the part of the
interface lattice its subdomains touch (its *processor subdomain*, which
overlaps its neighbours' by half a subdomain).  Every iteration a rank

1. updates the centre lines of its own anchors for the current phase,
   applying updates immediately within the rank (as in the baseline), then
2. exchanges with its (up to eight) neighbours the lattice values the
   neighbours need but do not compute themselves — the *relaxed
   synchronization* of Section 4.2: cross-rank information only propagates
   once per iteration, so some halo values are one iteration stale, and
3. checks the relative-change (and optionally MAE) stopping criteria with an
   allreduce.

After the iteration loop every rank densely predicts its own subdomains,
the per-rank accumulators are allgathered and overlapping predictions are
averaged (Algorithm 2 lines 10-12).

The communication plan (which points go to which neighbour) is derived
programmatically from anchor ownership, so the same code handles interior
ranks, edge ranks and corner ranks, arbitrary processor-grid shapes and the
row-scan or Morton rank orderings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..distributed.cartesian import BlockPartition, ProcessGrid
from ..distributed.comm import Communicator, ReduceOp
from ..distributed.simulated import run_spmd
from ..obs.trace import span
from ..utils.timer import Timings
from .core import (
    ASSEMBLY_CHUNK,
    PHASES,
    accumulate,
    build_plan,
    initialize_lattice_field,
    overlap_average,
)
from .geometry import MosaicGeometry
from .solvers import SubdomainSolver

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
    batched:
        Batch each phase's subdomains into one solver call per rank.
    init_mode:
        Lattice initialization mode.

    The block partition (:class:`RankLayout`) splits a rectangle's anchor
    grid, so a composite geometry is rejected here; its dense assembly can
    be sharded with :func:`repro.domains.sharded_assemble`.
    """

    def __init__(
        self,
        geometry: MosaicGeometry,
        solver_factory,
        ordering: str = "row",
        batched: bool = True,
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
        self.batched = bool(batched)
        self.init_mode = init_mode

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
        """Run the predictor on a simulated cluster of ``world_size`` ranks.

        Returns the list of per-rank results; rank 0's entry carries the
        assembled global solution.
        """

        if check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        return run_spmd(
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

        Each rank runs on its own thread, so the ``mfp.rank`` span roots that
        thread's trace; the per-phase sections (boundaries IO, inference,
        sendrecv, convergence check, allgather, assembly) are accumulated in
        a thread-safe :class:`~repro.utils.timer.Timings` and returned as the
        result's ``timings`` dict.
        """

        with span("mfp.rank", rank=comm.rank, world=comm.size):
            return self._run_rank_impl(
                comm, boundary_loop, max_iterations=max_iterations, tol=tol,
                reference=reference, target_mae=target_mae,
                check_interval=check_interval,
            )

    def _run_rank_impl(
        self,
        comm: Communicator,
        boundary_loop: np.ndarray,
        max_iterations: int = 200,
        tol: float = 1e-4,
        reference: np.ndarray | None = None,
        target_mae: float | None = None,
        check_interval: int = 1,
    ) -> DistributedMFPResult:
        geometry = self.geometry
        timings = Timings()
        tic = time.perf_counter()

        grid = ProcessGrid(comm.size, ordering=self.ordering)
        layouts = [RankLayout.build(geometry, grid, r) for r in range(comm.size)]
        layout = layouts[comm.rank]
        plan = HaloExchangePlan.build(geometry, grid, layouts, comm.rank)
        solver = self.solver_factory()
        expected = geometry.subdomain_grid().boundary_size
        if solver.boundary_size != expected:
            raise ValueError(
                f"solver boundary size {solver.boundary_size} != subdomain boundary {expected}"
            )

        # Local field: slice of the global initial field covering this rank's
        # processor subdomain ("Boundaries IO" in the paper's breakdown).
        boundary_loop = np.asarray(boundary_loop, dtype=float)
        global_init = initialize_lattice_field(geometry, boundary_loop, self.init_mode)
        rows = slice(layout.row_offset, layout.row_offset + layout.local_shape[0])
        cols = slice(layout.col_offset, layout.col_offset + layout.local_shape[1])
        local = global_init[rows, cols].copy()
        local_reference = None if reference is None else np.asarray(reference)[rows, cols]
        timings["boundaries_io"] = time.perf_counter() - tic

        # Owned (exclusive) region of the local field, for global reductions.
        owned_r = layout.owned_row_range(geometry)
        owned_c = layout.owned_col_range(geometry)
        owned_rows = slice(owned_r[0] - layout.row_offset, owned_r[1] - layout.row_offset)
        owned_cols = slice(owned_c[0] - layout.col_offset, owned_c[1] - layout.col_offset)
        half = geometry.half
        lattice_mask_local = np.zeros(layout.local_shape, dtype=bool)
        lattice_mask_local[(np.arange(layout.local_shape[0]) + layout.row_offset) % half == 0, :] = True
        lattice_mask_local[:, (np.arange(layout.local_shape[1]) + layout.col_offset) % half == 0] = True
        owned_lattice = np.zeros_like(lattice_mask_local)
        owned_lattice[owned_rows, owned_cols] = lattice_mask_local[owned_rows, owned_cols]

        # The rank's share of the index plan: its own anchors by global phase
        # over the local field, the owned lattice points as convergence
        # vector.  ``flat`` aliases ``local``.
        indices = build_plan(
            geometry, layout.local_anchors(),
            origin=(layout.part.row_start, layout.part.col_start),
            shape=layout.local_shape, lattice_mask=owned_lattice,
        )
        flat = local.reshape(-1)
        if local_reference is not None:
            local_reference = np.ascontiguousarray(local_reference).reshape(-1)[indices.lattice]

        previous = flat[indices.lattice]
        deltas: list[float] = []
        mae_history: list[tuple[int, float]] = []
        converged = False
        iterations = 0

        for iteration in range(1, max_iterations + 1):
            phase = (iteration - 1) % PHASES
            reads, writes = indices.reads[phase], indices.writes[phase]
            iterations = iteration

            # (1) local subdomain inference and immediate updates
            if reads.size:
                tic = time.perf_counter()
                loops = flat[reads]
                timings["boundaries_io"] = timings.get("boundaries_io", 0.0) + time.perf_counter() - tic

                tic = time.perf_counter()
                if self.batched:
                    predictions = solver.predict(loops, indices.center_coords)
                else:
                    predictions = np.empty((loops.shape[0], indices.center_coords.shape[0]))
                    for i in range(loops.shape[0]):
                        predictions[i] = solver.predict(loops[i: i + 1], indices.center_coords)[0]
                timings["inference"] = timings.get("inference", 0.0) + time.perf_counter() - tic

                tic = time.perf_counter()
                flat[writes] = predictions
                timings["boundaries_io"] = timings.get("boundaries_io", 0.0) + time.perf_counter() - tic

            # (2) halo exchange: communicate_new_boundaries
            tic = time.perf_counter()
            for peer in sorted(plan.sends):
                send_rows, send_cols = plan.sends[peer]
                comm.send(local[send_rows, send_cols].copy(), peer, tag=iteration)
            for peer in sorted(plan.recvs):
                recv_rows, recv_cols = plan.recvs[peer]
                values = comm.recv(peer, tag=iteration)
                local[recv_rows, recv_cols] = values
            timings["sendrecv"] = timings.get("sendrecv", 0.0) + time.perf_counter() - tic

            # (3) convergence checks
            if iteration % check_interval == 0:
                tic = time.perf_counter()
                current = flat[indices.lattice]
                local_stats = np.array(
                    [
                        float(np.sum((current - previous) ** 2)),
                        float(np.sum(previous ** 2)),
                        float(np.sum(np.abs(current - (local_reference if local_reference is not None else 0.0)))),
                        float(current.size),
                    ]
                )
                global_stats = comm.allreduce(local_stats, op=ReduceOp.SUM)
                previous = current
                denom = np.sqrt(global_stats[1]) if global_stats[1] > 0 else 1.0
                delta = float(np.sqrt(global_stats[0]) / denom)
                deltas.append(delta)
                if reference is not None:
                    mae = float(global_stats[2] / global_stats[3])
                    mae_history.append((iteration, mae))
                    if target_mae is not None and mae < target_mae:
                        converged = True
                # As in the single-process predictor: a tolerance stop needs
                # a phase that processed anchors (globally) since the last
                # check, so all-empty windows never fake convergence.
                window_active = any(
                    indices.phase_has_anchors[(it - 1) % PHASES]
                    for it in range(iteration - check_interval + 1, iteration + 1)
                )
                if delta < tol and iteration >= PHASES and window_active:
                    converged = True
                timings["convergence_check"] = (
                    timings.get("convergence_check", 0.0) + time.perf_counter() - tic
                )
                if converged:
                    break

        # (4) dense assembly of the local anchors
        with timings.measure("inference"):
            accumulator = np.zeros(layout.local_shape)
            accumulate(
                flat, accumulator.reshape(-1),
                [(indices, np.zeros(1, dtype=np.intp), ASSEMBLY_CHUNK)],
                lambda boundaries, points, _sessions: solver.predict(boundaries, points),
            )

        # (5) allgather and overlap averaging
        with timings.measure("allgather"):
            payload = (
                layout.row_offset,
                layout.col_offset,
                accumulator,
                indices.counts,
            )
            gathered = comm.allgather(payload)

        solution = None
        if comm.rank == 0:
            with timings.measure("assembly"):
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
            iterations=iterations,
            converged=converged,
            deltas=deltas,
            mae_history=mae_history,
            timings=timings.as_dict(),
            comm_stats=comm.trace.as_dict(),
            halo_bytes_per_iteration=plan.bytes_per_iteration(),
        )
