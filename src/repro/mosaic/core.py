"""The one implementation of the Mosaic Flow lattice iteration (Algorithm 2).

Every predictor variant does the same thing per iteration: read the boundary
loops of one phase's subdomains off the lattice, call the subdomain solver,
write the centre lines back, and now and then compare the lattice with its
previous state.  Which grid points that touches depends only on the geometry,
so it is worked out once per geometry as a :class:`LatticePlan` of *flat*
indices and kept in a bounded cache (:data:`PLAN_CACHE`).

:class:`LatticeRun` runs the iteration and the dense assembly for any number
of requests over any mix of fusion-compatible geometries at once.  All fields
lie back to back in one 1-D buffer and the index arrays of the requests still
iterating are concatenated (rebuilt only when one retires), so an iteration
is one gather, one solver call, one scatter and one convergence check however
many requests take part.  A request's numbers never depend on its neighbours:
it runs the phase sequence of a standalone run from iteration 1, its change
is measured on its own lattice vector with its own tolerance, budget and
check cadence, and once it stops its part of the buffer is left alone.  It
has three drivers: :class:`~repro.mosaic.predictor.MosaicFlowPredictor` runs
one request, the server (:func:`repro.serving.compute.lattice_run`) hands it
the sessions of every batch it fuses, and each rank of
:class:`~repro.mosaic.distributed.DistributedMosaicFlowPredictor` runs one
request over the plan of its own block, exchanging halos after each scatter
and allreducing the sums of each check.  The core's iteration opens no
tracing span; spans are the drivers', and :func:`timed` is how a driver
times one of its sections into a ``timings`` dict under a span.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..obs import memory as obs_memory
from ..obs.trace import span
from .geometry import PHASE_OFFSETS, MosaicGeometry

__all__ = [
    "ASSEMBLY_CHUNK", "LatticeOutcome", "LatticePlan", "LatticeRun", "PLAN_CACHE", "PlanCache",
    "Session", "accumulate", "build_plan", "checked_reference", "checked_solver",
    "initialize_lattice_field", "overlap_average", "timed",
]

PHASES = len(PHASE_OFFSETS)
#: anchors per request carried by one dense-assembly solver call
ASSEMBLY_CHUNK = 256


def initialize_lattice_field(
    geometry: MosaicGeometry,
    boundary_loop: np.ndarray,
    mode: str = "mean",
) -> np.ndarray:
    """Initial global field: exact Dirichlet data, interior filled by ``mode``.

    ``mode`` is ``"mean"`` (interior set to the boundary mean, the default),
    ``"zero"``, or ``"linear"`` (bilinear blend of the four edges — a cheap
    but effective warm start, rectangular domains only).

    On a composite domain the Dirichlet data follows the re-entrant boundary
    loop and only grid points inside the domain are filled (the rest stay
    zero).
    """

    boundary_loop = np.asarray(boundary_loop, dtype=float)
    field_array = geometry.insert_global_boundary(boundary_loop)
    if mode == "mean":
        field_array[geometry.interior_mask()] = float(boundary_loop.mean())
    elif mode == "linear":
        if not geometry.is_rectangular:
            raise ValueError(
                "init mode 'linear' (Coons patch of the four edges) is only "
                "defined on rectangular domains; use 'mean' or 'zero' for "
                "composite domains"
            )
        # Transfinite (Coons) interpolation of the four edges.
        bottom, top = field_array[0, :], field_array[-1, :]
        left, right = field_array[:, 0], field_array[:, -1]
        s = np.linspace(0.0, 1.0, geometry.global_nx)[None, :]
        t = np.linspace(0.0, 1.0, geometry.global_ny)[:, None]
        blend = (
            (1 - t) * bottom[None, :]
            + t * top[None, :]
            + (1 - s) * left[:, None]
            + s * right[:, None]
            - (1 - s) * (1 - t) * field_array[0, 0]
            - s * (1 - t) * field_array[0, -1]
            - (1 - s) * t * field_array[-1, 0]
            - s * t * field_array[-1, -1]
        )
        field_array[1:-1, 1:-1] = blend[1:-1, 1:-1]
    elif mode != "zero":  # "zero" is what insert_global_boundary starts from
        raise ValueError("mode must be 'mean', 'zero' or 'linear'")
    return field_array


def overlap_average(accumulator: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Average accumulated predictions where subdomains overlap."""

    result = np.zeros_like(accumulator)
    mask = counts > 0
    result[mask] = accumulator[mask] / counts[mask]
    return result


@contextmanager
def timed(timings: dict, name: str):
    """Add the seconds a ``with`` section takes to ``timings[name]``.

    The section also runs under a tracing span of the same name.
    """

    with span(name):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            timings[name] = timings.get(name, 0.0) + elapsed


def checked_solver(geometry, solver):
    """``solver`` if it fits ``geometry``'s subdomains."""

    expected = geometry.subdomain_grid().boundary_size
    if solver.boundary_size != expected:
        raise ValueError(
            f"solver boundary size {solver.boundary_size} does not match the "
            f"geometry's subdomain boundary size {expected}"
        )
    return solver


def checked_reference(geometry, reference, target_mae):
    """``reference`` as an array if it covers ``geometry``'s global grid.

    ``target_mae`` stops a run on the MAE against ``reference``, so it is
    refused without one.
    """

    if reference is None:
        if target_mae is not None:
            raise ValueError("target_mae needs a reference solution to measure the MAE against")
        return None
    reference = np.asarray(reference)
    expected = (geometry.global_ny, geometry.global_nx)
    if reference.shape != expected:
        raise ValueError(
            f"reference must have the global grid's shape {expected}, got {reference.shape}")
    return reference


# -- index plans ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LatticePlan:
    """Flat (raveled-field) indices of one lattice field; every array is read-only.

    ``reads[p]`` / ``writes[p]`` index phase ``p``'s boundary loops and centre
    lines, one row per subdomain.  ``offset`` is the global grid point of the
    field's corner: ``(0, 0)`` unless the plan is a rank's block.  The dense
    assembly builds its indices per chunk from ``windows`` (every anchor's
    corner, in assembly order) and the two offset vectors, so a plan stays
    small next to the field.
    """

    shape: tuple
    offset: tuple
    reads: tuple
    writes: tuple
    phase_has_anchors: tuple     # over the whole geometry, also in a rank's plan
    lattice: np.ndarray          # the convergence vector
    windows: np.ndarray
    loop_offsets: np.ndarray
    interior_offsets: np.ndarray
    counts: np.ndarray           # subdomains covering each grid point, ``shape``d
    center_coords: np.ndarray    # local query coordinates: one array object per
    interior_coords: np.ndarray  # subdomain grid, whatever the geometry
    size: int                    # points of the field
    nbytes: int


@lru_cache(maxsize=16)
def _subdomain_arrays(points: int, extent: float) -> tuple:
    """Local index pairs and query coordinates, which the subdomain grid alone fixes."""

    box = MosaicGeometry(points, extent, 2, 2)
    arrays = (
        *box.boundary_loop_local_indices(), *box.center_line_local_indices(),
        *box.interior_local_indices(),
        box.center_line_local_coordinates(), box.interior_local_coordinates(),
    )
    for array in arrays:
        array.setflags(write=False)
    return arrays


def build_plan(geometry, anchors=None, origin=(0, 0), shape=None, lattice_mask=None) -> LatticePlan:
    """Index plan of ``geometry``, or of the part of it one rank holds.

    The defaults describe the global field.  A rank passes the anchors it
    owns relative to its local field (in the order its assembly visits them),
    the anchor-lattice position ``origin`` of that field (which fixes the
    anchors' phases), the local ``shape`` and the mask of lattice points it
    owns for the convergence reduction.
    """

    brow, bcol, crow, ccol, irow, icol, center, interior = _subdomain_arrays(
        geometry.subdomain_points, geometry.subdomain_extent
    )
    ny, nx = (geometry.global_ny, geometry.global_nx) if shape is None else shape
    anchors = geometry.anchors() if anchors is None else anchors
    lattice_mask = geometry.lattice_mask() if lattice_mask is None else lattice_mask
    anchor_array = np.asarray(anchors, dtype=np.intp).reshape(-1, 2)
    rows, cols = anchor_array[:, 0], anchor_array[:, 1]
    windows = rows * (geometry.half * nx) + cols * geometry.half
    loop_offsets, interior_offsets = brow * nx + bcol, irow * nx + icol
    reads, writes = [], []
    for dr, dc in PHASE_OFFSETS:
        mine = windows[((rows + origin[0]) % 2 == dr) & ((cols + origin[1]) % 2 == dc)]
        reads.append(mine[:, None] + loop_offsets)
        writes.append(mine[:, None] + (crow * nx + ccol))
    counts = np.zeros(ny * nx)
    covered = np.concatenate([loop_offsets, interior_offsets])
    for start in range(0, len(windows), ASSEMBLY_CHUNK):
        chunk = windows[start:start + ASSEMBLY_CHUNK, None] + covered
        counts += np.bincount(chunk.ravel(), minlength=ny * nx)
    lattice, counts = np.flatnonzero(lattice_mask), counts.reshape(ny, nx)
    arrays = (*reads, *writes, lattice, windows, loop_offsets, interior_offsets, counts)
    for array in arrays:
        array.setflags(write=False)
    return LatticePlan(
        shape=(int(ny), int(nx)), offset=(origin[0] * geometry.half, origin[1] * geometry.half),
        reads=tuple(reads), writes=tuple(writes),
        phase_has_anchors=tuple(
            bool(geometry.anchors_for_phase(phase)) for phase in range(PHASES)),
        lattice=lattice, windows=windows, loop_offsets=loop_offsets,
        interior_offsets=interior_offsets, counts=counts, center_coords=center,
        interior_coords=interior, size=int(ny * nx),
        nbytes=sum(array.nbytes for array in arrays),
    )


class PlanCache:
    """Bounded LRU of whole-geometry plans, keyed by the frozen geometry itself.

    Plans are built outside the lock; of two threads that miss on one geometry
    both get the plan that survives.  Live plan bytes are charged to
    :data:`repro.obs.memory.LATTICE_PLANS`.
    """

    def __init__(self, capacity: int = 32):
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._plans: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, geometry) -> LatticePlan:
        with self._lock:
            plan = self._plans.get(geometry)
            if plan is not None:
                self._plans.move_to_end(geometry)
                return plan
        built = build_plan(geometry)
        with self._lock:
            plan = self._plans.setdefault(geometry, built)
            if plan is built:
                obs_memory.add(obs_memory.LATTICE_PLANS, built.nbytes)
                while len(self._plans) > self.capacity:
                    _, evicted = self._plans.popitem(last=False)
                    obs_memory.sub(obs_memory.LATTICE_PLANS, evicted.nbytes)
        return plan


#: the process-wide plan cache every driver goes through
PLAN_CACHE = PlanCache()
# A process forked while another thread held the lock (a serving worker's
# compute process) would wait on it forever: the child gets a fresh one.
os.register_at_fork(after_in_child=lambda: setattr(PLAN_CACHE, "_lock", threading.Lock()))


def accumulate(buffer: np.ndarray, total: np.ndarray, groups, predict) -> None:
    """Add every subdomain's dense prediction and boundary loop into ``total``.

    ``groups`` holds one ``(plan, bases)`` per session: the offsets of its
    requests' fields in the flat ``buffer`` / ``total``.  Call ``k`` takes
    anchors ``[k * ASSEMBLY_CHUNK, (k + 1) * ASSEMBLY_CHUNK)`` of every
    request of every group that still has some, in plan order, predictions
    first and loops second: the accumulation order per grid point of a
    standalone run.  This is the one dense assembly (Algorithm 2, lines
    10-12): :meth:`LatticeRun.outcomes` and each distributed rank call it.
    """

    call, chunk = 0, ASSEMBLY_CHUNK
    while True:
        parts = []
        for plan, bases in groups:
            windows = plan.windows[call * chunk:(call + 1) * chunk]
            if windows.size:
                corners = (bases[:, None] + windows).reshape(-1, 1)
                parts.append((corners + plan.loop_offsets, corners + plan.interior_offsets))
        if not parts:
            return
        loops_at, interiors_at = (np.concatenate(side) for side in zip(*parts))
        boundaries = buffer[loops_at]
        predictions = predict(boundaries, groups[0][0].interior_coords, len(parts))
        np.add.at(total, interiors_at, predictions)
        np.add.at(total, loops_at, boundaries)
        call += 1


# -- the iteration -------------------------------------------------------------------


@dataclass
class Session:
    """Requests on one geometry that share an initialisation and a check cadence.

    ``loops`` is stored as a float ``(B, global boundary size)`` array and a
    scalar ``tols`` or ``budgets`` is broadcast to every request.  The dense
    assembly carries :data:`ASSEMBLY_CHUNK` anchors per request per solver
    call whatever the session.
    """

    geometry: MosaicGeometry
    loops: np.ndarray       # (B, global boundary size)
    tols: np.ndarray        # (B,)
    budgets: np.ndarray     # (B,) iteration budgets
    init_mode: str = "mean"
    check_interval: int = 1

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        size = self.geometry.global_boundary_size
        self.loops = np.asarray(self.loops, dtype=float)
        if self.loops.ndim != 2 or self.loops.shape[1] != size:
            raise ValueError(
                f"boundary loops must have shape (B, {size}), got {self.loops.shape}")
        count = len(self.loops)
        self.tols = self._per_request("tols", np.asarray(self.tols, dtype=float), count)
        self.budgets = self._per_request("budgets", np.asarray(self.budgets, dtype=int), count)
        if np.any(self.budgets < 1):
            raise ValueError("max_iterations must be at least 1")

    @staticmethod
    def _per_request(name: str, values: np.ndarray, count: int) -> np.ndarray:
        if values.ndim > 1 or (values.ndim == 1 and len(values) != count):
            raise ValueError(
                f"{name} must be a scalar or hold one value per loop ({count}), "
                f"got shape {values.shape}")
        return np.broadcast_to(values, (count,))


@dataclass
class LatticeOutcome:
    """What the run of one request produced."""

    solution: np.ndarray
    lattice_field: np.ndarray
    iterations: int
    converged: bool
    deltas: list = field(default_factory=list)


class LatticeRun:
    """Algorithm 2 for every request of ``sessions`` in one flat buffer.

    ``predict(boundaries, points, sessions)`` answers every solver call; its
    third argument is how many sessions contributed rows.  ``results`` holds
    one :class:`LatticeOutcome` per request in session order, filled in as the
    run proceeds.  ``timings`` accumulates the predictor's ``boundaries_io``
    / ``inference`` / ``convergence_check`` sections.  No sessions make an
    empty run: nothing iterates and :meth:`outcomes` returns ``[]``.

    ``plans`` (one per session, default the cached whole-geometry plans) lets
    a distributed rank run on the plan of its block: each field is the
    session's initial field cropped at the plan's offset.
    """

    def __init__(self, sessions: list[Session], plans=None):
        self.sessions = sessions
        if plans is None:
            plans = [PLAN_CACHE.get(session.geometry) for session in sessions]
        self.center_coords = plans[0].center_coords if plans else None
        for plan in plans[1:]:
            if not (np.array_equal(plan.center_coords, self.center_coords)
                    and np.array_equal(plan.interior_coords, plans[0].interior_coords)):
                raise ValueError(
                    "mega-batched sessions disagree on query coordinates; "
                    "their geometries are not fusion-compatible"
                )
        #: per request: owning session, plan, offset of its field in the buffer
        self.owner = [index for index, session in enumerate(sessions) for _ in session.loops]
        self.plans = [plans[index] for index in self.owner]
        self.bases = np.cumsum([0] + [plan.size for plan in self.plans]).tolist()
        self.tols = [float(tol) for session in sessions for tol in session.tols]
        self.budgets = [int(budget) for session in sessions for budget in session.budgets]
        self.every = [sessions[index].check_interval for index in self.owner]
        self.groups = [
            (plan, np.array([b for b, o in zip(self.bases, self.owner) if o == index],
                            dtype=np.intp))
            for index, plan in enumerate(plans)
        ]
        self.buffer = np.empty(self.bases.pop())
        loops = (loop for session in sessions for loop in session.loops)
        for request, (owner, loop) in enumerate(zip(self.owner, loops)):
            (row, col), (ny, nx) = self.plans[request].offset, self.plans[request].shape
            initial = initialize_lattice_field(
                sessions[owner].geometry, loop, sessions[owner].init_mode)
            self.field(request)[...] = initial[row:row + ny, col:col + nx]
        self.results = [
            LatticeOutcome(None, self.field(r), 0, False, []) for r in range(len(self.plans))]
        self.timings = {"boundaries_io": 0.0, "inference": 0.0, "convergence_check": 0.0}

    def field(self, request: int) -> np.ndarray:
        """The request's lattice field, a 2-D view of the flat buffer."""

        plan, base = self.plans[request], self.bases[request]
        return self.buffer[base:base + plan.size].reshape(plan.shape)

    def _phase_indices(self, active, phase):
        plans, bases = self.plans, self.bases
        reads = np.concatenate([bases[r] + plans[r].reads[phase] for r in active])
        writes = np.concatenate([bases[r] + plans[r].writes[phase] for r in active])
        sessions = len({self.owner[r] for r in active if plans[r].reads[phase].size})
        return reads, writes, sessions

    def _lattice_indices(self, due):
        parts = [self.bases[r] + self.plans[r].lattice for r in due]
        bounds = np.cumsum([0] + [part.size for part in parts]).tolist()
        return np.concatenate(parts), bounds

    def iterate(self, predict, on_check=None, exchange=None, reduce=None) -> None:
        """Iterate every request until it converges or its budget runs out.

        ``on_check(request, iteration, lattice_values) -> bool``, when given,
        runs at each of a request's convergence checks and may stop it (the
        predictor's reference-MAE criterion).  A distributed rank passes the
        other two: ``exchange(iteration)`` runs after every scatter (its halo
        exchange), and ``reduce(current, past, step)`` turns a request's
        lattice vectors at a check into ``(step.step, past.past)`` (its
        allreduce).
        """

        buffer, timings, clock = self.buffer, self.timings, time.perf_counter
        tols, budgets, every = self.tols, self.budgets, self.every
        # Each request's lattice values at its last check.  The last check's
        # ``current`` is kept aside (``checked``) and written back only when
        # a check of other requests follows.
        previous = buffer.copy()
        checked_due, checked_lattice, checked = None, None, None
        every_check = all(interval == 1 for interval in every)
        active = tuple(range(len(self.plans)))
        cache: dict = {}  # index arrays of the active set; dropped when it shrinks
        for iteration in range(1, max(budgets, default=0) + 1):
            if not active:
                break
            phase = (iteration - 1) % PHASES
            tic = clock()
            indices = cache.get(phase)
            if indices is None:
                indices = cache[phase] = self._phase_indices(active, phase)
            reads, writes, sessions = indices
            if reads.size:
                boundaries = buffer[reads]
                toc = clock()
                predictions = predict(boundaries, self.center_coords, sessions)
                spent = clock() - toc
                timings["inference"] += spent
                tic += spent  # boundaries_io is the gather and scatter around it
                buffer[writes] = predictions
            toc = clock()
            timings["boundaries_io"] += toc - tic
            if exchange is not None:
                exchange(iteration)
                toc = clock()

            due = active if every_check else tuple(
                r for r in active if iteration % every[r] == 0)
            if due:
                indices = cache.get(due)
                if indices is None:
                    indices = cache[due] = self._lattice_indices(due)
                lattice, bounds = indices
                current = buffer[lattice]
                if due == checked_due:
                    before = checked
                else:
                    if checked_due is not None:
                        previous[checked_lattice] = checked
                    before = previous[lattice]
                checked_due, checked_lattice, checked = due, lattice, current
                change = current - before
                for position, request in enumerate(due):
                    lo, hi = bounds[position], bounds[position + 1]
                    past, step = before[lo:hi], change[lo:hi]
                    if reduce is None:
                        # The 1-D ``np.linalg.norm`` of a standalone run, spelled
                        # out: sqrt(x.x) on the request's own lattice vector.
                        step_sq, past_sq = step.dot(step), past.dot(past)
                    else:
                        step_sq, past_sq = reduce(current[lo:hi], past, step)
                    scale = math.sqrt(past_sq)
                    delta = math.sqrt(step_sq) / (scale if scale > 0 else 1.0)
                    result = self.results[request]
                    result.deltas.append(delta)
                    if on_check is not None and on_check(request, iteration, current[lo:hi]):
                        result.converged = True
                    # A tolerance stop needs a phase since the last check
                    # that processed anchors: an all-empty window (thin
                    # lattices) has delta exactly 0 without any progress.
                    has_anchors = self.plans[request].phase_has_anchors
                    if delta < tols[request] and iteration >= PHASES and any(
                        has_anchors[(it - 1) % PHASES]
                        for it in range(iteration - every[request] + 1, iteration + 1)
                    ):
                        result.converged = True
                timings["convergence_check"] += clock() - toc
            retiring = {r for r in active if self.results[r].converged or iteration >= budgets[r]}
            if retiring:
                for request in retiring:
                    self.results[request].iterations = iteration
                active = tuple(r for r in active if r not in retiring)
                cache.clear()

    def outcomes(self, predict=None) -> list[list[LatticeOutcome]]:
        """Per-session lists of the results, dense solutions filled in.

        A solution is the overlap average of every subdomain's dense
        prediction with the exact Dirichlet data restored; without ``predict``
        the assembly is skipped and it is a copy of the lattice field.
        """

        if predict is not None:
            total = np.zeros_like(self.buffer)
            accumulate(self.buffer, total, self.groups, predict)
        grouped: list[list[LatticeOutcome]] = [[] for _ in self.sessions]
        loops = (loop for session in self.sessions for loop in session.loops)
        for request, (owner, loop) in enumerate(zip(self.owner, loops)):
            plan, base, result = self.plans[request], self.bases[request], self.results[request]
            result.solution = result.lattice_field.copy() if predict is None else (
                self.sessions[owner].geometry.insert_global_boundary(
                    loop, overlap_average(total[base:base + plan.size].reshape(plan.shape),
                                          plan.counts)))
            grouped[owner].append(result)
        return grouped
