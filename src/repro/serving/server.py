"""Async serving front-end for Mosaic Flow solves.

``Server`` is the front door of the serving subsystem.  Since the async
rebuild it is a request *pipeline*:

* :meth:`~Server.submit_async` is non-blocking: it validates the request,
  runs per-tenant admission control, claims the request's canonical key in
  the idempotent :class:`~repro.serving.store.RequestStore` (duplicate
  submissions attach to the in-flight solve, completed keys replay their
  stored result), consults the LRU
  :class:`~repro.serving.cache.SolutionCache`, enqueues cache misses into
  the per-geometry :class:`~repro.serving.batcher.DynamicBatcher`, and
  returns a :class:`~repro.serving.futures.SolveFuture` immediately;
* a background **dispatcher thread** (``async_workers >= 1`` +
  :meth:`~Server.start`) hands released work to the **solve workers**.  A
  run is formed only when a worker is idle: with ``k`` workers idle,
  everything queued (``Batch.reason == "idle"``) is split into ``k``
  partitions balanced by predicted rows (subdomains x budget, largest
  first; requests the in-batch dedup merges stay together), one per idle
  worker.  So no more runs are in flight than there are workers, and what
  arrives while every worker is busy queues until one finishes, which
  wakes the dispatcher.  ``BatchPolicy.max_wait_seconds`` therefore never
  delays a started server.  Each partition runs one way: its batches are
  grouped by fusion compatibility and each group — one batch or several —
  is one :class:`~repro.mosaic.core.LatticeRun`
  (:class:`~repro.serving.megabatch.MegaBatchExecutor`) over shared solver
  calls, each request bitwise equal to its standalone run.  Only groups
  with queued requests keep a batcher, so a dispatcher pass costs what is
  waiting, not what was ever served;
* with two or more workers, each worker computes in its own **forked
  process** (:class:`~repro.serving.compute.ComputeProcess`, forked in
  :meth:`~Server.start`), so two runs really execute at once; two threads
  of one interpreter took twice as long each on the small SDNet forward.
  The worker thread keeps everything but the arithmetic — admission,
  store, journal, batcher, retries, breakers, fault sites, supervision and
  delivery — and sends each attempt's prepared sessions over a pipe.  A
  process that dies raises :class:`~repro.serving.faults.WorkerDeath` in
  its worker thread (requeue or supervised failure, as below) and the
  worker forks a replacement; :meth:`close` stops and joins them, and
  :meth:`health` lists each one (pid, alive, runs, peak RSS).  The sync
  path and a single worker compute in the calling thread: one worker has
  no partner to run beside, and the pipe costs about a millisecond a run;
* batch execution is fault-tolerant: failed solves are retried with capped
  exponential backoff (``max_retries``/``retry_backoff_seconds``), requests
  whose deadline has passed fail fast with
  :class:`~repro.serving.futures.DeadlineExceededError`, retry exhaustion
  surfaces :class:`~repro.serving.futures.RetryExhaustedError`, and
  per-tenant quotas shed load with
  :class:`~repro.serving.futures.QuotaExceededError` instead of queueing
  unboundedly;
* every robustness path is deterministically testable through the
  flag-guarded :class:`~repro.serving.faults.FaultInjector` hooks at the
  worker-call, batch-assembly and store boundaries — plus the process-level
  sites (worker death, heartbeat loss, torn journal write) — and a real
  ``SIGKILL`` of a worker process takes the same requeue path;
* with a ``journal`` the request store is **durable** (write-ahead
  claim/complete/fail records; a restarted server replays completed keys
  bitwise-identically and re-runs interrupted claims exactly once), with a
  ``supervisor`` crashed/hung workers are detected and their in-flight
  requests requeued exactly-once, and per-backend **circuit breakers**
  convert repeated solver failures into fast
  :class:`~repro.serving.futures.CircuitOpenError` rejections;
* under memory pressure (a budgeted :mod:`repro.obs.memory` accountant)
  admission sheds lowest-priority tenants first, and
  :meth:`~Server.drain_and_close` shuts down gracefully: refuse intake,
  finish in-flight work, compact the journal.

The synchronous API is a thin wrapper over the same pipeline: without a
dispatcher, :meth:`~Server.submit` is ``submit_async`` plus an inline
:meth:`~Server.pump` of whatever batches were released by size or deadline
(the idle release needs a started dispatcher, so a sync server on an
injected clock waits its window out), and
:meth:`~Server.drain` flushes, executes (inline or by waiting on the worker
pool) and returns the completed results — so the sync path and the async
path run the identical batching, dedup, solve and postprocess code and are
bitwise-identical for the same request set.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..mosaic.geometry import MosaicGeometry
from ..mosaic.solvers import FDSubdomainSolver
from ..obs import memory as obs_memory
from ..obs.flight import FlightRecord, FlightRecorder
from ..obs.profile import KernelProfiler
from ..obs.slo import SLOTracker
from ..obs.trace import get_tracer, span
from .api import RequestValidationError, SolveRequest, SolveResult
from .batcher import Batch, BatchPolicy, DynamicBatcher
from .cache import CachedSolution, SolutionCache
from .compute import ComputeProcess, build_solver, lattice_run, model_version, remember
from .faults import (
    BATCH_ASSEMBLY,
    DROP,
    DUPLICATE,
    STORE_DELIVER,
    WORKER_DEATH,
    WORKER_HEARTBEAT,
    WORKER_SOLVE,
    FaultInjector,
    WorkerDeath,
)
from .futures import (
    CircuitOpenError,
    DeadlineExceededError,
    MemoryPressureError,
    QuotaExceededError,
    RetryExhaustedError,
    ServerClosedError,
    SolveError,
    SolveFuture,
)
from .journal import RequestJournal
from .megabatch import solver_fusion_key
from .stats import ServingStats
from .store import AdmissionController, RequestStore, TenantQuota, Waiter
from .supervisor import BreakerBoard, WorkerSupervisor

__all__ = ["Server", "default_solver_factory"]

@dataclass
class _PreparedBatch:
    """One batch after expiry filtering and in-batch dedup, ready to solve."""

    batch: Batch
    live: list
    solve_requests: list
    assignment: list
    loops: np.ndarray
    tols: np.ndarray
    budgets: np.ndarray
    occupancy: int = 1

    @property
    def geometry(self):
        return self.batch.group_key[0]

    @property
    def init_mode(self) -> str:
        return self.batch.group_key[1]

    @property
    def check_interval(self) -> int:
        return self.batch.group_key[2]


def default_solver_factory(geometry: MosaicGeometry) -> FDSubdomainSolver:
    """Exact finite-difference subdomain solver for ``geometry``."""

    return FDSubdomainSolver(geometry.subdomain_grid(), method="direct")


class Server:
    """Batched, cached, idempotent, fault-tolerant Mosaic Flow solve service.

    Parameters
    ----------
    solver_factory:
        ``solver_factory(geometry) -> SubdomainSolver``; defaults to the
        exact finite-difference solver.  Use a closure over a trained SDNet
        for the paper's neural configuration.
    policy:
        The one :class:`BatchPolicy` every geometry group's queue releases
        under: at ``max_batch_size`` requests or after ``max_wait_seconds``.
        Nothing sizes batches or solver calls per geometry: a dispatched run
        puts all its rows into one solver call per lattice step.
    cache:
        A :class:`SolutionCache`, or ``None`` to disable near-duplicate
        caching (exact idempotency through the request store remains).
    clock:
        Monotonic time source (injectable for deterministic tests).
    engine:
        Accepted and ignored: the compiled forward is the only inference
        path of :class:`~repro.mosaic.solvers.SDNetSubdomainSolver`, so there
        is nothing left to switch.  Kept until the benchmark, which passes
        it, is next revised.
    engine_profile:
        Time every kernel of this server's neural solvers' forwards: the
        solvers it builds run programs of their own, compiled with the
        server's profiler
        (:meth:`~repro.mosaic.solvers.SDNetSubdomainSolver.profile_kernels`),
        so nothing else on the same model is clocked; see
        :meth:`kernel_report`.  Served results are bitwise identical either way.
    store:
        The idempotent :class:`RequestStore`; a default one (exact keys,
        2048 settled entries) is created when omitted.  Duplicate
        submissions of one canonical BVP perform exactly one solve and
        every future resolves with bitwise-identical arrays.
    faults:
        Optional :class:`FaultInjector` enabling the deterministic fault
        hooks (worker-call, batch-assembly, store-delivery).  ``None`` (the
        default) leaves every hook a no-op.
    quotas:
        Per-tenant admission control: ``{tenant: TenantQuota}``, or one
        :class:`TenantQuota` applied to every tenant.  Requests over quota
        are rejected at submit with :class:`QuotaExceededError` (counted in
        ``stats.rejections``) instead of queueing unboundedly.
    max_retries:
        Failed fused solves are retried up to this many times before the
        batch's requests fail with :class:`RetryExhaustedError`.
    retry_backoff_seconds, retry_backoff_cap:
        Capped exponential backoff between retries:
        ``min(retry_backoff_seconds * 2**(attempt-1), retry_backoff_cap)``.
    sleep:
        How backoff passes time.  The default (``None``) waits on the
        server's closing event, so :meth:`close` interrupts an in-progress
        retry backoff instead of sleeping it out.  Tests pass a fake
        clock's ``advance`` so retry scenarios run without real sleeping.
    async_workers:
        Number of solve workers.  ``0`` (default) keeps the server fully
        synchronous — batches run inline on the submitting / draining
        thread, exactly like the pre-async server.  ``>= 1`` enables
        :meth:`start`, which spawns the background dispatcher and one
        thread per worker; ``submit_async`` then never executes solves on
        the caller's thread.  One worker computes in its thread; with two
        or more, each worker's thread hands the arithmetic to its own
        forked compute process, whose solvers come from the
        ``solver_factory`` it inherited (a model updated in this process
        later is picked up by re-forking, see
        :mod:`~repro.serving.compute`).
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder` enabling
        tail-sampling flight records: requests that finish slow (rolling
        p99), were retried, failed, missed their deadline or straggled past
        it retain their full span tree plus attribution (tenant, fusion
        key, mega-batch occupancy, cache/store provenance).  ``None`` (the
        default) disables retention; the per-request cost is then a single
        attribute check.
    slo:
        The :class:`~repro.obs.slo.SLOTracker` fed by every request
        completion/failure and surfaced by :meth:`health`.  A default
        tracker (availability + 1s-latency objectives, 1m/10m/1h burn-rate
        windows) on this server's clock is created when omitted.
    journal:
        Durability: a journal path (``str``/``Path``) or a ready
        :class:`~repro.serving.journal.RequestJournal`.  The store recovers
        from it at construction (``self.recovery`` holds the
        :class:`~repro.serving.journal.RecoveryReport`) and write-ahead
        journals every claim/complete/fail from then on, so a restarted
        server replays completed keys bitwise-identically and re-runs
        interrupted claims exactly once.  ``None`` (default) keeps the
        store in-memory only.
    supervisor:
        Worker supervision: ``True`` for a default
        :class:`~repro.serving.supervisor.WorkerSupervisor` on this
        server's clock, or a configured instance.  Supervised solve workers
        register flights and heartbeat at solve attempts;
        :meth:`check_workers` requeues the in-flight requests of hung
        workers (no heartbeat within the timeout), worker deaths
        (:class:`~repro.serving.faults.WorkerDeath` escaping a batch)
        requeue immediately, and both schedule capped-exponential-backoff
        restarts until the budget is spent — after which work fails instead
        of looping.  A worker's compute process that dies is such a death;
        its replacement is forked at the worker's next run.  The restart
        gate is surfaced in :meth:`health` and the supervisor snapshot, not
        used to block dispatch.  ``None`` (default) disables supervision;
        requeue-on-death still works.
    breakers:
        Per-backend circuit breakers (default on): ``True`` for a default
        :class:`~repro.serving.supervisor.BreakerBoard`, an instance for
        custom policy, ``False``/``None`` to disable.  Breakers are keyed
        by the request group's mega-fusion compatibility key (its
        ``solver_fusion_key``; the geometry group key for never-fusing
        groups): consecutive solve failures trip that backend open and
        further submissions fail fast with :class:`CircuitOpenError` until
        a half-open probe succeeds.

    Observability
    -------------
    The request lifecycle emits hierarchical spans when tracing is on
    (:func:`repro.obs.enable_tracing`): ``serving.submit`` (with
    ``serving.claim`` and ``serving.cache_lookup`` children and a
    ``serving.enqueue`` child for queued requests) and, per run,
    ``serving.mega_batch`` (with ``solver_calls``, ``solver_rows`` and
    ``worker_compute_s``, the seconds the lattice run took where it ran)
    with one ``serving.batch`` (with its ``serving.batch_assembly``) per
    batch, ``serving.fused_solve`` (one per attempt, with ``serving.retry``
    spans between failed attempts) and one ``serving.postprocess`` per
    batch.  Counters
    for retries, rejections, timeouts, failures and store replays live in
    ``self.stats.registry`` next to the latency/queue-wait histograms.
    An empty :meth:`drain` emits no spans and records no metrics.
    """

    def __init__(
        self,
        solver_factory=default_solver_factory,
        policy: BatchPolicy | None = None,
        cache: SolutionCache | None = None,
        clock=time.monotonic,
        engine: bool = False,
        engine_profile: bool = False,
        store: RequestStore | None = None,
        faults: FaultInjector | None = None,
        quotas: dict | TenantQuota | None = None,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.001,
        retry_backoff_cap: float = 0.1,
        sleep=None,
        async_workers: int = 0,
        poll_interval_seconds: float = 0.01,
        flight: FlightRecorder | None = None,
        slo: SLOTracker | None = None,
        journal=None,
        supervisor: WorkerSupervisor | bool | None = None,
        breakers: BreakerBoard | bool | None = True,
    ):
        self.solver_factory = solver_factory
        self.policy = policy or BatchPolicy()
        self.cache = cache
        self.clock = clock
        self.engine_profile = bool(engine_profile)
        self._kernel_profiler = KernelProfiler() if self.engine_profile else None
        self.stats = ServingStats(
            kernel_profile_provider=(
                (lambda: self._kernel_profiler) if self.engine_profile else None
            ),
        )
        self.store = store if store is not None else RequestStore()
        self.faults = faults
        #: recovery report when a journal was replayed at construction
        self.recovery = None
        if journal is not None:
            if not isinstance(journal, RequestJournal):
                journal = RequestJournal(journal, faults=faults)
            self.recovery = self.store.recover(journal)
        # Admission always runs (memory-pressure shedding applies with or
        # without quotas); tenants without a quota admit at priority 0.
        if isinstance(quotas, TenantQuota):
            self.admission = AdmissionController(default=quotas)
        else:
            self.admission = AdmissionController(quotas=quotas)
        if supervisor is True:
            supervisor = WorkerSupervisor(clock=clock)
        # `is False` (not truthiness): an idle BreakerBoard is len() == 0.
        self.supervisor = None if supervisor is False else supervisor
        if breakers is True:
            breakers = BreakerBoard(clock=clock)
        self.breakers = None if breakers is False else breakers
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.max_retries = int(max_retries)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self.retry_backoff_cap = float(retry_backoff_cap)
        self._sleep = sleep
        if async_workers < 0:
            raise ValueError("async_workers must be non-negative")
        self.async_workers = int(async_workers)
        self.poll_interval_seconds = float(poll_interval_seconds)

        self.flight = flight
        self.slo = slo if slo is not None else SLOTracker(clock=clock)

        self._lock = threading.RLock()
        self._work_done = threading.Condition(self._lock)
        self._batchers: dict[tuple, DynamicBatcher] = {}
        # group_key -> compatibility key (the group key itself when it never
        # cross-fuses), and compat key -> the solver answering its runs.
        # Both are LRUs as long as the lattice plan cache, so a long-lived
        # server does not keep every geometry it ever served.
        self._compat_keys: OrderedDict[tuple, tuple] = OrderedDict()
        self._mega_solvers: OrderedDict[tuple, object] = OrderedDict()
        self._completed: dict[str, SolveResult] = {}
        self._futures: dict[str, SolveFuture] = {}
        self._inflight_ids: set[str] = set()
        self._ready: deque[Batch] = deque()
        self._inflight_requests = 0
        self._started = False
        self._stop_event = threading.Event()
        self._wake = threading.Event()
        self._dispatch_thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        # Slots of the solve workers with no run in flight, and with two or
        # more workers started, each worker's compute process.
        self._idle: list[int] = []
        self._workers: list[ComputeProcess] = []
        # Persistent (never recreated) so an in-progress retry backoff can
        # observe close() no matter when start()/close() cycles happen.
        self._closing = threading.Event()
        self._draining = False
        self._requeued_ids: set[str] = set()

    # -- async lifecycle -----------------------------------------------------------

    def start(self) -> "Server":
        """Spawn the background dispatcher and the solve workers.

        With two or more workers each one's compute process is forked here.

        Requires ``async_workers >= 1``.  Idempotent; returns ``self`` so
        ``Server(...).start()`` composes, and the server works as a context
        manager (:meth:`close` on exit).
        """

        with self._lock:
            if self._started:
                return self
            if self.async_workers < 1:
                raise ValueError(
                    "start() needs async_workers >= 1; a sync server runs "
                    "batches inline in submit()/drain()"
                )
            self._stop_event = threading.Event()
            self._wake = threading.Event()
            self._closing.clear()
            self._draining = False
            self._executor = ThreadPoolExecutor(
                max_workers=self.async_workers, thread_name_prefix="serving-solve"
            )
            self._idle = list(range(self.async_workers))
            if self.async_workers >= 2:
                # One worker has no partner to run beside and keeps computing
                # in its thread; with two or more, each gets a process.
                self._workers = [
                    ComputeProcess(
                        self._worker_name(slot), self.solver_factory, self.engine_profile
                    )
                    for slot in range(self.async_workers)
                ]
                for worker in self._workers:
                    worker.fork()
            self._dispatch_thread = threading.Thread(
                target=self._dispatch_loop, name="serving-dispatcher", daemon=True
            )
            self._started = True
            self._dispatch_thread.start()
        return self

    def close(self) -> None:
        """Stop the dispatcher and worker pool after finishing queued work.

        Sets the closing event first, so a solve worker mid-way through a
        retry backoff wakes immediately instead of sleeping the backoff out.
        Worker compute processes are stopped and joined last.
        """

        self._closing.set()
        with self._lock:
            if not self._started:
                return
            thread, executor = self._dispatch_thread, self._executor
            self._stop_event.set()
            self._wake.set()
        thread.join(timeout=30.0)
        executor.shutdown(wait=True)
        for worker in self._workers:
            worker.stop()
        with self._lock:
            self._started = False
            self._dispatch_thread = None
            self._executor = None

    def drain_and_close(self) -> dict[str, SolveResult]:
        """Graceful shutdown: stop intake, finish in-flight, checkpoint.

        New submissions raise :class:`ServerClosedError` from the moment
        this is called; queued and in-flight requests are drained to
        completion; the dispatcher/worker pool is stopped; and, when the
        store carries a journal, it is compacted to a claim-free snapshot of
        the settled results (so the next process recovers without orphans).
        Returns what :meth:`drain` collected.
        """

        self._draining = True
        try:
            results = self.drain()
        finally:
            if self.running:
                self.close()
            self.store.checkpoint_journal()
        return results

    def __enter__(self) -> "Server":
        if self.async_workers >= 1:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def running(self) -> bool:
        """Whether the background dispatcher is active."""

        with self._lock:
            return self._started

    # -- front-end ----------------------------------------------------------------

    def submit_async(self, request: SolveRequest) -> SolveFuture:
        """Queue one request without blocking; returns its future.

        Validation errors (not a :class:`SolveRequest`, an id already in
        flight or completed) raise :class:`RequestValidationError`, and a
        draining server raises :class:`ServerClosedError`, synchronously.
        Everything else — quota rejection, deadline expiry, retry exhaustion,
        or the solved result — resolves the returned :class:`SolveFuture`.
        """

        if not isinstance(request, SolveRequest):
            raise RequestValidationError(
                "submit() takes a SolveRequest; build one with SolveRequest.create"
            )
        if self._draining:
            raise ServerClosedError(
                f"server is draining; request {request.request_id!r} refused"
            )
        with self._lock:
            # Reserved in the same critical section as the check, so of two
            # threads submitting one id only the first gets a future.
            if request.request_id in self._inflight_ids or request.request_id in self._completed:
                raise RequestValidationError(
                    f"duplicate request id {request.request_id!r}"
                )
            self._inflight_ids.add(request.request_id)
        future = SolveFuture(request.request_id)
        with span("serving.submit", request_id=request.request_id):
            now = self.clock()
            self.stats.record_submit()
            waiter = Waiter(request=request, future=future, submitted_at=now)

            error = self._refusal(request)
            with self._lock:
                if error is None:
                    self._futures[request.request_id] = future
                else:
                    # Refused: the id is free again for a later submission.
                    self._inflight_ids.discard(request.request_id)
            if error is not None:
                self.slo.record(False)
                future._set_exception(error)
                return future
            # Admitted: the anchor-row payload is now retained until the
            # waiter resolves (released in _finish_waiter/_reject_waiter).
            obs_memory.add(
                obs_memory.REQUEST_PAYLOADS, int(request.boundary_loop.nbytes)
            )

            with span("serving.claim") as claim_span:
                claim = self.store.claim(request, waiter)
                claim_span.set_attr("owner", claim.owner)
                claim_span.set_attr("replay", claim.replay)
            if claim.replay:
                # Idempotent replay: the canonical key was solved before;
                # resolve from the stored result, bitwise-identical.
                self.stats.record_store_hit()
                self._finish_waiter(
                    waiter, claim.entry.result, cache_hit=True, batch_size=0,
                    store_hit=True,
                )
                return future
            if not claim.owner:
                # Duplicate of an in-flight solve: the waiter is attached to
                # the owner's entry and resolves when that solve completes.
                self.stats.record_dedup_hit()
                return future

            if self.cache is not None:
                with span("serving.cache_lookup") as lookup:
                    entry = self.cache.get(request)
                    lookup.set_attr("hit", entry is not None)
                if entry is not None:
                    self.stats.record_cache_hit()
                    for hit_waiter in self.store.fulfill(request, entry):
                        self._finish_waiter(hit_waiter, entry, cache_hit=True, batch_size=0)
                    return future

            with span("serving.enqueue"):
                with self._lock:
                    self._ready.extend(self._batcher_for(request).enqueue(request))
                    self._poll_locked()
            if self._started:
                self._wake.set()
        return future

    def _refusal(self, request: SolveRequest) -> SolveError | None:
        """The error refusing ``request`` at the door, or ``None`` if admitted."""

        # Breaker gate before admission: a rejection here has not taken an
        # admission slot, so there is nothing to release.
        breaker = self._breaker_for(request.group_key)
        if breaker is not None and not breaker.allow():
            self.stats.record_breaker_rejection()
            return CircuitOpenError(
                f"circuit breaker for this request's solver backend is "
                f"{breaker.state}; request {request.request_id!r} rejected fast"
            )
        shed = self.admission.decide(request)
        if shed == "memory":
            self.stats.record_memory_shed()
            return MemoryPressureError(
                f"live bytes are over tenant {request.tenant!r}'s "
                f"priority-{self.admission.priority_for(request.tenant)} "
                f"share of the memory budget; request "
                f"{request.request_id!r} was shed"
            )
        if shed is not None:
            self.stats.record_rejection()
            return QuotaExceededError(
                f"tenant {request.tenant!r} is over its admission quota; "
                f"request {request.request_id!r} was shed"
            )
        return None

    def submit(self, request: SolveRequest) -> str:
        """Queue one request; returns its id (thin sync wrapper).

        Without a running dispatcher this executes any released batches
        inline, exactly like the pre-async server; with one, execution
        happens on the worker pool and :meth:`drain` (or the future from
        :meth:`future`) collects the outcome.  A quota rejection raises
        :class:`QuotaExceededError` (a breaker rejection
        :class:`CircuitOpenError`) here, since there is no future to
        carry it.
        """

        fut = self.submit_async(request)
        if not self._started:
            self.pump()
        if fut.done():
            error = fut.exception()
            if isinstance(error, (QuotaExceededError, CircuitOpenError)):
                raise error
        return request.request_id

    def poll(self) -> list[Batch]:
        """Collect deadline-expired batches from every group (without running).

        The returned batches are also scheduled on the pipeline (``_ready``),
        so callers only inspect them — :meth:`pump`, the dispatcher or
        :meth:`drain` executes them.
        """

        with self._lock:
            return self._poll_locked()

    def pump(self) -> None:
        """Execute released batches on the calling thread (sync-mode driver)."""

        while True:
            with self._lock:
                groups = self._mega_groups(self._take_ready())
            if not groups:
                return
            for compat_key, batches in groups:
                self._run_group(batches, compat_key)

    def drain(self) -> dict[str, SolveResult]:
        """Flush and execute every queued request; return completed results.

        Returns every result completed since the previous ``drain``
        (including cache hits, store replays and batches executed during
        ``submit``), keyed by request id, and clears the completed set.
        Requests that *failed* (deadline, retry exhaustion, quota) are not
        in the dict — their typed error lives on their future.

        A drain with nothing queued or in flight returns immediately
        without touching the batchers and without emitting any spans or
        metrics.
        """

        with self._lock:
            if self._idle_locked():
                return self._collect_completed()
        with span("serving.drain"):
            with self._lock:
                self._flush_locked("flush")
            if self._started:
                self._wake.set()
                self._wait_idle()
            else:
                self.pump()
            with self._lock:
                return self._collect_completed()

    def result(self, request_id: str) -> SolveResult | None:
        """Completed result for a request id, or ``None`` if still pending."""

        with self._lock:
            return self._completed.get(request_id)

    def future(self, request_id: str) -> SolveFuture | None:
        """The future of a request submitted since the last :meth:`drain`."""

        with self._lock:
            return self._futures.get(request_id)

    @property
    def pending(self) -> int:
        """Requests queued or executing but not yet completed."""

        with self._lock:
            return (
                sum(batcher.queue_depth for batcher in self._batchers.values())
                + sum(len(batch) for batch in self._ready)
                + self._inflight_requests
            )

    # -- dispatcher / execution ----------------------------------------------------

    def _collect_completed(self) -> dict[str, SolveResult]:
        # Caller holds self._lock.
        completed, self._completed = self._completed, {}
        for request_id in list(self._futures):
            if request_id not in self._inflight_ids:
                del self._futures[request_id]
        self._requeued_ids.intersection_update(self._inflight_ids)
        return completed

    def _poll_locked(self) -> list[Batch]:
        # Caller holds self._lock.  Size/deadline releases of every queued
        # group, moved to `_ready`.  A group whose queue emptied leaves the
        # map, so this scan (and every other one over `_batchers`) is bounded
        # by the groups that have requests waiting, not by the groups served.
        released: list[Batch] = []
        for key, batcher in list(self._batchers.items()):
            released.extend(batcher.poll())
            if not batcher.queue_depth:
                del self._batchers[key]
        self._ready.extend(released)
        return released

    def _flush_locked(self, reason: str, keys=None) -> None:
        # Caller holds self._lock.  Release the whole queue of the named
        # groups (default: every queued group) whatever its size or age.
        for key in list(self._batchers) if keys is None else keys:
            self._ready.extend(self._batchers.pop(key).flush(reason))

    def _idle_locked(self) -> bool:
        # Caller holds self._lock.
        return not self._ready and self._inflight_requests == 0 and not self._batchers

    def _take_ready(self) -> list[Batch]:
        # Caller holds self._lock.  Deadline-expired batches ride along, and
        # the in-flight request count moves atomically with the hand-off so
        # `pending` and `_wait_idle` never observe a gap.
        self._poll_locked()
        if self._started:
            # Work-conserving: the dispatcher takes work only for an idle
            # worker, and waiting out the window buys no company that could
            # not also queue behind the run about to start.
            self._flush_locked("idle")
        elif self._ready:
            self._co_release_locked()
        batches = list(self._ready)
        self._ready.clear()
        self._inflight_requests += sum(len(batch) for batch in batches)
        return batches

    def _co_release_locked(self) -> None:
        # Caller holds self._lock.  Queued requests whose group can fuse with
        # a batch that was just released ride its mega run instead of sitting
        # out their own size/deadline trigger.
        ready_keys = {self._compat_key(batch.group_key) for batch in self._ready}
        self._flush_locked(
            "co_release",
            [key for key in self._batchers if self._compat_key(key) in ready_keys],
        )

    def _partition(self, batches: list[Batch], parts: int) -> list[list[Batch]]:
        # Caller holds self._lock.  Split the ready batches into at most
        # `parts` runs of balanced predicted rows (subdomains x budget),
        # largest first onto the lightest run.  Requests the in-batch dedup
        # would merge (one cache key) stay together.
        if parts < 2:
            return [batches] if batches else []
        units: dict = {}
        for batch in batches:
            subdomains = batch.group_key[0].num_subdomains
            for index, request in enumerate(batch.requests):
                key = (
                    self.cache.key_for(request) if self.cache is not None
                    else request.request_id
                )
                unit = units.setdefault(key, [subdomains * request.max_iterations, []])
                unit[1].append((id(batch), index))
        if len(units) < 2:
            return [batches]
        loads = [0] * min(parts, len(units))
        members: list[set] = [set() for _ in loads]
        for cost, unit in sorted(units.values(), key=lambda u: -u[0]):
            lightest = loads.index(min(loads))
            loads[lightest] += cost
            members[lightest].update(unit)
        runs = []
        for chosen in members:
            run = []
            for batch in batches:
                kept = [i for i in range(len(batch)) if (id(batch), i) in chosen]
                if kept:
                    run.append(Batch(
                        batch.group_key, [batch.requests[i] for i in kept],
                        [batch.enqueued_at[i] for i in kept], batch.reason,
                    ))
            runs.append(run)
        return runs

    def _mega_groups(self, batches: list[Batch]) -> list[tuple[tuple, list[Batch]]]:
        # Caller holds self._lock.  Partition ready batches by compatibility
        # key (order-preserving); each ``(compat_key, batches)`` is one run.
        by_key: dict[tuple, list[Batch]] = {}
        for batch in batches:
            by_key.setdefault(self._compat_key(batch.group_key), []).append(batch)
        return list(by_key.items())

    def _compat_key(self, group_key: tuple) -> tuple:
        # Caller holds self._lock.  Mega compatibility of a geometry group:
        # the subdomain grid parameters plus the solver fusion key — two
        # groups with equal keys issue solver calls with identical query
        # coordinates and an equivalent solver, so their rows concatenate
        # and share the solver kept in `_mega_solvers`.  A group whose
        # solver has no fusion key is its own key and runs alone on its own
        # solver; one whose factory raised keeps no solver, so every run
        # attempt calls the factory again and fails through the retry loop.
        # A group evicted from the LRU calls the factory again when next seen.
        key = self._compat_keys.get(group_key)
        if key is not None:
            self._compat_keys.move_to_end(group_key)
            return key
        geometry = group_key[0]
        key = group_key
        try:
            solver = self._make_solver(geometry)
        except Exception:
            solver = None
        fusion = solver_fusion_key(solver)
        if fusion is not None:
            grid = geometry.subdomain_grid()
            key = (grid.nx, grid.ny, tuple(grid.extent), fusion)
        if solver is not None:
            remember(self._mega_solvers, key, solver)
        return remember(self._compat_keys, group_key, key)

    def _solver_for(self, compat_key: tuple, geometry):
        """The solver answering ``compat_key``'s runs; built and kept if evicted."""

        with self._lock:
            solver = self._mega_solvers.get(compat_key)
            if solver is not None:
                self._mega_solvers.move_to_end(compat_key)
                return solver
        solver = self._make_solver(geometry)
        with self._lock:
            return remember(self._mega_solvers, compat_key, solver)

    def _dispatch_loop(self) -> None:
        while not self._stop_event.is_set():
            self.check_workers()
            if self._dispatch():
                continue
            # Nothing to hand out, or no idle worker to take it: a submit or
            # a finishing run sets the event.
            self._wake.wait(timeout=self.poll_interval_seconds)
            self._wake.clear()
        # Final sweep so close() never strands queued work.
        while True:
            with self._lock:
                if not (self._ready or self._batchers):
                    return
            if not self._dispatch():
                self._wake.wait(timeout=self.poll_interval_seconds)
                self._wake.clear()

    def _dispatch(self) -> bool:
        """Hand everything queued to the idle workers, one partition each.

        No more runs are in flight than there are workers: with none idle
        the work stays queued, and a finishing run wakes the dispatcher.
        Returns whether a run was handed out.
        """

        with self._lock:
            if not self._idle or not (self._ready or self._batchers):
                return False
            jobs = [
                (self._idle.pop(), self._mega_groups(batches))
                for batches in self._partition(self._take_ready(), len(self._idle))
            ]
        for slot, groups in jobs:
            self._executor.submit(self._run_job, slot, groups)
        return bool(jobs)

    def _run_job(self, slot: int, groups: list) -> None:
        # One worker's partition: a run per fusion-compatibility key.
        try:
            for compat_key, batches in groups:
                self._run_group(batches, compat_key, slot)
        finally:
            with self._lock:
                self._idle.append(slot)
            self._wake.set()

    @staticmethod
    def _worker_name(slot: int | None) -> str:
        if slot is None:
            return threading.current_thread().name
        return f"serving-solve-{slot}"

    def _run_group(
        self, batches: list[Batch], compat_key: tuple, slot: int | None = None
    ) -> None:
        worker = self._supervise_begin(batches, slot)
        try:
            if self.faults is not None:
                # Worker-death site, entry edge: the worker picked the group
                # up and dies before any solve ran.
                self.faults.fire(WORKER_DEATH)
            self._execute_mega(batches, compat_key, slot)
        except WorkerDeath as death:
            self._handle_worker_death(worker, batches, death)
        except Exception as exc:
            # _execute_mega handles solver failures itself; anything escaping
            # here (assembly faults, bugs) must still resolve the waiters.
            error = RetryExhaustedError(f"batch execution failed: {exc!r}", attempts=1)
            error.__cause__ = exc
            self.stats.record_failure()
            for batch in batches:
                self._fail_requests(batch.requests, error)
        finally:
            self._supervise_end(worker)
            with self._lock:
                self._inflight_requests -= sum(len(batch) for batch in batches)
                self._work_done.notify_all()

    # -- supervision ---------------------------------------------------------------

    def _supervise_begin(self, batches: list[Batch], slot: int | None) -> str:
        worker = self._worker_name(slot)
        if self.supervisor is not None:
            requests = [r for batch in batches for r in batch.requests]
            self.supervisor.begin(worker, requests, self.clock())
        return worker

    def _supervise_end(self, worker: str) -> None:
        if self.supervisor is not None:
            self.supervisor.end(worker)

    def _heartbeat(self, worker: str) -> None:
        """One supervision heartbeat from a solve worker.

        Fired at the start of every fused-solve attempt.  The
        ``WORKER_HEARTBEAT`` fault site sits between the worker and the
        supervisor: a ``drop`` fault suppresses delivery, so a perfectly
        live worker looks hung — exactly the partition the supervisor's
        timeout must tolerate (requeue + idempotent store, never a double
        resolution).
        """

        if self.supervisor is None:
            return
        if self.faults is not None:
            spec = self.faults.fire(WORKER_HEARTBEAT)
            if spec is not None and spec.kind == DROP:
                return
        self.supervisor.heartbeat(worker, self.clock())

    def check_workers(self) -> int:
        """Requeue the in-flight requests of every hung worker; returns count.

        Called by the dispatcher every loop; deterministic tests call it
        directly after advancing their fake clock.  A flight with no
        heartbeat inside the supervisor's timeout is popped and its requests
        requeued (or failed once the restart budget is exhausted).  If the
        "hung" worker was merely partitioned and later completes, the
        store's idempotent upsert absorbs the extra delivery.
        """

        if self.supervisor is None:
            return 0
        stale = self.supervisor.check(self.clock())
        for flight in stale:
            if self.supervisor.exhausted:
                error = RetryExhaustedError(
                    f"worker {flight.worker!r} sent no heartbeat for "
                    f"{self.supervisor.heartbeat_timeout_seconds}s and the "
                    f"supervisor's restart budget is spent",
                    attempts=1,
                )
                self.stats.record_failure()
                self._fail_requests(flight.requests, error)
            else:
                self._requeue(flight.requests)
        return len(stale)

    def _handle_worker_death(self, worker, batches, death: WorkerDeath) -> None:
        requests = [r for batch in batches for r in batch.requests]
        if self.supervisor is not None:
            self.supervisor.record_death(worker, self.clock())
            if self.supervisor.exhausted:
                error = RetryExhaustedError(
                    f"worker died and the supervisor's restart budget is "
                    f"spent: {death!r}",
                    attempts=1,
                )
                error.__cause__ = death
                self.stats.record_failure()
                self._fail_requests(requests, error)
                return
        self._requeue(requests)

    def _requeue(self, requests: list) -> None:
        """Exactly-once requeue of a dead/hung worker's in-flight requests.

        Only requests whose waiters are still unresolved go back through the
        batchers (a death after postprocess has nothing left to requeue);
        their batchers are flushed immediately so requeued work re-dispatches
        without waiting out a fresh batching deadline.
        """

        with self._lock:
            live = [r for r in requests if r.request_id in self._inflight_ids]
            if not live:
                return
            self.stats.record_requeue(len(live))
            for request in live:
                self._requeued_ids.add(request.request_id)
                self._ready.extend(self._batcher_for(request).enqueue(request))
            self._flush_locked("co_release", {r.group_key for r in live})
            if self._started:
                self._wake.set()

    def _wait_idle(self, timeout: float | None = None) -> bool:
        with self._lock:
            return self._work_done.wait_for(self._idle_locked, timeout=timeout)

    # -- internals ----------------------------------------------------------------

    def _batcher_for(self, request: SolveRequest) -> DynamicBatcher:
        # Caller holds self._lock.  One batcher per queued group, all under
        # `self.policy`: a Batch holds one group, and `_flush_locked` releases
        # groups by key.  It lives while the group has requests queued
        # (`_poll_locked`/`_flush_locked` drop it), so the map holds only
        # what is waiting, not every geometry served.
        batcher = self._batchers.get(request.group_key)
        if batcher is None:
            batcher = DynamicBatcher(self.policy, clock=self.clock)
            self._batchers[request.group_key] = batcher
        return batcher

    def _make_solver(self, geometry):
        """``solver_factory(geometry)``, with kernel profiling switched on if asked."""

        return build_solver(self.solver_factory, geometry, self._kernel_profiler)

    def kernel_report(self, n: int = 10) -> str:
        """Top-kernels table of this server's solvers (``engine_profile=True``)."""

        if not self.engine_profile:
            raise RuntimeError(
                "per-kernel profiling is off; build the server with engine_profile=True"
            )
        return self._kernel_profiler.report(n)

    def _prepare(self, batch: Batch, batch_span) -> _PreparedBatch | None:
        """Expiry-filter and dedup one batch; ``None`` when nothing is live.

        Queue waits are recorded for live requests only — an expired request
        never reaches the solver, and counting its wait would skew the
        distribution the batcher is tuned against.
        """

        now = self.clock()
        # Deadline fail-fast: a request all of whose waiters have expired is
        # failed here instead of occupying solver capacity.
        live: list[SolveRequest] = []
        for request, enqueued in zip(batch.requests, batch.enqueued_at):
            expired = self.store.expire(request, now)
            if expired is None:
                live.append(request)
                self.stats.record_queue_wait(now - enqueued)
                continue
            for waiter in expired:
                self._reject_waiter(
                    waiter,
                    DeadlineExceededError(
                        f"request {waiter.request.request_id!r} missed its "
                        f"{waiter.request.deadline_seconds}s deadline "
                        f"before dispatch"
                    ),
                )
        if not live:
            batch_span.set_attr("expired", len(batch.requests))
            return None

        with span("serving.batch_assembly"):
            if self.faults is not None:
                self.faults.fire(BATCH_ASSEMBLY, size=len(live))
            solve_requests, assignment = self._dedup(live)
            loops = np.stack([r.boundary_loop for r in solve_requests])
            tols = np.array([r.tol for r in solve_requests])
            budgets = np.array([r.max_iterations for r in solve_requests])
        return _PreparedBatch(
            batch=batch, live=live, solve_requests=solve_requests,
            assignment=assignment, loops=loops, tols=tols, budgets=budgets,
        )

    def _dedup(self, live: list, record: bool = True) -> tuple[list, list]:
        """In-batch dedup on the cache key: identical BVPs are solved once.

        ``record=False`` recomputes the mapping without re-counting dedup
        hits (used when the live set shrinks during retry backoff).
        """

        if self.cache is None:
            return list(live), list(range(len(live)))
        unique: dict[tuple, int] = {}
        assignment = []
        for request in live:
            key = self.cache.key_for(request)
            if key not in unique:
                unique[key] = len(unique)
            elif record:
                self.stats.record_dedup_hit()
            assignment.append(unique[key])
        solve_requests = [None] * len(unique)
        for request, slot in zip(live, assignment):
            if solve_requests[slot] is None:
                solve_requests[slot] = request
        return solve_requests, assignment

    def _refresh_expired(self, prepared: _PreparedBatch) -> bool:
        """Re-run deadline fail-fast between retry attempts (post-backoff).

        Backoff can outlast a waiter's deadline; without this re-check the
        next attempt would solve for — and only then reject — requests that
        were already dead when the attempt started.  Expired waiters are
        rejected immediately; the solve arrays are rebuilt over the
        survivors.  Returns ``False`` when nothing is left to solve.
        """

        now = self.clock()
        live: list[SolveRequest] = []
        dropped = False
        for request in prepared.live:
            expired = self.store.expire(request, now)
            if expired is None:
                live.append(request)
                continue
            dropped = True
            for waiter in expired:
                self._reject_waiter(
                    waiter,
                    DeadlineExceededError(
                        f"request {waiter.request.request_id!r} missed its "
                        f"{waiter.request.deadline_seconds}s deadline "
                        f"during retry backoff"
                    ),
                )
        if not dropped:
            return True
        prepared.live = live
        if not live:
            return False
        solve_requests, assignment = self._dedup(live, record=False)
        prepared.solve_requests = solve_requests
        prepared.assignment = assignment
        prepared.loops = np.stack([r.boundary_loop for r in solve_requests])
        prepared.tols = np.array([r.tol for r in solve_requests])
        prepared.budgets = np.array([r.max_iterations for r in solve_requests])
        return True

    def _postprocess(self, prepared: _PreparedBatch, outcomes) -> None:
        batch_size = len(prepared.solve_requests)
        for request, slot in zip(prepared.live, prepared.assignment):
            outcome = outcomes[slot]
            entry = CachedSolution(
                solution=outcome.solution,
                iterations=outcome.iterations,
                converged=outcome.converged,
                deltas=outcome.deltas,
            )
            if self.cache is not None:
                self.cache.put(request, entry)
            deliveries = 1
            if self.faults is not None:
                spec = self.faults.fire(STORE_DELIVER, request_id=request.request_id)
                if spec is not None and spec.kind == DUPLICATE:
                    deliveries = 2  # at-least-once delivery, injected
            waiters = []
            for _ in range(deliveries):
                # The store's upsert is idempotent: a redelivery returns no
                # waiters and only bumps its counter.
                waiters.extend(self.store.fulfill(request, entry))
            for waiter in waiters:
                self._finish_waiter(
                    waiter, entry, cache_hit=False, batch_size=batch_size,
                    occupancy=prepared.occupancy,
                )

    # -- mega-batch execution ------------------------------------------------------

    def _execute_mega(self, group: list[Batch], compat_key: tuple, slot: int | None) -> None:
        """Run one or more fusion-compatible batches as one lattice run.

        Each batch keeps its own expiry filter, dedup, fused-run accounting
        and postprocess — only the solver calls are shared, so results are
        bitwise-identical to running the batches one by one.  Only a run that
        fused at least two batches counts as a mega run in the stats.
        """

        total = sum(len(batch) for batch in group)
        with span("serving.mega_batch", batches=len(group), size=total) as mega_span:
            prepared: list[_PreparedBatch] = []
            for batch in group:
                with span(
                    "serving.batch", size=len(batch), mega=True, reason=batch.reason
                ) as batch_span:
                    try:
                        p = self._prepare(batch, batch_span)
                    except Exception as exc:
                        # An assembly fault in one batch must not take down
                        # the whole mega run.
                        error = RetryExhaustedError(
                            f"batch execution failed: {exc!r}", attempts=1
                        )
                        error.__cause__ = exc
                        self.stats.record_failure()
                        self._fail_requests(batch.requests, error)
                        continue
                    if p is not None:
                        prepared.append(p)
            if not prepared:
                mega_span.set_attr("expired", total)
                return
            results = self._solve_mega_with_retries(compat_key, prepared, mega_span, slot)
            if results is None:
                return  # waiters already resolved (failed or expired)
            if self.faults is not None:
                # Worker-death site, mid-batch edge (mega): all sessions
                # solved, nothing delivered yet.
                self.faults.fire(WORKER_DEATH)
            prepared, outcomes = results
            for p, outs in zip(prepared, outcomes):
                p.occupancy = len(prepared)
                self.stats.record_fused_run(len(p.solve_requests))
                with span("serving.postprocess"):
                    self._postprocess(p, outs)
            if len(prepared) > 1:
                self.stats.record_mega_run(len(prepared))

    def _solve_mega_with_retries(
        self, compat_key: tuple, prepared: list[_PreparedBatch], mega_span, slot
    ):
        """Run one lattice solve with retries; returns aligned (prepared, outcomes).

        Capped exponential backoff, a shared retry budget for the whole run,
        and a deadline re-check after every backoff sleep (batches whose
        waiters all expired drop out of subsequent attempts).  Fresh
        sessions are built per attempt — iteration state is never reused
        across a failed solve.  A key whose ``solver_factory`` raised has no
        solver; each attempt calls the factory again, so it fails as a
        retried attempt too.
        """

        breaker = self.breakers.get(compat_key) if self.breakers is not None else None
        worker = self._worker_name(slot)
        process = self._workers[slot] if slot is not None and self._workers else None
        attempts = 0
        while True:
            self._heartbeat(worker)
            live = [request for p in prepared for request in p.live]
            try:
                with span(
                    "serving.fused_solve",
                    unique=sum(len(p.solve_requests) for p in prepared),
                    batches=len(prepared),
                    attempt=attempts,
                ):
                    if self.faults is not None:
                        self.faults.fire(WORKER_SOLVE, rank=0)
                    solver = self._solver_for(compat_key, prepared[0].geometry)
                    sessions = [
                        (p.geometry, p.init_mode, p.check_interval, p.loops, p.tols, p.budgets)
                        for p in prepared
                    ]
                    if process is None:
                        began = time.perf_counter()
                        outcomes, calls = lattice_run(solver, sessions)
                        compute_s = time.perf_counter() - began
                    else:
                        outcomes, calls, compute_s, kernels = process.run(
                            compat_key, model_version(solver), sessions
                        )
                        if kernels is not None:
                            self._kernel_profiler.merge(kernels)
                    mega_span.set_attr("solver_calls", len(calls))
                    mega_span.set_attr("solver_rows", sum(rows for rows, _ in calls))
                    mega_span.set_attr("worker_compute_s", compute_s)
                if len(prepared) > 1:
                    for rows, sessions_count in calls:
                        self.stats.record_mega_call(rows, sessions_count)
                if breaker is not None:
                    breaker.record_success()
                return prepared, outcomes
            except Exception as exc:
                if breaker is not None:
                    breaker.record_failure()
                attempts += 1
                for request in live:
                    self.store.record_attempt(request)
                if attempts > self.max_retries:
                    self.stats.record_failure()
                    mega_span.set_attr("failed", type(exc).__name__)
                    error = RetryExhaustedError(
                        f"fused solve failed after {attempts} attempt(s); "
                        f"last error: {exc!r}",
                        attempts=attempts,
                    )
                    error.__cause__ = exc
                    self._fail_requests(live, error)
                    return None
                self.stats.record_retry()
                backoff = min(
                    self.retry_backoff_seconds * (2 ** (attempts - 1)),
                    self.retry_backoff_cap,
                )
                with span(
                    "serving.retry",
                    attempt=attempts,
                    backoff_seconds=backoff,
                    error=type(exc).__name__,
                ):
                    self._backoff_wait(backoff)
                prepared = [p for p in prepared if self._refresh_expired(p)]
                if not prepared:
                    mega_span.set_attr("expired_in_backoff", True)
                    return None

    def _breaker_for(self, group_key: tuple):
        """The circuit breaker guarding this group's solver backend, or ``None``.

        Keyed by the group's mega-fusion compatibility key so every group
        sharing one solver configuration shares one breaker; a group that
        never fuses is its own key, so it gets its own breaker.
        """

        if self.breakers is None:
            return None
        with self._lock:
            return self.breakers.get(self._compat_key(group_key))

    def _backoff_wait(self, seconds: float) -> None:
        """Pass retry-backoff time, interruptibly.

        With no injected ``sleep`` this waits on the closing event, so
        :meth:`close` wakes a worker mid-backoff instead of letting it sleep
        the full backoff out; an already-closing server skips the wait
        entirely.
        """

        if seconds <= 0 or self._closing.is_set():
            return
        if self._sleep is not None:
            self._sleep(seconds)
        else:
            self._closing.wait(seconds)

    def _fail_requests(self, requests, error: BaseException) -> None:
        for request in requests:
            for waiter in self.store.fail(request, error):
                self._reject_waiter(waiter, error)

    def _finish_waiter(
        self,
        waiter: Waiter,
        entry: CachedSolution,
        cache_hit: bool,
        batch_size: int,
        store_hit: bool = False,
        occupancy: int = 1,
    ) -> None:
        now = self.clock()
        deadline = waiter.deadline_at
        if deadline is not None and now > deadline:
            # The solve finished, but past the waiter's deadline: a straggler,
            # not a fail-fast — classified separately in the flight recorder.
            self._reject_waiter(
                waiter,
                DeadlineExceededError(
                    f"request {waiter.request.request_id!r} completed after its "
                    f"{waiter.request.deadline_seconds}s deadline"
                ),
                reason="straggler",
                batch_size=batch_size,
                occupancy=occupancy,
            )
            return
        latency = now - waiter.submitted_at
        self.stats.record_latency(latency)
        result = SolveResult(
            request_id=waiter.request.request_id,
            solution=entry.solution.copy(),
            iterations=entry.iterations,
            converged=entry.converged,
            cache_hit=cache_hit,
            batch_size=batch_size,
            latency_seconds=latency,
            deltas=list(entry.deltas),
        )
        with self._lock:
            self._inflight_ids.discard(waiter.request.request_id)
            self._completed[waiter.request.request_id] = result
            self._work_done.notify_all()
        obs_memory.sub(
            obs_memory.REQUEST_PAYLOADS, int(waiter.request.boundary_loop.nbytes)
        )
        if self.admission is not None:
            self.admission.release(waiter.request.tenant)
        self.slo.record(True, latency)
        if self.flight is not None:
            # Decide-then-observe: the slowness verdict uses the threshold
            # from *previous* samples only, so the retained set is a pure
            # function of the request stream (deterministic under replay).
            reason = None
            with self._lock:
                requeued = waiter.request.request_id in self._requeued_ids
                self._requeued_ids.discard(waiter.request.request_id)
            if self.store.attempts(waiter.request) > 0:
                reason = "retried"
            elif requeued:
                reason = "requeued"
            elif self.flight.is_slow(latency):
                reason = "slow"
            if reason is not None:
                self._retain_flight(
                    waiter, reason, latency=latency, cache_hit=cache_hit,
                    store_hit=store_hit, batch_size=batch_size,
                    occupancy=occupancy,
                )
            self.flight.observe_latency(latency)
        waiter.future._set_result(result)

    def _reject_waiter(
        self,
        waiter: Waiter,
        error: BaseException,
        reason: str | None = None,
        batch_size: int = 0,
        occupancy: int = 0,
    ) -> None:
        if isinstance(error, DeadlineExceededError):
            self.stats.record_timeout()
        with self._lock:
            self._inflight_ids.discard(waiter.request.request_id)
            self._work_done.notify_all()
        obs_memory.sub(
            obs_memory.REQUEST_PAYLOADS, int(waiter.request.boundary_loop.nbytes)
        )
        if self.admission is not None:
            self.admission.release(waiter.request.tenant)
        latency = self.clock() - waiter.submitted_at
        self.slo.record(False, latency)
        if self.flight is not None:
            if reason is None:
                reason = (
                    "deadline"
                    if isinstance(error, DeadlineExceededError)
                    else "failed"
                )
            record = self._retain_flight(
                waiter, reason, latency=latency, error=error,
                batch_size=batch_size, occupancy=occupancy,
            )
            # Let callers holding only the exception reach the trace.
            error.flight_record = record
        waiter.future._set_exception(error)

    def _retain_flight(
        self,
        waiter: Waiter,
        reason: str,
        latency: float | None = None,
        error: BaseException | None = None,
        cache_hit: bool = False,
        store_hit: bool = False,
        batch_size: int = 0,
        occupancy: int = 0,
    ) -> FlightRecord:
        """Retain one tail-sampled flight record with full attribution."""

        request = waiter.request
        with self._lock:
            fusion = self._compat_key(request.group_key)
        tracer = get_tracer()
        record = FlightRecord(
            request_id=request.request_id,
            tenant=request.tenant,
            reason=reason,
            latency_seconds=latency,
            error=repr(error) if error is not None else None,
            attrs={
                "fusion_key": repr(fusion),
                "mega_occupancy": int(occupancy),
                "batch_size": int(batch_size),
                "cache_hit": bool(cache_hit),
                "store_hit": bool(store_hit),
                "attempts": self.store.attempts(request),
            },
            exemplars={
                "latency_p50_seconds": self.stats.latency_percentile(50),
                "latency_p99_seconds": self.stats.latency_percentile(99),
                "pending": self.pending,
            },
            spans=tracer.current_root() if tracer is not None else None,
        )
        self.flight.retain(record)
        self.stats.record_flight(reason)
        return record

    # -- health --------------------------------------------------------------------

    def health(self) -> dict:
        """One-call health snapshot: SLO burn rates, memory, flight summary.

        Returns ``{"status", "alerts", "slo", "pending", "store", "ready",
        "live"}`` plus, when memory accounting is enabled, ``"memory"``
        (per-owner live/peak byte gauges, and budget/headroom/pressure when
        a budget is set) and ``"bytes_per_request"``; with a flight recorder
        attached, ``"flight"`` (retention counts and the current
        tail-latency threshold); with circuit breakers, ``"breakers"``
        (per-backend states); with a supervisor, ``"supervisor"`` (flights,
        deaths, hangs, restart budget); with a journal, ``"journal"``
        (append counts and fsync lag); with worker processes, ``"workers"``
        (per worker: name, pid, alive, runs, forks, peak RSS in MB and the
        report of its last stopped process).

        ``status`` is ``"draining"`` during :meth:`drain_and_close`, else
        ``"burning"`` when any objective's burn rate exceeds its threshold
        over *every* window, else ``"ok"``.  ``live`` is the liveness probe
        (dispatcher thread healthy and the supervisor's restart budget not
        exhausted); ``ready`` is the readiness probe (live, not draining,
        and memory pressure under 1.0).  The SLO and memory gauges are also
        published into ``stats.registry`` so the Prometheus/JSON exporters
        carry them.
        """

        alerts = self.slo.alerts()
        if self._draining:
            status = "draining"
        elif alerts:
            status = "burning"
        else:
            status = "ok"
        with self._lock:
            started, thread = self._started, self._dispatch_thread
        dispatcher_ok = (not started) or (
            thread is not None and thread.is_alive()
        )
        live = dispatcher_ok and not (
            self.supervisor is not None and self.supervisor.exhausted
        )
        snapshot = {
            "status": status,
            "alerts": alerts,
            "slo": self.slo.snapshot(),
            "pending": self.pending,
            "store": self.store.stats(),
            "live": live,
        }
        self.slo.publish(self.stats.registry)
        pressure = None
        accountant = obs_memory.get_accountant()
        if accountant is not None:
            snapshot["memory"] = accountant.snapshot()
            pressure = accountant.pressure()
            per_request = accountant.bytes_per_request(
                self.stats.completed_requests
            )
            snapshot["bytes_per_request"] = per_request
            accountant.publish(self.stats.registry)
            self.stats.registry.gauge("serving.bytes_per_request").set(per_request)
        snapshot["ready"] = (
            live and not self._draining and (pressure is None or pressure < 1.0)
        )
        if self.flight is not None:
            snapshot["flight"] = self.flight.summary()
        if self.breakers is not None:
            snapshot["breakers"] = self.breakers.snapshot()
        if self.supervisor is not None:
            snapshot["supervisor"] = self.supervisor.snapshot()
        if self.store.journal is not None:
            snapshot["journal"] = self.store.journal.stats()
        if self._workers:
            snapshot["workers"] = [worker.health() for worker in self._workers]
        return snapshot
