"""repro.serving — a batched inference service for Mosaic Flow solves.

Turns many concurrent boundary-value-problem queries into the large fused
solver batches the device-level execution model exploits (Figures 8/9 of the
paper): requests are validated and canonicalized (:mod:`.api`), claimed in an
idempotent request store so duplicates and retries never recompute
(:mod:`.store`), answered from an LRU solution cache when possible
(:mod:`.cache`), dynamically batched per geometry under one size-or-deadline
policy (:mod:`.batcher`), and executed as lattice runs whose solver calls
stack the rows of every fusion-compatible batch into one call
(:func:`.compute.lattice_run` over :class:`repro.mosaic.core.LatticeRun`;
batches fuse when their solvers' ``fusion_key()`` values agree).

The front-end (:mod:`.server`) is an async pipeline: non-blocking
``submit_async`` returning :mod:`.futures`, a background dispatcher handing
one balanced partition to each idle solve worker (two or more workers each
compute in a forked process, :mod:`.compute`), capped-backoff retries,
request deadlines and per-tenant admission control — with the classic synchronous ``submit`` /
``drain`` API as thin wrappers over the same path.  Every robustness path is
deterministically testable through the flag-guarded fault hooks of
:mod:`.faults`, and :mod:`.stats` reports latency, cache, batching and
retry/timeout/rejection counters.

The durability/supervision layer makes the pipeline survive crashes: the
store journals every transition write-ahead (:mod:`.journal`) so a restarted
server replays completed keys bitwise-identically, a heartbeat supervisor
with per-backend circuit breakers (:mod:`.supervisor`) requeues the work of
crashed or hung workers exactly-once and fast-fails requests to failing
backends, and memory-budget-driven admission sheds lowest-priority tenants
first as live bytes approach the budget.
"""

from .api import RequestValidationError, SolveRequest, SolveResult
from .batcher import Batch, BatchPolicy, DynamicBatcher
from .cache import CachedSolution, SolutionCache
from .faults import (
    BATCH_ASSEMBLY,
    CRASH,
    DEATH,
    DELAY,
    DROP,
    DUPLICATE,
    JOURNAL_WRITE,
    STORE_DELIVER,
    TORN,
    WORKER_DEATH,
    WORKER_HEARTBEAT,
    WORKER_SOLVE,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InjectedFault,
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
from .journal import JournalCorruptError, RecoveryReport, RequestJournal
from .server import Server, default_solver_factory
from .stats import ServingStats
from .store import AdmissionController, RequestStore, TenantQuota
from .supervisor import (
    BreakerBoard,
    BreakerPolicy,
    CircuitBreaker,
    WorkerSupervisor,
)

__all__ = [
    "RequestValidationError",
    "SolveRequest",
    "SolveResult",
    "Batch",
    "BatchPolicy",
    "DynamicBatcher",
    "CachedSolution",
    "SolutionCache",
    "Server",
    "default_solver_factory",
    "ServingStats",
    # async front-end
    "SolveFuture",
    "SolveError",
    "RetryExhaustedError",
    "DeadlineExceededError",
    "QuotaExceededError",
    "MemoryPressureError",
    "CircuitOpenError",
    "ServerClosedError",
    # idempotent store + admission control
    "RequestStore",
    "TenantQuota",
    "AdmissionController",
    # durability + supervision
    "RequestJournal",
    "RecoveryReport",
    "JournalCorruptError",
    "WorkerSupervisor",
    "CircuitBreaker",
    "BreakerBoard",
    "BreakerPolicy",
    # fault injection
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "InjectedFault",
    "WorkerDeath",
    "WORKER_SOLVE",
    "BATCH_ASSEMBLY",
    "STORE_DELIVER",
    "WORKER_DEATH",
    "WORKER_HEARTBEAT",
    "JOURNAL_WRITE",
    "CRASH",
    "DELAY",
    "DUPLICATE",
    "DEATH",
    "DROP",
    "TORN",
]
