"""Worker supervision and circuit breaking for the serving pipeline.

Two independent pieces of the robustness layer live here:

:class:`WorkerSupervisor` — heartbeat-based supervision of the solve
workers.  Every batch group a worker picks up registers a *flight*
(:meth:`begin`), the worker heartbeats at stage boundaries (batch prepared,
each solve attempt, solve finished) and ends the flight when the group
resolves.  :meth:`check` flags flights whose last heartbeat is older than
the timeout — covering both a hung solve and a live worker whose heartbeats
are being lost — and hands their in-flight requests back to the server for
requeueing.  Deaths (:class:`~repro.serving.faults.WorkerDeath` escaping a
batch: injected, or a worker's compute process that really died, whose
replacement the worker forks at its next run) and hangs both count as a
*restart*.  The restart budget (``max_restarts``) bounds crash loops: once
exhausted the supervisor reports itself dead and the server fails requests
instead of requeueing forever.

Requeue safety is inherited from the idempotent
:class:`~repro.serving.store.RequestStore`: a requeued request whose
original worker turns out to still be alive produces a *duplicate delivery*
(counted, waiters untouched) rather than a double resolution, so the effect
of every request stays exactly-once no matter how the race resolves.

:class:`CircuitBreaker` / :class:`BreakerBoard` — per-backend circuit
breakers (the server keys them by its solvers' ``fusion_key()``) converting
repeated backend failures into fast typed rejections
(:class:`~repro.serving.futures.CircuitOpenError`) instead of retry storms.
The classic three-state machine:

* **closed** — requests flow; ``failure_threshold`` *consecutive* solve
  failures trip the breaker;
* **open** — submissions for that fusion key are rejected at the front door
  until ``reset_timeout_seconds`` passes;
* **half-open** — up to ``half_open_probes`` requests are let through; one
  success closes the breaker, one failure re-opens it.

Both classes take an injectable ``clock`` so every transition is
deterministic under the fake clocks the serving tests use.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..mosaic.core import PLAN_CACHE

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "WorkerFlight",
    "WorkerSupervisor",
    "BreakerPolicy",
    "CircuitBreaker",
    "BreakerBoard",
]

#: circuit-breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


# ---------------------------------------------------------------------------
# Worker supervision
# ---------------------------------------------------------------------------


@dataclass
class WorkerFlight:
    """One batch group currently executing on one worker."""

    worker: str
    requests: list
    started_at: float
    last_heartbeat: float


class WorkerSupervisor:
    """Heartbeat supervision of the solve workers, with a restart budget.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for deterministic tests).
    heartbeat_timeout_seconds:
        A flight whose last heartbeat is older than this is declared hung.
    max_restarts:
        Total restart budget across all workers; once spent the supervisor
        is ``exhausted`` and the server fails work instead of requeueing
        (a crash-loop brake).
    """

    def __init__(
        self,
        clock=time.monotonic,
        heartbeat_timeout_seconds: float = 30.0,
        max_restarts: int = 16,
    ):
        if heartbeat_timeout_seconds <= 0:
            raise ValueError("heartbeat_timeout_seconds must be positive")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.clock = clock
        self.heartbeat_timeout_seconds = float(heartbeat_timeout_seconds)
        self.max_restarts = int(max_restarts)
        self._lock = threading.Lock()
        self._flights: dict[str, WorkerFlight] = {}
        self._restarts_by_worker: dict[str, int] = {}
        # -- counters --
        self.deaths = 0    #: workers that died (WorkerDeath escaped a batch)
        self.hangs = 0     #: flights flagged by heartbeat timeout
        self.restarts = 0  #: restarts counted (deaths + hangs)

    # -- flight lifecycle ---------------------------------------------------------

    def begin(self, worker: str, requests: list, now: float | None = None) -> None:
        """Register a flight: ``worker`` starts executing ``requests``."""

        now = self.clock() if now is None else now
        with self._lock:
            self._flights[worker] = WorkerFlight(
                worker=worker, requests=list(requests),
                started_at=now, last_heartbeat=now,
            )

    def heartbeat(self, worker: str, now: float | None = None) -> None:
        """Refresh a flight's liveness (no-op for unknown/ended flights)."""

        now = self.clock() if now is None else now
        with self._lock:
            flight = self._flights.get(worker)
            if flight is not None:
                flight.last_heartbeat = now

    def end(self, worker: str) -> None:
        """The flight resolved (successfully or not); stop watching it."""

        with self._lock:
            self._flights.pop(worker, None)

    def check(self, now: float | None = None) -> list[WorkerFlight]:
        """Pop and return every flight whose heartbeat has gone stale.

        Each returned flight counts as a hang and a restart; the
        caller (the server) requeues its requests.  A popped flight's
        original worker may still be alive and finish later — the store's
        idempotent upsert absorbs that as a duplicate delivery.
        """

        now = self.clock() if now is None else now
        stale: list[WorkerFlight] = []
        with self._lock:
            for worker, flight in list(self._flights.items()):
                if now - flight.last_heartbeat > self.heartbeat_timeout_seconds:
                    stale.append(self._flights.pop(worker))
            for flight in stale:
                self.hangs += 1
                self._restart_locked(flight.worker)
        return stale

    # -- restarts -----------------------------------------------------------------

    def record_death(self, worker: str) -> None:
        """Count one worker death and its restart."""

        with self._lock:
            self.deaths += 1
            self._flights.pop(worker, None)
            self._restart_locked(worker)

    def _restart_locked(self, worker: str) -> None:
        self.restarts += 1
        self._restarts_by_worker[worker] = self._restarts_by_worker.get(worker, 0) + 1

    @property
    def exhausted(self) -> bool:
        """The restart budget is spent; stop requeueing, start failing."""

        with self._lock:
            return self.restarts > self.max_restarts

    # -- introspection ------------------------------------------------------------

    def active_flights(self) -> list[WorkerFlight]:
        with self._lock:
            return list(self._flights.values())

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "active_flights": len(self._flights),
                "deaths": self.deaths,
                "hangs": self.hangs,
                "restarts": self.restarts,
                "max_restarts": self.max_restarts,
                "exhausted": self.restarts > self.max_restarts,
                "restarts_by_worker": dict(self._restarts_by_worker),
            }


# ---------------------------------------------------------------------------
# Circuit breakers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/reset policy shared by every breaker on a board."""

    failure_threshold: int = 5        #: consecutive failures that trip CLOSED->OPEN
    reset_timeout_seconds: float = 5.0  #: OPEN cool-down before probing
    half_open_probes: int = 1         #: concurrent probes allowed while HALF_OPEN

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.reset_timeout_seconds < 0:
            raise ValueError("reset_timeout_seconds must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")


class CircuitBreaker:
    """One closed/open/half-open breaker over a failure-prone backend."""

    def __init__(self, policy: BreakerPolicy | None = None, clock=time.monotonic):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes = 0
        # -- counters --
        self.rejections = 0  #: allow() calls refused while open
        self.opens = 0       #: CLOSED/HALF_OPEN -> OPEN transitions
        self.closes = 0      #: HALF_OPEN -> CLOSED transitions

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked(self.clock())
            return self._state

    def allow(self) -> bool:
        """Whether a new request for this backend may proceed right now."""

        with self._lock:
            now = self.clock()
            self._maybe_half_open_locked(now)
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._probes < self.policy.half_open_probes:
                self._probes += 1
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        """A solve for this backend succeeded (closes a half-open breaker)."""

        with self._lock:
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probes = 0
                self.closes += 1

    def record_failure(self) -> None:
        """A solve attempt failed; may trip the breaker open."""

        with self._lock:
            now = self.clock()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                # The probe failed: back to open, fresh cool-down.
                self._state = OPEN
                self._opened_at = now
                self._probes = 0
                self.opens += 1
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.policy.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = now
                self.opens += 1

    def _maybe_half_open_locked(self, now: float) -> None:
        if (
            self._state == OPEN
            and now - self._opened_at >= self.policy.reset_timeout_seconds
        ):
            self._state = HALF_OPEN
            self._probes = 0

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open_locked(self.clock())
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "rejections": self.rejections,
                "opens": self.opens,
                "closes": self.closes,
            }


class BreakerBoard:
    """Lazily-created :class:`CircuitBreaker` per backend key.

    The server keys breakers by a group's mega-fusion compatibility key
    (falling back to the geometry group key when a group never fuses), so
    one failing backend — one solver configuration — trips exactly the
    requests that would have hit it, and unrelated geometries keep serving.
    The board is an LRU of ``PLAN_CACHE.capacity`` breakers that only ever
    evicts *closed* ones: an open or half-open breaker is kept until it
    closes, so eviction never lets a failing backend's traffic back in.
    """

    def __init__(self, policy: BreakerPolicy | None = None, clock=time.monotonic):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.clock = clock
        self._lock = threading.Lock()
        self._breakers: OrderedDict = OrderedDict()

    def get(self, key) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is not None:
                self._breakers.move_to_end(key)
                return breaker
            breaker = self._breakers[key] = CircuitBreaker(self.policy, clock=self.clock)
            excess = len(self._breakers) - PLAN_CACHE.capacity
            if excess > 0:
                closed = [k for k, b in self._breakers.items()
                          if b is not breaker and b.state == CLOSED]
                for stale in closed[:excess]:
                    del self._breakers[stale]
            return breaker

    def __len__(self) -> int:
        with self._lock:
            return len(self._breakers)

    def snapshot(self) -> dict:
        """Health view: per-key breaker snapshots plus state tallies."""

        with self._lock:
            breakers = dict(self._breakers)
        per_key = {repr(key): b.snapshot() for key, b in breakers.items()}
        tally = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        for snap in per_key.values():
            tally[snap["state"]] += 1
        return {"keys": per_key, "states": tally}
