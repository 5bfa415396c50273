"""Idempotent request store: claim/upsert solve requests by canonical key.

Production clients retry: the same BVP arrives twice because an HTTP call
timed out, a queue redelivered, or two dashboard tabs asked for the same
figure.  The store makes those duplicates free and *safe*:

* every request is keyed by its canonical content (geometry, solve
  parameters, exact boundary bytes), never by its request id;
* the first submission of a key **claims** it: exactly one solve runs, no
  matter how many identical submissions race in behind it (they *attach* as
  extra waiters on the in-flight entry);
* completed keys are **upserted**: the solved outcome is stored once, a
  redelivered completion for the same key is detected and counted instead of
  clobbering or re-resolving anything, and later resubmissions replay the
  stored result without recomputing — every waiter, first or duplicate,
  receives bitwise-identical solution arrays;
* failed keys stay reclaimable: a fresh submission after a failure claims
  the key again and re-attempts the solve.

The store is the serving layer's analogue of the ``claim_filing`` /
``upsert_f3x`` pattern of transactional ingest pipelines: claim before work,
upsert on completion, and make both idempotent so at-least-once delivery
degenerates to exactly-once effects.

An entry's waiters are the callers' own
:class:`~repro.serving.futures.SolveFuture` objects, the same ones the
server keeps by request id.  The store never resolves them itself —
:meth:`RequestStore.fulfill`, :meth:`RequestStore.fail` and
:meth:`RequestStore.expire` *return* the detached waiters so the server can
apply per-waiter policy (request deadlines) while the store stays a pure
state machine.  All methods are thread-safe under one internal lock.

With a :class:`~repro.serving.journal.RequestJournal` attached the store is
also **durable**: every transition is journaled *before* the in-memory
mutation (write-ahead), and :meth:`RequestStore.recover` rebuilds a fresh
store from a journal after a process restart — completed keys replay
bitwise-identically, keys that were in flight at the crash are reported
orphaned and simply reclaimable, so the restarted server re-runs each of
them exactly once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..obs import memory as obs_memory
from .api import SolveRequest
from .cache import CachedSolution
from .futures import SolveFuture
from .journal import RecoveryReport, RequestJournal

__all__ = [
    "PENDING",
    "IN_FLIGHT",
    "DONE",
    "FAILED",
    "StoreEntry",
    "Claim",
    "RequestStore",
    "TenantQuota",
    "AdmissionController",
]

#: entry lifecycle states (claim moves PENDING -> IN_FLIGHT; upsert closes it)
PENDING = "pending"
IN_FLIGHT = "in_flight"
DONE = "done"
FAILED = "failed"


@dataclass
class StoreEntry:
    """State of one canonical request key."""

    key: tuple
    state: str = PENDING
    result: CachedSolution | None = None
    error: BaseException | None = None
    #: solve attempts spent on this key across claims (retries included)
    attempts: int = 0
    waiters: list[SolveFuture] = field(default_factory=list)


@dataclass(frozen=True)
class Claim:
    """Outcome of :meth:`RequestStore.claim`.

    ``owner`` — this submission must run (or enqueue) the solve.
    ``replay`` — the key was already DONE; serve ``entry.result`` directly.
    Neither — the key is in flight; the waiter was attached and will be
    resolved when the owner's solve completes.
    """

    owner: bool
    replay: bool
    entry: StoreEntry


class RequestStore:
    """Thread-safe claim/upsert store of solve requests by canonical key.

    Parameters
    ----------
    capacity:
        Maximum number of *completed* (DONE or FAILED) entries retained for
        replay, LRU-evicted.  In-flight entries are never evicted.
    journal:
        Optional :class:`~repro.serving.journal.RequestJournal` making the
        store durable: claim/complete/fail transitions are appended (write-
        ahead) before the in-memory mutation.  Use :meth:`recover` on a
        fresh store to rebuild state from a journal after a restart.
    """

    def __init__(self, capacity: int = 2048, journal: RequestJournal | None = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.journal = journal
        self._lock = threading.Lock()
        self._inflight: dict[tuple, StoreEntry] = {}
        self._settled: OrderedDict[tuple, StoreEntry] = OrderedDict()
        # -- counters (exposed via stats()) --
        self.claims = 0              #: claims that made this submission the owner
        self.attached = 0            #: duplicate submissions attached to an in-flight key
        self.replays = 0             #: submissions answered from a DONE entry
        self.duplicate_deliveries = 0  #: completions redelivered for an already-DONE key
        self.failures = 0            #: keys settled FAILED
        self.evictions = 0           #: settled entries dropped by the LRU bound
        self.recovered = 0           #: DONE entries rebuilt from a journal

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight) + len(self._settled)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- keys ---------------------------------------------------------------------

    def key_for(self, request: SolveRequest) -> tuple:
        """Canonical content key of a request (excludes id, tenant, deadline).

        The boundary loop enters as its exact float64 bytes: duplicates must
        be bitwise resubmissions.
        """

        return (
            request.geometry,
            request.init_mode,
            request.check_interval,
            request.tol,
            request.max_iterations,
            request.boundary_loop.tobytes(),
        )

    # -- claim --------------------------------------------------------------------

    def claim(self, request: SolveRequest, waiter: SolveFuture) -> Claim:
        """Claim a key for ``waiter`` (or attach/replay if already known)."""

        key = self.key_for(request)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters.append(waiter)
                self.attached += 1
                return Claim(owner=False, replay=False, entry=entry)
            settled = self._settled.get(key)
            if settled is not None and settled.state == DONE:
                self._settled.move_to_end(key)
                self.replays += 1
                return Claim(owner=False, replay=True, entry=settled)
            # Unknown key, or a FAILED one: (re)claim it.  The journal is
            # written first (WAL: a torn write raises before any mutation).
            if self.journal is not None:
                self.journal.append_claim(key)
            entry = StoreEntry(key=key, state=IN_FLIGHT, waiters=[waiter])
            if settled is not None:
                entry.attempts = settled.attempts
                del self._settled[key]
            self._inflight[key] = entry
            self.claims += 1
            return Claim(owner=True, replay=False, entry=entry)

    # -- upsert -------------------------------------------------------------------

    def fulfill(self, request: SolveRequest, result: CachedSolution) -> list[SolveFuture]:
        """Upsert the solved outcome of a key; return the waiters to resolve.

        Idempotent: a redelivered completion for an already-DONE key is
        counted in ``duplicate_deliveries`` and returns no waiters (they
        were already detached by the first delivery), so at-least-once
        delivery of solver outcomes never double-resolves a future.
        """

        key = self.key_for(request)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                settled = self._settled.get(key)
                if settled is not None and settled.state == DONE:
                    self.duplicate_deliveries += 1
                    return []
                # Completion for a key the store never saw (store bypassed or
                # entry evicted mid-flight): upsert it fresh.
                entry = StoreEntry(key=key)
            # WAL ordering: journal the completion before mutating.  A torn
            # write raises here with the entry still in flight, so its
            # waiters remain reachable for the server's failure handling.
            if self.journal is not None:
                self.journal.append_complete(key, result)
            self._inflight.pop(key, None)
            entry.state = DONE
            entry.result = result
            entry.error = None
            waiters, entry.waiters = entry.waiters, []
            self._settle(key, entry)
            return waiters

    def fail(self, request: SolveRequest, error: BaseException) -> list[SolveFuture]:
        """Settle a key FAILED (reclaimable); return the waiters to reject."""

        key = self.key_for(request)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                return []
            if self.journal is not None:
                self.journal.append_fail(key, repr(error))
            self._inflight.pop(key, None)
            entry.state = FAILED
            entry.error = error
            waiters, entry.waiters = entry.waiters, []
            self.failures += 1
            self._settle(key, entry)
            return waiters

    def expire(self, request: SolveRequest, now: float) -> list[SolveFuture] | None:
        """Atomically fail a key iff *every* waiter's deadline has passed.

        The fail-fast path of the deadline policy: called at batch dispatch,
        it removes a request from the solve only when no attached waiter
        could still use the result.  Returns the expired waiters, or
        ``None`` if the entry is absent or any waiter is still live (the
        solve proceeds; per-waiter deadlines are re-checked on completion).
        """

        key = self.key_for(request)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None or not entry.waiters:
                return None
            deadlines = [w.deadline_at for w in entry.waiters]
            if any(d is None or d > now for d in deadlines):
                return None
            if self.journal is not None:
                self.journal.append_fail(key, "expired before dispatch")
            del self._inflight[key]
            entry.state = FAILED
            waiters, entry.waiters = entry.waiters, []
            self.failures += 1
            self._settle(key, entry)
            return waiters

    def record_attempt(self, request: SolveRequest) -> int:
        """Count one solve attempt against a key; returns the new total."""

        key = self.key_for(request)
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                return 0
            entry.attempts += 1
            return entry.attempts

    def attempts(self, request: SolveRequest) -> int:
        """Solve attempts recorded against a key (in flight or settled)."""

        key = self.key_for(request)
        with self._lock:
            entry = self._inflight.get(key) or self._settled.get(key)
            return entry.attempts if entry is not None else 0

    def peek(self, key: tuple) -> CachedSolution | None:
        """The settled DONE result of a canonical key, without claiming it.

        Recovery tooling and tests use this to compare replayed results
        bitwise; it does not bump the LRU or any counter.
        """

        with self._lock:
            entry = self._settled.get(key)
            if entry is not None and entry.state == DONE:
                return entry.result
            return None

    # -- durability ---------------------------------------------------------------

    def recover(self, journal: RequestJournal) -> RecoveryReport:
        """Rebuild store state from a journal and attach it for appending.

        Replays every valid record in order and installs the *final* state
        of each key: keys whose last transition was a completion become
        settled DONE entries carrying the exact pre-crash result bytes
        (LRU-bounded by ``capacity``, memory-accounted like any settle);
        keys that last failed stay absent (reclaimable, as a live FAILED
        settle would be); keys whose last record is a bare claim are
        returned as ``orphaned`` — the crash interrupted their solve, and
        the next submission re-claims each exactly once.
        """

        records = journal.replay()
        final: dict[tuple, tuple[str, object]] = {}
        for kind, key, data in records:
            if kind == RequestJournal.CLAIM:
                final[key] = (IN_FLIGHT, None)
            elif kind == RequestJournal.COMPLETE:
                final[key] = (DONE, data)
            elif kind == RequestJournal.FAIL:
                final[key] = (FAILED, data)
        completed = failed = 0
        orphaned: list[tuple] = []
        with self._lock:
            for key, (state, data) in final.items():
                if state == DONE:
                    self._settle(key, StoreEntry(key=key, state=DONE, result=data))
                    completed += 1
                elif state == FAILED:
                    failed += 1
                else:
                    orphaned.append(key)
            self.recovered += completed
        self.journal = journal
        return RecoveryReport(
            records=len(records),
            completed=completed,
            failed=failed,
            orphaned=tuple(orphaned),
            truncated_bytes=journal.truncated_bytes,
        )

    def checkpoint_journal(self) -> int:
        """Sync and compact the attached journal down to the settled DONE set.

        Returns the number of records in the compacted journal (``0`` and a
        no-op without a journal).  Called by ``Server.drain_and_close()``
        after in-flight work has finished, so the rewritten journal is a
        complete, claim-free snapshot of everything replayable.
        """

        journal = self.journal
        if journal is None:
            return 0
        with self._lock:
            entries = [
                (key, entry.result)
                for key, entry in self._settled.items()
                if entry.state == DONE and entry.result is not None
            ]
        return journal.checkpoint(entries)

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _entry_bytes(entry: StoreEntry) -> int:
        # Only DONE entries retain array payloads worth accounting.
        if entry.state == DONE and entry.result is not None:
            return entry.result.nbytes
        return 0

    def _settle(self, key: tuple, entry: StoreEntry) -> None:
        # Caller holds self._lock.
        previous = self._settled.get(key)
        if previous is not None:
            self._settled.move_to_end(key)
            if (nbytes := self._entry_bytes(previous)):
                obs_memory.sub(obs_memory.REQUEST_STORE, nbytes)
        if (nbytes := self._entry_bytes(entry)):
            obs_memory.add(obs_memory.REQUEST_STORE, nbytes)
        self._settled[key] = entry
        while len(self._settled) > self.capacity:
            _, evicted = self._settled.popitem(last=False)
            if (nbytes := self._entry_bytes(evicted)):
                obs_memory.sub(obs_memory.REQUEST_STORE, nbytes)
            self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "in_flight": len(self._inflight),
                "settled": len(self._settled),
                "capacity": self.capacity,
                "claims": self.claims,
                "attached": self.attached,
                "replays": self.replays,
                "duplicate_deliveries": self.duplicate_deliveries,
                "failures": self.failures,
                "evictions": self.evictions,
                "recovered": self.recovered,
            }


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    ``max_pending`` bounds how many of the tenant's requests may be queued
    or in flight at once; ``None`` admits everything.

    ``priority`` orders tenants for memory-driven load shedding (see
    :meth:`AdmissionController.decide`): as live bytes approach the memory
    accountant's budget, priority-0 tenants are shed first and higher
    priorities survive to higher pressure.
    """

    max_pending: int | None = None
    priority: int = 0

    def __post_init__(self):
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


class AdmissionController:
    """Sheds load per tenant instead of queueing unboundedly.

    Two independent shed policies run at submit time:

    * **quota** — the classic per-tenant pending bound (``max_pending``);
    * **memory** — when the process-wide memory accountant
      (:mod:`repro.obs.memory`) carries a live-bytes *budget*, admission
      degrades gracefully as live bytes approach it: a tenant with priority
      ``p`` is shed once pressure (live/budget) reaches
      ``shed_start_fraction + (1 - shed_start_fraction) * p / (top + 1)``
      where ``top`` is the highest configured priority — so the lowest
      priority sheds first at ``shed_start_fraction`` and even the highest
      priority sheds before the budget is fully exhausted.

    Parameters
    ----------
    quotas:
        ``{tenant: TenantQuota}``; ``default`` applies to tenants without an
        explicit entry (``None`` admits them unconditionally — though
        memory shedding still applies to them at priority 0).
    shed_start_fraction:
        Memory pressure at which priority-0 shedding begins.
    """

    def __init__(self, quotas: dict | None = None,
                 default: TenantQuota | None = None,
                 shed_start_fraction: float = 0.8):
        if not 0.0 < shed_start_fraction <= 1.0:
            raise ValueError("shed_start_fraction must be in (0, 1]")
        self.quotas = dict(quotas or {})
        self.default = default
        self.shed_start_fraction = float(shed_start_fraction)
        self._lock = threading.Lock()
        self._pending: dict[str, int] = {}
        self.memory_sheds = 0  #: requests refused under memory pressure

    def pending(self, tenant: str) -> int:
        with self._lock:
            return self._pending.get(tenant, 0)

    def limit_for(self, request: SolveRequest) -> int | None:
        """Effective pending limit for this request's tenant, or ``None``."""

        quota = self.quotas.get(request.tenant, self.default)
        return quota.max_pending if quota is not None else None

    def priority_for(self, tenant: str) -> int:
        """Shed priority of a tenant (its quota's, or 0 without one)."""

        quota = self.quotas.get(tenant, self.default)
        return quota.priority if quota is not None else 0

    def shed_threshold(self, priority: int) -> float:
        """Memory pressure at which requests of ``priority`` start shedding."""

        top = max(
            [q.priority for q in self.quotas.values()]
            + [self.default.priority if self.default is not None else 0]
        )
        start = self.shed_start_fraction
        return start + (1.0 - start) * min(priority, top) / (top + 1)

    def decide(self, request: SolveRequest) -> str | None:
        """Admit (and count) the request, or return why it was refused.

        ``None`` means admitted (the tenant's pending count was bumped;
        pair with :meth:`release`).  ``"memory"`` means the live-bytes
        budget is under pressure and this tenant's priority lost;
        ``"quota"`` means the tenant is over its pending limit.
        """

        accountant = obs_memory.get_accountant()
        if accountant is not None:
            pressure = accountant.pressure()
            if pressure is not None:
                threshold = self.shed_threshold(self.priority_for(request.tenant))
                if pressure >= threshold:
                    with self._lock:
                        self.memory_sheds += 1
                    return "memory"
        limit = self.limit_for(request)
        with self._lock:
            count = self._pending.get(request.tenant, 0)
            if limit is not None and count >= limit:
                return "quota"
            self._pending[request.tenant] = count + 1
            return None

    def admit(self, request: SolveRequest) -> bool:
        """Admit (and count) the request, or refuse it (quota or memory)."""

        return self.decide(request) is None

    def release(self, tenant: str) -> None:
        """Return one admitted slot (request completed, failed or expired)."""

        with self._lock:
            count = self._pending.get(tenant, 0)
            if count <= 1:
                self._pending.pop(tenant, None)
            else:
                self._pending[tenant] = count - 1
