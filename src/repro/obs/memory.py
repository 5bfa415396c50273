"""Byte-accounting registry: who owns the bytes this process is holding.

The serving and engine layers keep long-lived buffers in several places —
compiled-plan buffers (:class:`~repro.engine.runtime.ExecutionPlan` /
:class:`~repro.engine.bucketing.BucketedPlan` entries of a
:class:`~repro.engine.runtime.PlanCache`), LRU solution-cache entries,
settled request-store results, per-request boundary payloads, cached
lattice index plans.  ``psutil``-style RSS numbers cannot attribute any of
it; this module does, with explicit instrumentation:

    from ..obs import memory as obs_memory

    obs_memory.add("engine.plan_buffers", buffer.nbytes)
    ...
    obs_memory.sub("engine.plan_buffers", buffer.nbytes)

Each *owner* (a dotted string) gets live/peak gauges plus cumulative
allocation totals, and the registry derives a machine-independent
``bytes_per_request`` stream for the benchmark trajectory gate (bytes are
bytes on every machine, unlike seconds).

**Accounting is off by default** and the disabled path mirrors the tracer's:
:func:`add`/:func:`sub` read one module global and return — no allocation,
no locking, no clock — so permanent instrumentation of allocation sites is
safe (bounded below 2% by ``benchmarks/test_obs_overhead.py``).
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "ENGINE_PLAN_BUFFERS",
    "SOLUTION_CACHE",
    "REQUEST_STORE",
    "REQUEST_PAYLOADS",
    "LATTICE_PLANS",
    "OwnerStats",
    "MemoryAccountant",
    "add",
    "sub",
    "enable_memory_accounting",
    "disable_memory_accounting",
    "get_accountant",
]

#: canonical owner names used by the built-in instrumentation sites
ENGINE_PLAN_BUFFERS = "engine.plan_buffers"
SOLUTION_CACHE = "serving.solution_cache"
REQUEST_STORE = "serving.request_store"
REQUEST_PAYLOADS = "serving.request_payloads"
LATTICE_PLANS = "mosaic.lattice_plans"


class OwnerStats:
    """Byte accounting of one owner (mutated under the accountant's lock)."""

    __slots__ = ("live", "peak", "allocated", "freed", "allocs", "frees")

    def __init__(self):
        self.live = 0        #: bytes currently held
        self.peak = 0        #: high-water mark of ``live``
        self.allocated = 0   #: cumulative bytes ever added
        self.freed = 0       #: cumulative bytes released (``allocated - freed == live``)
        self.allocs = 0      #: number of add() events
        self.frees = 0       #: number of sub() events

    def as_dict(self) -> dict:
        return {
            "live_bytes": self.live,
            "peak_bytes": self.peak,
            "allocated_bytes": self.allocated,
            "freed_bytes": self.freed,
            "allocs": self.allocs,
            "frees": self.frees,
        }


class MemoryAccountant:
    """Thread-safe per-owner byte accounting with live/peak/cumulative gauges.

    Parameters
    ----------
    budget_bytes:
        Optional live-bytes budget.  Setting one turns the accountant from a
        pure observer into the signal driving graceful degradation: the
        serving :class:`~repro.serving.store.AdmissionController` compares
        :meth:`pressure` (total live bytes over budget) against per-priority
        shed thresholds and sheds lowest-priority tenants first as live
        bytes approach the budget.
    """

    def __init__(self, budget_bytes: int | None = None):
        self._lock = threading.Lock()
        self._owners: dict[str, OwnerStats] = {}
        self._budget: int | None = None
        if budget_bytes is not None:
            self.set_budget(budget_bytes)

    # -- recording ----------------------------------------------------------------

    def add(self, owner: str, nbytes: int) -> None:
        """Charge ``nbytes`` to ``owner`` (an allocation or insertion)."""

        nbytes = int(nbytes)
        with self._lock:
            stats = self._owners.get(owner)
            if stats is None:
                stats = self._owners[owner] = OwnerStats()
            stats.live += nbytes
            if stats.live > stats.peak:
                stats.peak = stats.live
            stats.allocated += nbytes
            stats.allocs += 1

    def sub(self, owner: str, nbytes: int) -> None:
        """Release ``nbytes`` from ``owner`` (a free or eviction).

        Clamped at zero: releasing bytes that were charged while accounting
        was disabled must not drive the gauge negative.
        """

        nbytes = int(nbytes)
        with self._lock:
            stats = self._owners.get(owner)
            if stats is None:
                stats = self._owners[owner] = OwnerStats()
            released = min(nbytes, stats.live)
            stats.live -= released
            stats.freed += released
            stats.frees += 1

    # -- reads --------------------------------------------------------------------

    def owners(self) -> list[str]:
        with self._lock:
            return sorted(self._owners)

    def live_bytes(self, owner: str | None = None) -> int:
        """Live bytes of one owner, or the total across all owners."""

        with self._lock:
            if owner is not None:
                stats = self._owners.get(owner)
                return stats.live if stats is not None else 0
            return sum(s.live for s in self._owners.values())

    def peak_bytes(self, owner: str | None = None) -> int:
        """Peak live bytes of one owner, or the sum of per-owner peaks.

        The summed total is an upper bound on the true joint peak (owners
        may not peak simultaneously), which is the conservative direction
        for a memory gate.
        """

        with self._lock:
            if owner is not None:
                stats = self._owners.get(owner)
                return stats.peak if stats is not None else 0
            return sum(s.peak for s in self._owners.values())

    def allocated_bytes(self, owner: str | None = None) -> int:
        """Cumulative bytes ever charged (the ``bytes_per_request`` numerator)."""

        with self._lock:
            if owner is not None:
                stats = self._owners.get(owner)
                return stats.allocated if stats is not None else 0
            return sum(s.allocated for s in self._owners.values())

    def event_count(self) -> int:
        """Total add/sub events recorded (overhead-benchmark site count)."""

        with self._lock:
            return sum(s.allocs + s.frees for s in self._owners.values())

    def set_budget(self, budget_bytes: int | None) -> None:
        """Install (or clear, with ``None``) the live-bytes budget."""

        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes <= 0:
                raise ValueError("budget_bytes must be positive (or None)")
        with self._lock:
            self._budget = budget_bytes

    @property
    def budget_bytes(self) -> int | None:
        with self._lock:
            return self._budget

    def headroom_bytes(self) -> int | None:
        """Budget minus total live bytes (floored at 0), or ``None`` unbudgeted."""

        with self._lock:
            if self._budget is None:
                return None
            live = sum(s.live for s in self._owners.values())
            return max(0, self._budget - live)

    def pressure(self) -> float | None:
        """Total live bytes as a fraction of the budget, or ``None`` unbudgeted.

        Exceeding the budget returns values above 1.0 — shed decisions
        compare this against thresholds in (0, 1], so over-budget pressure
        sheds every priority.
        """

        with self._lock:
            if self._budget is None:
                return None
            live = sum(s.live for s in self._owners.values())
            return live / self._budget

    def bytes_per_request(self, completed_requests: int) -> float:
        """Machine-independent cumulative-bytes-per-request ratio."""

        if completed_requests <= 0:
            return 0.0
        return self.allocated_bytes() / completed_requests

    def snapshot(self) -> dict:
        """Plain-dict snapshot: per-owner stats plus the totals."""

        with self._lock:
            owners = {name: stats.as_dict() for name, stats in sorted(self._owners.items())}
            budget = self._budget
        snap = {
            "owners": owners,
            "total_live_bytes": sum(o["live_bytes"] for o in owners.values()),
            "total_peak_bytes": sum(o["peak_bytes"] for o in owners.values()),
            "total_allocated_bytes": sum(o["allocated_bytes"] for o in owners.values()),
        }
        if budget is not None:
            snap["budget_bytes"] = budget
            snap["headroom_bytes"] = max(0, budget - snap["total_live_bytes"])
            snap["pressure"] = snap["total_live_bytes"] / budget
        return snap

    def publish(self, registry) -> None:
        """Mirror the gauges into a :class:`~repro.obs.metrics.MetricsRegistry`.

        Uses labeled gauges (``memory_live_bytes{owner="..."}``) so the
        Prometheus exporter attributes every byte.
        """

        snap = self.snapshot()
        for name, stats in snap["owners"].items():
            labels = {"owner": name}
            registry.gauge("memory.live_bytes", labels=labels).set(stats["live_bytes"])
            registry.gauge("memory.peak_bytes", labels=labels).set(stats["peak_bytes"])
            registry.gauge("memory.allocated_bytes", labels=labels).set(
                stats["allocated_bytes"]
            )
        if "budget_bytes" in snap:
            # Budget/headroom/pressure ride the export so dashboards and
            # health() agree on when shedding starts.
            registry.gauge("memory.budget_bytes").set(snap["budget_bytes"])
            registry.gauge("memory.headroom_bytes").set(snap["headroom_bytes"])
            registry.gauge("memory.pressure").set(snap["pressure"])

    def report(self) -> str:
        """Terminal table of per-owner live/peak/cumulative bytes."""

        snap = self.snapshot()
        lines = ["=== memory accounting ===",
                 f"{'owner':<32s} {'live':>12s} {'peak':>12s} {'allocated':>12s}"]
        for name, stats in snap["owners"].items():
            lines.append(
                f"{name:<32s} {stats['live_bytes']:>12,d} "
                f"{stats['peak_bytes']:>12,d} {stats['allocated_bytes']:>12,d}"
            )
        lines.append(
            f"{'total':<32s} {snap['total_live_bytes']:>12,d} "
            f"{snap['total_peak_bytes']:>12,d} {snap['total_allocated_bytes']:>12,d}"
        )
        return "\n".join(lines)

    def clear(self) -> None:
        with self._lock:
            self._owners.clear()


# ---------------------------------------------------------------------------
# Global accountant (what instrumented allocation sites use)
# ---------------------------------------------------------------------------

#: the active accountant, or ``None`` while accounting is disabled
_ACTIVE: MemoryAccountant | None = None


def _fresh_lock_after_fork() -> None:
    # A forked child (a serving worker's compute process) keeps charging the
    # accountant it inherited; a parent thread holding its lock does not exist.
    if _ACTIVE is not None:
        _ACTIVE._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def add(owner: str, nbytes: int) -> None:
    """Charge bytes on the active accountant, or a free no-op when disabled."""

    accountant = _ACTIVE
    if accountant is None:
        return
    accountant.add(owner, nbytes)


def sub(owner: str, nbytes: int) -> None:
    """Release bytes on the active accountant, or a free no-op when disabled."""

    accountant = _ACTIVE
    if accountant is None:
        return
    accountant.sub(owner, nbytes)


def enable_memory_accounting(
    accountant: MemoryAccountant | None = None,
) -> MemoryAccountant:
    """Install (and return) the active accountant; a fresh one by default."""

    global _ACTIVE
    _ACTIVE = accountant if accountant is not None else MemoryAccountant()
    return _ACTIVE


def disable_memory_accounting() -> None:
    """Disable accounting; instrumented sites return to the no-op path."""

    global _ACTIVE
    _ACTIVE = None


def get_accountant() -> MemoryAccountant | None:
    """The active accountant, or ``None`` when accounting is disabled."""

    return _ACTIVE
