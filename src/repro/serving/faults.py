"""Deterministic fault injection at the serving pipeline's seams.

Robustness features are only real if their failure modes are reproducible.
This module gives the serving layer flag-guarded, monkeypatch-free fault
hooks: production code calls :meth:`FaultInjector.fire` at three fixed
boundaries, and an injector configured with a :class:`FaultSchedule` decides
— purely from deterministic per-``(site, rank)`` call counters — whether
that particular call crashes, runs slow, or is delivered twice.  With no
injector configured (the default) every hook is a no-op attribute check.

Sites (the module-level constants are the wiring contract):

* ``WORKER_SOLVE`` — fired once per run attempt, at ``rank=0``, just
  before the server's lattice run issues its first solver call.  A
  ``crash`` here (:class:`InjectedFault`) fails that attempt and exercises
  the server's retry policy; a ``delay`` models a straggling solve and
  exercises request deadlines.
* ``BATCH_ASSEMBLY`` — fired while the server stacks a batch's boundary
  loops; a ``crash`` models corrupt batch assembly.
* ``STORE_DELIVER`` — fired when the server delivers a solved outcome to the
  :class:`~repro.serving.store.RequestStore`; a ``duplicate`` makes the
  server deliver the same outcome twice, exercising upsert idempotency.
* ``WORKER_DEATH`` — fired by the server at the start of every batch group
  and again after each fused solve (mid-batch, results computed but not yet
  delivered); a ``death`` kind raises :class:`WorkerDeath`, modelling the
  worker process dying, and exercises the supervisor's requeue path.
* ``WORKER_HEARTBEAT`` — fired each time a serving worker would emit a
  supervision heartbeat; a ``drop`` kind suppresses that heartbeat,
  modelling heartbeat loss between a live worker and its supervisor.
* ``JOURNAL_WRITE`` — fired by the request journal before each record
  append; a ``torn`` kind flushes half a frame to disk and then fails the
  journal permanently, modelling a process crash mid-write (the torn tail
  the journal must truncate on the next open).

Determinism: each spec names the 0-based call index at which it fires
(``repeat=True`` makes it fire at every index from there on — sustained
heartbeat loss), and call counters are kept per ``(site, rank)`` so
multi-rank thread interleavings cannot reorder which call a fault lands on.
Delays never ``time.sleep`` by default — the injector's ``sleep`` callable
is injectable, so tests pass a fake clock's ``advance`` and stay wall-clock
free.  :meth:`FaultSchedule.seeded` keeps drawing over the original three
serving sites by default so existing seeds replay identically; pass
``sites=`` explicitly to draw process-level faults.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = [
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
    "InjectedFault",
    "WorkerDeath",
    "FaultSpec",
    "FaultSchedule",
    "FaultInjector",
]

#: fault sites wired into the serving pipeline
WORKER_SOLVE = "worker.solve"
BATCH_ASSEMBLY = "batch.assembly"
STORE_DELIVER = "store.deliver"
WORKER_DEATH = "worker.death"
WORKER_HEARTBEAT = "worker.heartbeat"
JOURNAL_WRITE = "journal.write"
SITES = (
    WORKER_SOLVE,
    BATCH_ASSEMBLY,
    STORE_DELIVER,
    WORKER_DEATH,
    WORKER_HEARTBEAT,
    JOURNAL_WRITE,
)
#: the sites :meth:`FaultSchedule.seeded` draws from by default — frozen at
#: the original three so seeds minted before the process-level sites existed
#: keep replaying the exact same schedules.
DEFAULT_SEED_SITES = (WORKER_SOLVE, BATCH_ASSEMBLY, STORE_DELIVER)

#: fault kinds
CRASH = "crash"
DELAY = "delay"
DUPLICATE = "duplicate"
DEATH = "death"
DROP = "drop"
TORN = "torn"
KINDS = (CRASH, DELAY, DUPLICATE, DEATH, DROP, TORN)

#: kinds only defined at one site (and the only kinds those sites accept,
#: besides ``delay`` which is valid anywhere)
_SITE_BOUND_KINDS = {
    DUPLICATE: STORE_DELIVER,
    DEATH: WORKER_DEATH,
    DROP: WORKER_HEARTBEAT,
    TORN: JOURNAL_WRITE,
}


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault; never raised by production code paths."""


class WorkerDeath(BaseException):
    """Raised by a ``death`` fault: the worker running this batch 'died'.

    Deliberately a :class:`BaseException` so the serving layer's ordinary
    ``except Exception`` retry/failure handlers cannot mistake a process
    death for a retryable solver error — only the supervisor-aware handler
    in ``Server._run_group`` catches it and requeues the in-flight work.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Fires on the ``index``-th call (0-based) at ``site``; when ``rank`` is
    set, only calls from that worker rank are counted and matched.
    ``delay_seconds`` applies to ``delay`` faults.  ``repeat=True`` makes
    the spec fire on *every* call from ``index`` on — sustained failure
    modes like continuous heartbeat loss.
    """

    site: str
    index: int
    kind: str = CRASH
    rank: int | None = None
    delay_seconds: float = 0.0
    repeat: bool = False

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; one of {SITES}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        bound_site = _SITE_BOUND_KINDS.get(self.kind)
        if bound_site is not None and self.site != bound_site:
            friendly = {
                STORE_DELIVER: "store",
                WORKER_DEATH: "worker-death",
                WORKER_HEARTBEAT: "heartbeat",
                JOURNAL_WRITE: "journal-write",
            }[bound_site]
            raise ValueError(
                f"{self.kind!r} faults only apply to the {friendly} boundary "
                f"({bound_site!r})"
            )
        if self.site in _SITE_BOUND_KINDS.values():
            allowed = {k for k, s in _SITE_BOUND_KINDS.items() if s == self.site}
            allowed.add(DELAY)
            if self.site in (WORKER_SOLVE, BATCH_ASSEMBLY, STORE_DELIVER):
                allowed.add(CRASH)
            if self.kind not in allowed:
                raise ValueError(
                    f"fault kind {self.kind!r} is not defined at {self.site!r}; "
                    f"one of {sorted(allowed)}"
                )


class FaultSchedule:
    """An immutable collection of :class:`FaultSpec` with a seeded builder."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()):
        self.specs = tuple(specs)
        self._by_site: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def match(self, site: str, index: int, rank: int | None) -> FaultSpec | None:
        """The spec firing on this call, or ``None``."""

        for spec in self._by_site.get(site, ()):
            if spec.rank is not None and spec.rank != rank:
                continue
            if spec.index == index or (spec.repeat and index >= spec.index):
                return spec
        return None

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_faults: int = 3,
        sites: tuple = DEFAULT_SEED_SITES,
        kinds: tuple = (CRASH, DELAY),
        max_index: int = 8,
        delay_seconds: float = 0.05,
    ) -> "FaultSchedule":
        """Build a reproducible random schedule from a seed.

        The same seed always yields the same specs (sites, kinds, call
        indices), so a fault scenario found by a randomized run can be
        replayed exactly by its seed.  Kinds that are only defined at one
        boundary (``duplicate``, ``death``, ``drop``, ``torn``) are remapped
        onto that boundary's single kind when its site is drawn; ``sites``
        defaults to the original three serving seams so old seeds replay
        bit-for-bit — pass e.g. ``sites=(WORKER_DEATH, JOURNAL_WRITE,
        WORKER_HEARTBEAT)`` for process-level chaos schedules.
        """

        from ..utils import seeded_rng

        site_kind = {site: kind for kind, site in _SITE_BOUND_KINDS.items()}
        rng = seeded_rng(seed)
        specs = []
        for _ in range(int(num_faults)):
            site = sites[int(rng.integers(len(sites)))]
            if site in site_kind:
                kind = site_kind[site]  # the only kind defined at that boundary
            else:
                pool = tuple(
                    k for k in kinds if k not in _SITE_BOUND_KINDS
                ) or (CRASH,)
                kind = pool[int(rng.integers(len(pool)))]
            specs.append(
                FaultSpec(
                    site=site,
                    index=int(rng.integers(max_index)),
                    kind=kind,
                    delay_seconds=delay_seconds if kind == DELAY else 0.0,
                )
            )
        # Dedup identical (site, index, rank) collisions — one fault per call.
        unique: dict[tuple, FaultSpec] = {}
        for spec in specs:
            unique.setdefault((spec.site, spec.index, spec.rank), spec)
        return cls(tuple(unique.values()))


class FaultInjector:
    """Evaluates a :class:`FaultSchedule` against deterministic call counters.

    Parameters
    ----------
    schedule:
        The faults to inject; a plain list of :class:`FaultSpec` is wrapped.
    sleep:
        How ``delay`` faults pass time.  Defaults to :func:`time.sleep`;
        deterministic tests pass their fake clock's ``advance`` so no real
        time is spent.
    enabled:
        Master flag; a disabled injector counts nothing and injects nothing.
    """

    def __init__(self, schedule=(), sleep=time.sleep, enabled: bool = True):
        self.schedule = (
            schedule if isinstance(schedule, FaultSchedule) else FaultSchedule(schedule)
        )
        self.sleep = sleep
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counts: dict[tuple, int] = {}
        #: every fault actually injected, in firing order: (site, index, spec)
        self.fired: list[tuple] = []

    def calls(self, site: str, rank: int | None = None) -> int:
        """How many times ``site`` has been hit (by ``rank``, if given)."""

        with self._lock:
            if rank is not None:
                return self._counts.get((site, rank), 0)
            return sum(n for (s, _), n in self._counts.items() if s == site)

    def reset(self) -> None:
        """Zero the call counters so a schedule can be replayed."""

        with self._lock:
            self._counts.clear()
            self.fired.clear()

    def fire(self, site: str, rank: int | None = None, **context) -> FaultSpec | None:
        """Count one call at ``site`` and inject any scheduled fault.

        Returns the injected spec (``delay`` specs after sleeping,
        ``duplicate``/``drop``/``torn`` specs for the caller to act on) or
        ``None``; raises :class:`InjectedFault` for ``crash`` specs and
        :class:`WorkerDeath` for ``death`` specs.
        """

        if not self.enabled:
            return None
        with self._lock:
            key = (site, rank)
            index = self._counts.get(key, 0)
            self._counts[key] = index + 1
            spec = self.schedule.match(site, index, rank)
            if spec is not None:
                self.fired.append((site, index, spec))
        if spec is None:
            return None
        if spec.kind == CRASH:
            raise InjectedFault(
                f"injected crash at {site} call #{index}"
                + (f" (rank {rank})" if rank is not None else "")
            )
        if spec.kind == DEATH:
            raise WorkerDeath(f"injected worker death at {site} call #{index}")
        if spec.kind == DELAY and spec.delay_seconds:
            self.sleep(spec.delay_seconds)
        return spec
