"""Futures and typed errors of the async serving front-end.

A :class:`SolveFuture` is the handle :meth:`Server.submit_async
<repro.serving.server.Server.submit_async>` returns immediately, a
:class:`concurrent.futures.Future`: the caller can block on
:meth:`~SolveFuture.result` (with an optional wait timeout), poll
:meth:`~SolveFuture.done`, register completion callbacks, or pass it to
:func:`concurrent.futures.wait` and :func:`~concurrent.futures.as_completed`;
:meth:`~concurrent.futures.Future.cancel` returns ``False``.  It is also
the request's one record inside the server: its ticket, kept by id, and
its waiter on the store entry.  One future is resolved exactly once —
either with a :class:`~repro.serving.api.SolveResult` or with one of the
typed serving errors below — and duplicate submissions of the same
canonical request share one solve but each receive their own future
(resolved with bitwise-identical solution arrays by the idempotent
:class:`~repro.serving.store.RequestStore`).

Error taxonomy (all subclasses of :class:`SolveError`):

* :class:`RetryExhaustedError` — the fused solve kept failing after the
  server's capped-exponential-backoff retry budget (``max_retries``) was
  spent; ``__cause__`` carries the final underlying failure.
* :class:`DeadlineExceededError` — the request carried a
  ``deadline_seconds`` and either expired before its batch was dispatched
  (failed fast, no solve issued) or its solve completed past the deadline.
* :class:`QuotaExceededError` — per-tenant admission control rejected the
  request at submit time instead of queueing it unboundedly.
* :class:`MemoryPressureError` — admission control shed the request because
  the process's live bytes are over the tenant's priority-scaled share of
  the memory budget (a :class:`QuotaExceededError` subclass, so existing
  quota handling sees it).
* :class:`CircuitOpenError` — this request's solver backend (its
  solver's ``fusion_key()``) has its circuit breaker open after consecutive
  failures; the request is rejected fast instead of joining a retry storm.
* :class:`ServerClosedError` — the server is draining
  (:meth:`~repro.serving.server.Server.drain_and_close`) or closed and no
  longer accepts submissions.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from .api import SolveRequest

__all__ = [
    "SolveError",
    "RetryExhaustedError",
    "DeadlineExceededError",
    "QuotaExceededError",
    "MemoryPressureError",
    "CircuitOpenError",
    "ServerClosedError",
    "SolveFuture",
]


class SolveError(RuntimeError):
    """Base class of every typed failure a :class:`SolveFuture` can carry.

    When the server runs with a flight recorder, ``flight_record`` holds
    the :class:`~repro.obs.flight.FlightRecord` retained for this failure
    (tenant/fusion/occupancy attribution plus the span tree), so callers
    holding only the exception can reach the trace.
    """

    #: flight record retained for this failure, or ``None``
    flight_record = None


class RetryExhaustedError(SolveError):
    """The solve failed on every attempt the retry policy allowed.

    ``attempts`` counts solve attempts made (initial try plus retries);
    ``__cause__`` is the exception raised by the final attempt.
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = int(attempts)


class DeadlineExceededError(SolveError):
    """The request's ``deadline_seconds`` elapsed before it could be served."""


class QuotaExceededError(SolveError):
    """Admission control rejected the request under its tenant's quota."""


class MemoryPressureError(QuotaExceededError):
    """Admission shed the request: live bytes are over the tenant's threshold."""


class CircuitOpenError(SolveError):
    """The request's solver backend is circuit-broken after repeated failures."""


class ServerClosedError(SolveError):
    """The server is draining or closed and no longer accepts submissions."""


class SolveFuture(Future):
    """One admitted solve request: the caller's handle and its whole state.

    The server keeps it by request id until the first ``drain()`` after it
    settles, the store holds it as a waiter, and the server's ``_settle``
    resolves it once.  It starts running, so :meth:`cancel` returns
    ``False``.  Callbacks run on the resolving thread; one that raises is
    logged by :mod:`concurrent.futures` and stops nothing else.
    """

    def __init__(self, request: SolveRequest, submitted_at: float):
        super().__init__()
        self.request = request
        self.request_id = request.request_id
        self.submitted_at = submitted_at  #: admission time under the server clock
        self.requeues = 0  #: runs requeued after their worker died or hung
        self.set_running_or_notify_cancel()

    @property
    def deadline_at(self) -> float | None:
        """Absolute deadline under the server clock, or ``None``."""

        if self.request.deadline_seconds is None:
            return None
        return self.submitted_at + self.request.deadline_seconds

    def result(self, timeout: float | None = None):
        """The :class:`SolveResult`, or raise the request's :class:`SolveError`.

        A *wait* past ``timeout`` seconds raises the built-in
        :class:`TimeoutError` and leaves the request pending.
        """

        try:
            return super().result(timeout)
        except FutureTimeoutError:
            raise self._still_pending(timeout) from None

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; return the failure (or ``None`` on success)."""

        try:
            return super().exception(timeout)
        except FutureTimeoutError:
            raise self._still_pending(timeout) from None

    def _still_pending(self, timeout: float | None) -> TimeoutError:
        # `concurrent.futures.TimeoutError` is not the built-in before 3.11.
        return TimeoutError(
            f"request {self.request_id!r} still pending after {timeout}s wait"
        )
