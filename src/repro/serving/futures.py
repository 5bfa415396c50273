"""Futures and typed errors of the async serving front-end.

A :class:`SolveFuture` is the handle :meth:`Server.submit_async
<repro.serving.server.Server.submit_async>` returns immediately: the caller
can block on :meth:`~SolveFuture.result` (with an optional wait timeout),
poll :meth:`~SolveFuture.done`, inspect :meth:`~SolveFuture.exception`, or
register completion callbacks with :meth:`~SolveFuture.add_done_callback`.
One future is resolved exactly once — either with a
:class:`~repro.serving.api.SolveResult` or with one of the typed serving
errors below — and duplicate submissions of the same canonical request share
one solve but each receive their own future (resolved with bitwise-identical
solution arrays by the idempotent :class:`~repro.serving.store.RequestStore`).

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

import threading

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


class SolveFuture:
    """Completion handle of one submitted solve request.

    Thread-safe and single-assignment: the serving pipeline resolves the
    future exactly once, from whichever thread completes the request
    (dispatcher, solve worker, or the submitting thread on a cache hit).

    Callbacks registered with :meth:`add_done_callback` run on the resolving
    thread (immediately on the registering thread if the future is already
    done); exceptions they raise are swallowed so a misbehaving callback
    cannot poison the serving pipeline.
    """

    __slots__ = ("request_id", "_cond", "_done", "_result", "_exception", "_callbacks")

    def __init__(self, request_id: str):
        self.request_id = request_id
        self._cond = threading.Condition()
        self._done = False
        self._result = None
        self._exception: BaseException | None = None
        self._callbacks: list = []

    # -- inspection ---------------------------------------------------------------

    def done(self) -> bool:
        """Whether the future has been resolved (result or error)."""

        with self._cond:
            return self._done

    def result(self, timeout: float | None = None):
        """Block until resolved; return the :class:`SolveResult` or raise.

        Raises the request's typed :class:`SolveError` if it failed, or the
        built-in :class:`TimeoutError` if the *wait* exceeds ``timeout``
        seconds (the future itself stays pending — a wait timeout is not a
        request deadline).
        """

        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout=timeout):
                raise TimeoutError(
                    f"request {self.request_id!r} still pending after {timeout}s wait"
                )
            if self._exception is not None:
                raise self._exception
            return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; return the failure (or ``None`` on success)."""

        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout=timeout):
                raise TimeoutError(
                    f"request {self.request_id!r} still pending after {timeout}s wait"
                )
            return self._exception

    # -- callbacks ----------------------------------------------------------------

    def add_done_callback(self, fn) -> None:
        """Call ``fn(future)`` once resolved (immediately if already done)."""

        with self._cond:
            if not self._done:
                self._callbacks.append(fn)
                return
        self._invoke(fn)

    # -- resolution (serving-pipeline internal) -----------------------------------

    def _set_result(self, result) -> None:
        self._resolve(result, None)

    def _set_exception(self, exception: BaseException) -> None:
        self._resolve(None, exception)

    def _resolve(self, result, exception) -> None:
        with self._cond:
            if self._done:
                raise RuntimeError(f"future {self.request_id!r} already resolved")
            self._result = result
            self._exception = exception
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
            self._cond.notify_all()
        for fn in callbacks:
            self._invoke(fn)

    def _invoke(self, fn) -> None:
        try:
            fn(self)
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._cond:
            state = (
                "pending" if not self._done
                else "failed" if self._exception is not None
                else "done"
            )
        return f"SolveFuture({self.request_id!r}, {state})"
