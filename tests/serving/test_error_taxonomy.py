"""Error taxonomy: every failure a client can see is a typed serving error.

A client meets failures in two places: ``submit``/``submit_async`` raising,
and ``future.result()`` raising.  Each scenario below provokes one failure
path on a fake clock, and the test checks that the client sees a
:class:`SolveError` (a refused or failed solve) or a
:class:`RequestValidationError` (a request the server cannot take).
"""

import os
import signal
import tempfile

import pytest

from repro.mosaic import FDSubdomainSolver
from repro.obs.memory import (
    MemoryAccountant,
    disable_memory_accounting,
    enable_memory_accounting,
)
from repro.serving import (
    CRASH,
    DEATH,
    DELAY,
    JOURNAL_WRITE,
    TORN,
    WORKER_DEATH,
    WORKER_SOLVE,
    BatchPolicy,
    BreakerBoard,
    BreakerPolicy,
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    MemoryPressureError,
    QuotaExceededError,
    RequestValidationError,
    RetryExhaustedError,
    Server,
    ServerClosedError,
    SolveError,
    SolveRequest,
    TenantQuota,
    WorkerSupervisor,
)


def _server(clock, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_seconds=1e9))
    kwargs.setdefault("sleep", clock.advance)
    return Server(clock=clock, **kwargs)


def _request(geometry, loop, **kwargs):
    return SolveRequest.create(geometry, loop, max_iterations=40, **kwargs)


def _crashes(clock, count):
    return FaultInjector(
        [FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(count)],
        sleep=clock.advance,
    )


def _quota(clock, geometry, loops):
    server = _server(clock, quotas=TenantQuota(max_pending=1))
    server.submit(_request(geometry, loops[0]))
    server.submit(_request(geometry, loops[1]))  # sync submit raises the refusal


def _memory_shed(clock, geometry, loops):
    server = _server(clock)
    accountant = enable_memory_accounting(MemoryAccountant(budget_bytes=1000))
    try:
        accountant.add("test.ballast", 1000)  # pressure 1.0
        return server.submit_async(_request(geometry, loops[0]))
    finally:
        disable_memory_accounting()


def _open_breaker(clock, geometry, loops):
    board = BreakerBoard(BreakerPolicy(failure_threshold=1), clock=clock)
    server = _server(clock, faults=_crashes(clock, 1), max_retries=0, breakers=board)
    server.submit_async(_request(geometry, loops[0]))
    server.drain()  # one failed solve trips the backend's breaker open
    return server.submit_async(_request(geometry, loops[1]))


def _deadline_before_dispatch(clock, geometry, loops):
    server = _server(clock)
    future = server.submit_async(_request(geometry, loops[0], deadline_seconds=2.0))
    clock.advance(3.0)
    server.drain()
    return future


def _straggler(clock, geometry, loops):
    faults = FaultInjector(
        [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=10.0)],
        sleep=clock.advance,
    )
    server = _server(clock, faults=faults)
    future = server.submit_async(_request(geometry, loops[0], deadline_seconds=5.0))
    server.drain()
    return future


def _retry_exhaustion(clock, geometry, loops):
    server = _server(clock, faults=_crashes(clock, 3), max_retries=2)
    future = server.submit_async(_request(geometry, loops[0]))
    server.drain()
    return future


def _raising_solver_factory(clock, geometry, loops):
    def factory(geometry):
        raise RuntimeError("no solver for this geometry")

    server = _server(clock, solver_factory=factory, max_retries=1)
    future = server.submit_async(_request(geometry, loops[0]))
    server.drain()
    return future


class _SelfKillingFDSolver(FDSubdomainSolver):
    def predict(self, boundaries, points):
        os.kill(os.getpid(), signal.SIGKILL)  # a real crash of the worker process


def _killed_worker_process(clock, geometry, loops):
    # Two workers compute in forked processes (on the real clock); no
    # restart budget, so the first death fails the run instead of requeueing.
    server = Server(
        solver_factory=lambda g: _SelfKillingFDSolver(g.subdomain_grid()),
        async_workers=2, supervisor=WorkerSupervisor(max_restarts=0),
    )
    with server:
        future = server.submit_async(_request(geometry, loops[0]))
        future.exception(timeout=60)
    return future


def _worker_deaths_without_supervisor(clock, geometry, loops):
    # Every run dies and nothing supervises: max_retries bounds the requeues.
    faults = FaultInjector(
        [FaultSpec(site=WORKER_DEATH, index=0, kind=DEATH, repeat=True)],
        sleep=clock.advance,
    )
    server = _server(clock, faults=faults, max_retries=1)
    future = server.submit_async(_request(geometry, loops[0]))
    server.drain()
    return future


def _journal_refuses_claim(clock, geometry, loops):
    # The claim record is the journal's first write, and it is torn.
    faults = FaultInjector([FaultSpec(site=JOURNAL_WRITE, index=0, kind=TORN)])
    with tempfile.TemporaryDirectory() as directory:
        server = _server(clock, faults=faults, journal=os.path.join(directory, "journal"))
        future = server.submit_async(_request(geometry, loops[0]))
        server.store.journal.close()
    return future


def _submit_while_draining(clock, geometry, loops):
    server = _server(clock)
    server.drain_and_close()
    return server.submit_async(_request(geometry, loops[0]))


def _duplicate_id(clock, geometry, loops):
    server = _server(clock)
    request = _request(geometry, loops[0])
    server.submit_async(request)
    return server.submit_async(request)


def _invalid_request(clock, geometry, loops):
    return _server(clock).submit_async(loops[0])  # a bare loop, not a SolveRequest


SCENARIOS = [
    (_quota, QuotaExceededError),
    (_memory_shed, MemoryPressureError),
    (_open_breaker, CircuitOpenError),
    (_deadline_before_dispatch, DeadlineExceededError),
    (_straggler, DeadlineExceededError),
    (_retry_exhaustion, RetryExhaustedError),
    (_raising_solver_factory, RetryExhaustedError),
    (_killed_worker_process, RetryExhaustedError),
    (_worker_deaths_without_supervisor, RetryExhaustedError),
    (_journal_refuses_claim, SolveError),
    (_submit_while_draining, ServerClosedError),
    (_duplicate_id, RequestValidationError),
    (_invalid_request, RequestValidationError),
]


@pytest.mark.parametrize(
    "scenario, expected", SCENARIOS,
    ids=[scenario.__name__.lstrip("_") for scenario, _ in SCENARIOS],
)
def test_every_client_visible_failure_is_typed(
    scenario, expected, small_geometry, harmonic_loops, fake_clock
):
    try:
        future = scenario(fake_clock, small_geometry, harmonic_loops(2, seed=61))
        future.result(timeout=0)
    except Exception as exc:  # noqa: BLE001 - the error under test
        error = exc
    else:
        pytest.fail(f"{scenario.__name__} did not fail")
    assert isinstance(error, (SolveError, RequestValidationError))
    assert type(error) is expected


def test_a_claim_the_journal_refuses_frees_the_request(
    small_geometry, harmonic_loops, fake_clock, tmp_path
):
    faults = FaultInjector([FaultSpec(site=JOURNAL_WRITE, index=0, kind=TORN)])
    server = _server(fake_clock, faults=faults, quotas=TenantQuota(max_pending=1),
                     journal=tmp_path / "journal")
    request = _request(small_geometry, harmonic_loops(1, seed=62)[0])
    error = server.submit_async(request).exception(timeout=0)
    assert type(error) is SolveError
    assert type(error.__cause__) is InjectedFault
    # The id and the tenant's only slot are free again: the resubmission runs.
    server.submit(request)
    assert request.request_id in server.drain()
    server.store.journal.close()
