"""Worker supervision, circuit breakers, memory shedding, graceful shutdown.

Every scenario runs on the injectable fake clock: heartbeat timeouts,
restart backoff and breaker cool-downs advance it deterministically, and
every recovery is checked bitwise against an unfaulted control server.
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.mosaic import MosaicGeometry
from repro.mosaic.core import PLAN_CACHE
from repro.obs import disable_tracing, enable_tracing
from repro.obs.memory import (
    MemoryAccountant,
    disable_memory_accounting,
    enable_memory_accounting,
)
from repro.serving import (
    CRASH,
    DELAY,
    DROP,
    WORKER_DEATH,
    WORKER_HEARTBEAT,
    WORKER_SOLVE,
    BatchPolicy,
    BreakerBoard,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    MemoryPressureError,
    RetryExhaustedError,
    Server,
    ServerClosedError,
    SolutionCache,
    SolveRequest,
    TenantQuota,
    WorkerSupervisor,
)
from repro.serving import server as server_module

ARTIFACTS = Path(__file__).resolve().parents[2] / "test-artifacts" / "serving"


@pytest.fixture(autouse=True)
def _trace_artifact(request):
    """Trace every scenario; keep the Chrome trace if the test fails."""

    tracer = enable_tracing()
    try:
        yield tracer
    finally:
        disable_tracing()
        report = getattr(request.node, "rep_call", None)
        if report is not None and report.failed and tracer.span_count():
            ARTIFACTS.mkdir(parents=True, exist_ok=True)
            safe = re.sub(r"[^\w.-]+", "_", request.node.nodeid)
            tracer.write_chrome_trace(ARTIFACTS / f"{safe}.json")


def _server(clock, faults=None, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_seconds=1e9))
    kwargs.setdefault("cache", SolutionCache(capacity=64))
    kwargs.setdefault("sleep", clock.advance)
    return Server(clock=clock, faults=faults, **kwargs)


def _requests(geometry, loops, **kwargs):
    return [
        SolveRequest.create(geometry, loop, max_iterations=40, **kwargs)
        for loop in loops
    ]


# ---------------------------------------------------------------------------
# WorkerSupervisor unit behaviour
# ---------------------------------------------------------------------------


class TestWorkerSupervisor:
    def test_heartbeats_keep_a_flight_alive(self, fake_clock):
        clock = fake_clock
        sup = WorkerSupervisor(clock=clock, heartbeat_timeout_seconds=30.0)
        sup.begin("w0", ["r1", "r2"])
        clock.advance(25.0)
        assert sup.check() == []  # 25s gap: inside the timeout
        sup.heartbeat("w0")
        clock.advance(25.0)
        assert sup.check() == []  # refreshed at t=25, now t=50: 25s gap again
        clock.advance(10.0)
        stale = sup.check()  # 35s gap: stale
        assert [f.worker for f in stale] == ["w0"]
        assert stale[0].requests == ["r1", "r2"]
        assert sup.hangs == 1
        assert sup.active_flights() == []  # popped: flagged at most once

    def test_ended_flight_is_never_flagged(self, fake_clock):
        clock = fake_clock
        sup = WorkerSupervisor(clock=clock, heartbeat_timeout_seconds=30.0)
        sup.begin("w0", ["r1"])
        sup.end("w0")
        clock.advance(1000.0)
        assert sup.check() == []
        assert sup.hangs == 0

    def test_restart_budget_exhausts(self, fake_clock):
        clock = fake_clock
        sup = WorkerSupervisor(clock=clock, max_restarts=2)
        sup.record_death("w0")
        sup.record_death("w1")
        assert not sup.exhausted  # budget: restarts may reach max_restarts
        sup.record_death("w0")
        assert sup.exhausted
        assert sup.snapshot()["exhausted"] is True
        assert sup.snapshot()["restarts_by_worker"] == {"w0": 2, "w1": 1}


# ---------------------------------------------------------------------------
# CircuitBreaker / BreakerBoard unit behaviour
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, fake_clock, **policy):
        clock = fake_clock
        policy.setdefault("failure_threshold", 3)
        policy.setdefault("reset_timeout_seconds", 10.0)
        return CircuitBreaker(BreakerPolicy(**policy), clock=clock), clock

    def test_trips_on_consecutive_failures_only(self, fake_clock):
        breaker, _ = self._breaker(fake_clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1

    def test_open_rejects_until_cooldown_then_probes(self, fake_clock):
        breaker, clock = self._breaker(fake_clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.rejections == 1
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()        # the single probe
        assert not breaker.allow()    # probe budget spent
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.closes == 1

    def test_failed_probe_reopens_with_fresh_cooldown(self, fake_clock):
        breaker, clock = self._breaker(fake_clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.advance(9.0)
        assert not breaker.allow()  # cool-down restarted at the failed probe
        clock.advance(1.0)
        assert breaker.allow()

    def test_board_is_per_key(self, fake_clock):
        clock = fake_clock
        board = BreakerBoard(BreakerPolicy(failure_threshold=1), clock=clock)
        board.get("a").record_failure()
        assert board.get("a") is board.get("a")
        assert board.get("a").state == "open"
        assert board.get("b").state == "closed"
        assert len(board) == 2
        states = board.snapshot()["states"]
        assert states == {"closed": 1, "open": 1, "half_open": 0}


class TestBoundedBreakerBoard:
    def test_300_never_fusing_geometries_keep_the_board_at_the_cap(self, fake_clock):
        class Opaque:
            """A zero solver of a type the fusion keys do not know."""

            def __init__(self, geometry):
                self.boundary_size = geometry.subdomain_grid().boundary_size

            def predict(self, boundaries, points):
                return np.zeros((boundaries.shape[0], points.shape[0]))

        # Every group is its own breaker key: unbounded, the board would
        # hold 300 breakers.
        geometries = [
            MosaicGeometry(5, 0.25 + 0.01 * (index % 50), steps_x=2 + index // 50, steps_y=2)
            for index in range(300)
        ]
        assert not hasattr(Opaque(geometries[0]), "fusion_key")
        server = _server(fake_clock, solver_factory=Opaque)
        for geometry in geometries:
            loop = geometry.boundary_from_function(lambda x, y: x * x - y * y)
            server.submit(SolveRequest.create(geometry, loop, max_iterations=2))
            assert len(server.breakers) <= PLAN_CACHE.capacity
        assert len(server.drain()) == 300
        assert len(server.breakers) == PLAN_CACHE.capacity

    def test_open_breaker_survives_eviction_pressure(self, fake_clock):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1), clock=fake_clock)
        board.get("failing").record_failure()
        for index in range(10 * PLAN_CACHE.capacity):
            board.get(index)
            assert len(board) <= PLAN_CACHE.capacity
        assert board.get("failing").state == "open"
        assert not board.get("failing").allow()
        assert board.snapshot()["states"]["open"] == 1

    def test_board_evicts_the_least_recently_used_closed_breaker(self, fake_clock):
        board = BreakerBoard(clock=fake_clock)
        first = board.get(0)
        for index in range(1, PLAN_CACHE.capacity):
            board.get(index)
        board.get(0)  # touched: key 1 is now the oldest
        board.get("new")
        assert board.get(0) is first and len(board) == PLAN_CACHE.capacity
        assert "1" not in board.snapshot()["keys"]


# ---------------------------------------------------------------------------
# Server integration: deaths, hangs, heartbeat loss
# ---------------------------------------------------------------------------


class TestSupervisedServer:
    def test_seeded_worker_deaths_recover_bitwise(self, small_geometry,
                                                  harmonic_loops, fake_clock):
        loops = harmonic_loops(6, seed=41)
        schedule = FaultSchedule.seeded(
            seed=7, num_faults=2, sites=(WORKER_DEATH,), max_index=2
        )
        assert all(spec.kind == "death" for spec in schedule)
        faults = FaultInjector(schedule, sleep=fake_clock.advance)
        server = _server(fake_clock, faults=faults, supervisor=True)
        requests = _requests(small_geometry, loops)
        for request in requests:
            server.submit(request)
        results = server.drain()
        assert len(results) == len(requests)
        assert server.supervisor.deaths >= 1
        assert server.stats.requeues >= 1

        clean_clock = type(fake_clock)()
        clean = _server(clean_clock)
        controls = _requests(small_geometry, loops)
        for request in controls:
            clean.submit(request)
        clean_results = clean.drain()
        for faulted, control in zip(requests, controls):
            assert (
                results[faulted.request_id].solution.tobytes()
                == clean_results[control.request_id].solution.tobytes()
            )

    def test_hung_worker_is_requeued_and_deduped(self, small_geometry,
                                                 harmonic_loops, fake_clock):
        loop = harmonic_loops(1, seed=42)[0]
        state = {}

        def stall(seconds):
            # The injected delay plays a worker stuck inside a solve: time
            # passes and the dispatcher's supervision sweep runs "meanwhile".
            fake_clock.advance(seconds)
            state["server"].check_workers()

        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=60.0)],
            sleep=stall,
        )
        supervisor = WorkerSupervisor(clock=fake_clock, heartbeat_timeout_seconds=30.0)
        server = _server(fake_clock, faults=faults, supervisor=supervisor)
        state["server"] = server
        request = _requests(small_geometry, [loop])[0]
        server.submit(request)
        results = server.drain()

        assert request.request_id in results
        assert supervisor.hangs == 1
        assert server.stats.requeues == 1
        # The hung worker finished anyway, so the requeued copy's delivery is
        # absorbed idempotently: no double resolution.
        assert server.store.stats()["duplicate_deliveries"] == 1

        clean = _server(type(fake_clock)())
        control = _requests(small_geometry, [loop])[0]
        clean.submit(control)
        assert (
            results[request.request_id].solution.tobytes()
            == clean.drain()[control.request_id].solution.tobytes()
        )

    @pytest.mark.parametrize("drop_heartbeats", [True, False])
    def test_heartbeat_loss_is_a_hang_heartbeats_are_not(
        self, small_geometry, harmonic_loops, fake_clock, drop_heartbeats
    ):
        # A worker retrying with 6s backoffs against a 10s heartbeat timeout:
        # with its heartbeats delivered it is never flagged; with them
        # dropped (a partition — the worker itself is healthy) the same
        # timeline trips the supervisor at t=12 and the work is requeued.
        # Either way the result must be the bitwise same.
        loop = harmonic_loops(1, seed=43)[0]
        clock = type(fake_clock)()
        state = {}

        def backoff(seconds):
            clock.advance(6.0)
            state["server"].check_workers()

        specs = [
            FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(3)
        ]
        if drop_heartbeats:
            specs.append(
                FaultSpec(site=WORKER_HEARTBEAT, index=0, kind=DROP, repeat=True)
            )
        supervisor = WorkerSupervisor(clock=clock, heartbeat_timeout_seconds=10.0)
        server = _server(
            clock,
            faults=FaultInjector(specs, sleep=clock.advance),
            supervisor=supervisor,
            max_retries=3,
            sleep=backoff,
        )
        state["server"] = server
        request = _requests(small_geometry, [loop])[0]
        server.submit(request)
        results = server.drain()

        assert request.request_id in results
        assert supervisor.hangs == (1 if drop_heartbeats else 0)
        assert server.stats.requeues == (1 if drop_heartbeats else 0)

        clean = _server(type(fake_clock)())
        control = _requests(small_geometry, [loop])[0]
        clean.submit(control)
        assert (
            results[request.request_id].solution.tobytes()
            == clean.drain()[control.request_id].solution.tobytes()
        )

    def test_exhausted_restart_budget_fails_instead_of_requeueing(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        loop = harmonic_loops(1, seed=44)[0]
        faults = FaultInjector(
            [FaultSpec(site=WORKER_DEATH, index=0, kind="death", repeat=True)],
            sleep=fake_clock.advance,
        )
        supervisor = WorkerSupervisor(clock=fake_clock, max_restarts=0)
        server = _server(fake_clock, faults=faults, supervisor=supervisor)
        request = _requests(small_geometry, [loop])[0]
        future = server.submit_async(request)
        assert server.drain() == {}
        assert isinstance(future.exception(), RetryExhaustedError)
        assert supervisor.exhausted
        assert server.health()["live"] is False


# ---------------------------------------------------------------------------
# Server integration: circuit breaking
# ---------------------------------------------------------------------------


class TestServerBreakers:
    def test_breaker_trips_fast_rejects_then_probes_closed(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        loops = harmonic_loops(5, seed=45)
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(3)],
            sleep=fake_clock.advance,
        )
        board = BreakerBoard(
            BreakerPolicy(failure_threshold=3, reset_timeout_seconds=5.0),
            clock=fake_clock,
        )
        server = _server(fake_clock, faults=faults, max_retries=0, breakers=board)
        requests = _requests(small_geometry, loops)

        for request in requests[:3]:  # three consecutive backend failures
            future = server.submit_async(request)
            assert server.drain() == {}
            assert isinstance(future.exception(), RetryExhaustedError)
        assert board.snapshot()["states"]["open"] == 1

        # While open: fast typed rejection, no solver call burned.
        with pytest.raises(CircuitOpenError):
            server.submit(requests[3])
        assert faults.calls(WORKER_SOLVE) == 3
        assert server.stats.breaker_rejections == 1
        assert server.health()["breakers"]["states"]["open"] == 1

        # After the cool-down the half-open probe (a clean solve) closes it.
        fake_clock.advance(5.0)
        server.submit(requests[4])
        results = server.drain()
        assert requests[4].request_id in results
        assert board.snapshot()["states"] == {"closed": 1, "open": 0, "half_open": 0}

    def test_breakers_disabled_by_default_flag(self, fake_clock):
        assert _server(fake_clock, breakers=False).breakers is None
        assert _server(fake_clock).breakers is not None  # on by default


# ---------------------------------------------------------------------------
# Memory-driven load shedding
# ---------------------------------------------------------------------------


class TestMemoryShedding:
    def test_sheds_lowest_priority_first(self, small_geometry, harmonic_loops,
                                         fake_clock):
        loops = harmonic_loops(4, seed=46)
        quotas = {
            "free": TenantQuota(priority=0),
            "paid": TenantQuota(priority=2),
        }
        server = _server(fake_clock, quotas=quotas)
        assert server.admission.shed_threshold(0) == pytest.approx(0.8)
        assert server.admission.shed_threshold(2) == pytest.approx(0.8 + 0.2 * 2 / 3)

        accountant = enable_memory_accounting(
            MemoryAccountant(budget_bytes=1_000_000)
        )
        try:
            accountant.add("test.ballast", 850_000)  # pressure 0.85
            free, paid, paid2, free2 = (
                _requests(small_geometry, loops[:1], tenant="free")
                + _requests(small_geometry, loops[1:3], tenant="paid")
                + _requests(small_geometry, loops[3:], tenant="free")
            )
            with pytest.raises(MemoryPressureError):
                server.submit(free)  # 0.85 >= 0.8: the free tier sheds
            server.submit(paid)      # 0.85 < 0.933: paid still admitted

            accountant.add("test.ballast", 100_000)  # pressure >= 0.95
            with pytest.raises(MemoryPressureError):
                server.submit(paid2)  # now even the top priority sheds
            with pytest.raises(MemoryPressureError):
                server.submit(free2)
            assert server.stats.memory_sheds == 3

            health = server.health()
            assert health["ready"] is True  # pressure < 1.0: degraded, not dead
            assert health["memory"]["pressure"] == pytest.approx(
                accountant.pressure()
            )
            assert health["memory"]["headroom_bytes"] == accountant.headroom_bytes()
        finally:
            disable_memory_accounting()

        results = server.drain()  # the one admitted request still completes
        assert list(results) == [paid.request_id]

    def test_budget_gauges_published(self):
        from repro.obs import MetricsRegistry

        accountant = MemoryAccountant(budget_bytes=1000)
        accountant.add("x", 250)
        registry = MetricsRegistry()
        accountant.publish(registry)
        metrics = registry.snapshot()
        assert metrics["memory.budget_bytes"]["value"] == 1000
        assert metrics["memory.headroom_bytes"]["value"] == 750
        assert metrics["memory.pressure"]["value"] == pytest.approx(0.25)
        assert metrics["memory.live_bytes{owner=x}"]["value"] == 250


# ---------------------------------------------------------------------------
# Graceful shutdown + interruptible backoff
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_drain_and_close_checkpoints_and_refuses(
        self, small_geometry, harmonic_loops, fake_clock, tmp_path
    ):
        loops = harmonic_loops(2, seed=47)
        server = _server(
            fake_clock, journal=tmp_path / "requests.wal", supervisor=True
        )
        requests = _requests(small_geometry, loops)
        for request in requests:
            server.submit(request)
        results = server.drain_and_close()
        assert sorted(results) == sorted(r.request_id for r in requests)
        assert server.store.journal.stats()["checkpoints"] == 1
        assert server.store.journal._fh.closed

        with pytest.raises(ServerClosedError):
            server.submit(_requests(small_geometry, loops[:1])[0])
        health = server.health()
        assert health["status"] == "draining"
        assert health["ready"] is False
        assert health["live"] is True
        for section in ("breakers", "supervisor", "journal"):
            assert section in health

    def test_close_interrupts_retry_backoff_fake_clock(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        # Regression: close() used to sleep out the full backoff.  Here the
        # first backoff "sleep" closes the server; the second backoff must
        # be skipped entirely, so the fake clock stops at exactly 5s.
        loop = harmonic_loops(1, seed=48)[0]
        state = {}

        def sleep_then_close(seconds):
            fake_clock.advance(5.0)
            state["server"].close()

        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(3)],
            sleep=fake_clock.advance,
        )
        server = _server(
            fake_clock, faults=faults, max_retries=2,
            sleep=sleep_then_close,
        )
        state["server"] = server
        request = _requests(small_geometry, [loop])[0]
        future = server.submit_async(request)
        assert server.drain() == {}
        assert isinstance(future.exception(), RetryExhaustedError)
        assert fake_clock.now == 5.0  # one backoff slept, the second skipped

    def test_close_interrupts_retry_backoff_wall_clock(self, small_geometry,
                                                       harmonic_loops, monkeypatch):
        # Async server with the default interruptible wait: a 30s backoff is
        # pending when close() arrives, and close() must not wait it out.
        monkeypatch.setattr(server_module, "_RETRY_BACKOFF_SECONDS", 30.0)
        monkeypatch.setattr(server_module, "_RETRY_BACKOFF_CAP", 30.0)
        loop = harmonic_loops(1, seed=49)[0]
        faults = FaultInjector([FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)])
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=0.01),
            cache=SolutionCache(capacity=64),
            faults=faults,
            async_workers=1,
            max_retries=1,
        )
        with server:
            request = SolveRequest.create(small_geometry, loop, max_iterations=40)
            future = server.submit_async(request)
            deadline = time.monotonic() + 30.0
            while server.stats.retries < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.stats.retries == 1
            started = time.monotonic()
            server.close()
            elapsed = time.monotonic() - started
        assert elapsed < 15.0, f"close() waited out the backoff ({elapsed:.1f}s)"
        # The interrupted backoff falls through to the clean second attempt
        # during close()'s final sweep, so the future still resolves.
        assert future.done() and future.exception() is None
