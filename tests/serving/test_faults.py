"""Deterministic fault-injection scenarios: retries, deadlines, idempotent delivery.

Every scenario runs on the injectable fake clock — backoff sleeps and
injected delays advance it instead of sleeping — so the whole file is
wall-clock free and bit-for-bit reproducible.  Failing tests persist their
Chrome trace under ``test-artifacts/serving/`` for the CI artifact upload.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.mosaic import MosaicFlowPredictor, MosaicGeometry
from repro.obs import disable_tracing, enable_tracing
from repro.serving import (
    BATCH_ASSEMBLY,
    CRASH,
    DELAY,
    DUPLICATE,
    STORE_DELIVER,
    WORKER_SOLVE,
    BatchPolicy,
    DeadlineExceededError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InjectedFault,
    RetryExhaustedError,
    Server,
    SolutionCache,
    SolveRequest,
    default_solver_factory,
)

ARTIFACTS = Path(__file__).resolve().parents[2] / "test-artifacts" / "serving"


@pytest.fixture(autouse=True)
def _trace_artifact(request):
    """Trace every fault scenario; keep the Chrome trace if the test fails."""

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
    kwargs.setdefault("sleep", clock.advance)  # backoff advances the fake clock
    return Server(clock=clock, faults=faults, **kwargs)


class TestRetries:
    def test_worker_crash_retries_then_succeeds(self, small_geometry, harmonic_loops,
                                                fake_clock):
        loops = harmonic_loops(3, seed=11)
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=2)
        ids = [
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
            for loop in loops
        ]
        results = server.drain()
        assert sorted(results) == sorted(ids)
        assert server.stats.retries == 1
        assert server.stats.failures == 0
        assert faults.calls(WORKER_SOLVE) == 2  # crashed attempt + clean retry

        # The retried batch is bitwise identical to an unfaulted server's.
        clean = _server(fake_clock)
        clean_ids = [
            clean.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
            for loop in loops
        ]
        clean_results = clean.drain()
        for faulted_id, clean_id in zip(ids, clean_ids):
            assert (
                results[faulted_id].solution.tobytes()
                == clean_results[clean_id].solution.tobytes()
            )

    def test_mid_run_crash_retries_whole_batch(self, small_geometry, harmonic_loops,
                                               fake_clock):
        # The site fires once per run attempt, at rank 0: a crash there fails
        # the whole 4-request run, and the retry solves all four again.
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH, rank=0)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=2)
        loops = harmonic_loops(4, seed=12)
        ids = [
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
            for loop in loops
        ]
        results = server.drain()
        assert sorted(results) == sorted(ids)
        assert server.stats.retries == 1
        assert server.stats.fused_runs == 1
        assert faults.calls(WORKER_SOLVE, rank=0) == 2

        clean = _server(fake_clock)
        clean_ids = [
            clean.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
            for loop in loops
        ]
        clean_results = clean.drain()
        for faulted_id, clean_id in zip(ids, clean_ids):
            assert (
                results[faulted_id].solution.tobytes()
                == clean_results[clean_id].solution.tobytes()
            )

    def test_raising_solver_factory_fails_typed_and_dispatcher_keeps_serving(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        broken = MosaicGeometry(
            subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4
        )

        def factory(geometry):
            if geometry is broken:
                raise RuntimeError("no solver for this geometry")
            return default_solver_factory(geometry)

        with _server(
            fake_clock, solver_factory=factory, max_retries=1, async_workers=1
        ) as server:
            doomed = [
                server.submit_async(SolveRequest.create(
                    broken, np.full(broken.global_boundary_size, float(k)),
                    max_iterations=40,
                ))
                for k in range(3)
            ]
            for future in doomed:
                error = future.exception(timeout=30)
                assert isinstance(error, RetryExhaustedError)
                assert error.attempts == 2
            loop = harmonic_loops(1, seed=14)[0]
            served = server.submit_async(
                SolveRequest.create(small_geometry, loop, max_iterations=40)
            ).result(timeout=30)
        alone = MosaicFlowPredictor(
            small_geometry, default_solver_factory(small_geometry)
        ).run(loop, max_iterations=40, tol=1e-6)
        assert served.solution.tobytes() == alone.solution.tobytes()

    def test_retry_exhaustion_raises_typed_error(self, small_geometry, harmonic_loops,
                                                 fake_clock):
        loops = harmonic_loops(1, seed=13)
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(3)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=2)
        request = SolveRequest.create(small_geometry, loops[0], max_iterations=40)
        server.submit(request)
        future = server.future(request.request_id)
        results = server.drain()
        assert results == {}
        error = future.exception()
        assert isinstance(error, RetryExhaustedError)
        assert error.attempts == 3
        assert isinstance(error.__cause__, InjectedFault)
        with pytest.raises(RetryExhaustedError):
            future.result(timeout=0)
        assert server.stats.retries == 2
        assert server.stats.failures == 1
        assert server.store.stats()["failures"] == 1

        # The failed key stays reclaimable: a fresh submission (schedule
        # exhausted by now) claims it again and succeeds.
        retry = SolveRequest.create(small_geometry, loops[0], max_iterations=40)
        server.submit(retry)
        results = server.drain()
        assert results[retry.request_id].converged is not None
        assert server.store.stats()["claims"] == 2

    def test_assembly_crash_fails_batch_with_cause(self, small_geometry,
                                                   harmonic_loops, fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=BATCH_ASSEMBLY, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=14)[0], max_iterations=40
        )
        server.submit(request)
        future = server.future(request.request_id)
        assert server.drain() == {}
        error = future.exception()
        assert isinstance(error, RetryExhaustedError)
        assert isinstance(error.__cause__, InjectedFault)
        assert server.stats.failures == 1
        # Assembly recovered on the next submission (call index 1 is clean).
        again = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=14)[0], max_iterations=40
        )
        server.submit(again)
        assert again.request_id in server.drain()


class TestDeadlines:
    def test_injected_slow_solve_trips_deadline(self, small_geometry, harmonic_loops,
                                                fake_clock):
        # The straggler advances the fake clock 10s; the request allowed 5s.
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=10.0)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=15)[0],
            max_iterations=40, deadline_seconds=5.0,
        )
        server.submit(request)
        future = server.future(request.request_id)
        assert server.drain() == {}
        error = future.exception()
        assert isinstance(error, DeadlineExceededError)
        assert "after its" in str(error)
        assert server.stats.timeouts == 1
        assert server.stats.fused_runs == 1  # the solve ran, but arrived late

    def test_expired_request_fails_fast_before_dispatch(self, small_geometry,
                                                        harmonic_loops, fake_clock):
        server = _server(fake_clock)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=16)[0],
            max_iterations=40, deadline_seconds=2.0,
        )
        server.submit(request)  # queued: batch of 8 never fills
        future = server.future(request.request_id)
        fake_clock.advance(3.0)
        assert server.drain() == {}
        error = future.exception()
        assert isinstance(error, DeadlineExceededError)
        assert "before dispatch" in str(error)
        assert server.stats.fused_runs == 0  # no solver capacity was spent
        assert server.stats.timeouts == 1
        # Expired requests never reach the queue-wait histogram, so they
        # cannot skew the served-traffic latency percentiles.
        waits = server.stats.registry.histogram("serving.queue_wait_seconds")
        assert waits.count == 0

    def test_live_waiter_keeps_expired_duplicate_alive(self, small_geometry,
                                                       harmonic_loops, fake_clock):
        # One waiter with a tight deadline, a duplicate without any: the
        # solve must still run (expire only fires when ALL waiters expired),
        # the deadlined waiter is rejected at completion, the other served.
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=10.0)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults)
        loop = harmonic_loops(1, seed=17)[0]
        tight = SolveRequest.create(
            small_geometry, loop, max_iterations=40, deadline_seconds=5.0
        )
        patient = SolveRequest.create(small_geometry, loop, max_iterations=40)
        server.submit(tight)
        server.submit(patient)
        tight_future = server.future(tight.request_id)
        results = server.drain()
        assert list(results) == [patient.request_id]
        assert isinstance(tight_future.exception(), DeadlineExceededError)
        assert server.stats.fused_runs == 1


class TestStoreDelivery:
    def test_duplicate_delivery_is_idempotent(self, small_geometry, harmonic_loops,
                                              fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=STORE_DELIVER, index=0, kind=DUPLICATE)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults)
        loop = harmonic_loops(1, seed=18)[0]
        ids = [
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
            for _ in range(2)
        ]
        results = server.drain()
        assert sorted(results) == sorted(ids)
        assert server.stats.fused_runs == 1
        assert server.store.stats()["duplicate_deliveries"] == 1
        first, second = (results[i].solution for i in ids)
        assert first.tobytes() == second.tobytes()


class TestSchedules:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nope", index=0)
        with pytest.raises(ValueError, match="store boundary"):
            FaultSpec(site=WORKER_SOLVE, index=0, kind=DUPLICATE)
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(site=WORKER_SOLVE, index=-1)

    def test_seeded_schedule_is_reproducible(self):
        first = FaultSchedule.seeded(123, num_faults=5)
        second = FaultSchedule.seeded(123, num_faults=5)
        assert first.specs == second.specs
        assert FaultSchedule.seeded(124, num_faults=5).specs != first.specs
        for spec in first:
            if spec.site == STORE_DELIVER:
                assert spec.kind == DUPLICATE
            else:
                assert spec.kind in (CRASH, DELAY)

    def test_seeded_scenario_replays_identically(self, small_geometry, harmonic_loops,
                                                 fake_clock):
        loops = harmonic_loops(4, seed=19)

        def run_once():
            clock = type(fake_clock)()  # fresh fake clock per run
            faults = FaultInjector(
                FaultSchedule.seeded(7, num_faults=2,
                                     sites=(WORKER_SOLVE, STORE_DELIVER),
                                     max_index=3),
                sleep=clock.advance,
            )
            server = _server(clock, faults=faults, max_retries=4)
            requests = [
                SolveRequest.create(small_geometry, loop, max_iterations=40)
                for loop in loops
            ]
            futures = [server.submit_async(request) for request in requests]
            server.drain()
            outcomes = []
            for future in futures:
                error = future.exception(timeout=0)
                if error is None:
                    outcomes.append(future.result(timeout=0).solution.tobytes())
                else:
                    outcomes.append(type(error).__name__)
            fired = [(site, index, spec.kind) for site, index, spec in faults.fired]
            counters = (server.stats.retries, server.stats.failures,
                        server.stats.timeouts, server.stats.fused_runs)
            return outcomes, fired, counters

        assert run_once() == run_once()

    def test_disabled_injector_is_inert(self, small_geometry, harmonic_loops,
                                        fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance, enabled=False,
        )
        server = _server(fake_clock, faults=faults)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=20)[0], max_iterations=40
        )
        server.submit(request)
        assert request.request_id in server.drain()
        assert faults.calls(WORKER_SOLVE) == 0
        assert faults.fired == []
