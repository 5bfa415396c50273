"""Flight-recorder wiring, SLO health snapshots, and request-memory accounting.

Every scenario runs on the injectable fake clock (injected delays advance it
instead of sleeping), so retention decisions, SLO windows and latency
attribution are all deterministic.
"""

import numpy as np
import pytest

from repro.obs import (
    FlightRecorder,
    disable_memory_accounting,
    disable_tracing,
    enable_memory_accounting,
    enable_tracing,
)
from repro.obs import memory as obs_memory
from repro.serving import (
    BATCH_ASSEMBLY,
    CRASH,
    DEATH,
    DELAY,
    JOURNAL_WRITE,
    STORE_DELIVER,
    TORN,
    WORKER_DEATH,
    WORKER_SOLVE,
    BatchPolicy,
    DeadlineExceededError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    RetryExhaustedError,
    Server,
    SolutionCache,
    SolveRequest,
    WorkerSupervisor,
)
from repro.mosaic.geometry import MosaicGeometry


@pytest.fixture(autouse=True)
def _obs_reset():
    yield
    disable_tracing()
    disable_memory_accounting()


def _server(clock, faults=None, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_seconds=1e9))
    kwargs.setdefault("cache", SolutionCache(capacity=64))
    kwargs.setdefault("sleep", clock.advance)
    kwargs.setdefault("flight", FlightRecorder(min_samples=4, latency_quantile=90.0))
    return Server(clock=clock, faults=faults, **kwargs)


class TestFailureClassRetention:
    """Each injected failure class must retain an attributed flight record."""

    def test_retry_exhaustion_retains_failed_record(self, small_geometry,
                                                    harmonic_loops, fake_clock):
        enable_tracing()
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(3)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=2)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=31)[0],
            max_iterations=40, tenant="acme",
        )
        server.submit(request)
        future = server.future(request.request_id)
        server.drain()
        error = future.exception()
        assert isinstance(error, RetryExhaustedError)

        records = server.flight.records("failed")
        assert [r.request_id for r in records] == [request.request_id]
        record = records[0]
        assert record.tenant == "acme"
        assert record.attrs["attempts"] == 3
        assert record.attrs["fusion_key"] is not None
        assert "RetryExhaustedError" in record.error
        # The exception itself carries the record for callers downstream.
        assert error.flight_record is record
        # The span tree of the failing request was captured.
        assert "serving.batch" in record.span_tree()
        assert "serving.retry" in record.span_tree()

    def test_crash_then_success_retains_retried_record(self, small_geometry,
                                                       harmonic_loops, fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=2)
        ids = [
            server.submit(SolveRequest.create(
                small_geometry, loop, max_iterations=40, tenant="acme"))
            for loop in harmonic_loops(2, seed=32)
        ]
        results = server.drain()
        assert sorted(results) == sorted(ids)
        records = server.flight.records("retried")
        assert sorted(r.request_id for r in records) == sorted(ids)
        assert all(r.attrs["attempts"] == 1 for r in records)
        assert all(r.attrs["batch_size"] == 2 for r in records)

    def test_straggler_solve_retains_straggler_record(self, small_geometry,
                                                      harmonic_loops, fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=10.0)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=33)[0],
            max_iterations=40, deadline_seconds=5.0, tenant="acme",
        )
        server.submit(request)
        future = server.future(request.request_id)
        server.drain()
        assert isinstance(future.exception(), DeadlineExceededError)
        records = server.flight.records("straggler")
        assert [r.request_id for r in records] == [request.request_id]
        assert records[0].latency_seconds == pytest.approx(10.0)

    def test_fail_fast_expiry_retains_deadline_record(self, small_geometry,
                                                      harmonic_loops, fake_clock):
        server = _server(fake_clock)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=34)[0],
            max_iterations=40, deadline_seconds=2.0, tenant="acme",
        )
        server.submit(request)
        fake_clock.advance(3.0)
        server.drain()
        records = server.flight.records("deadline")
        assert [r.request_id for r in records] == [request.request_id]
        assert records[0].attrs["attempts"] == 0

    def test_slow_tail_is_retained_with_rolling_threshold(self, small_geometry,
                                                          harmonic_loops, fake_clock):
        # Eight fast requests seed the latency distribution; the delayed one
        # lands far past the rolling p90 and is retained as "slow".
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=1, kind=DELAY, delay_seconds=10.0)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults)
        loops = harmonic_loops(8, seed=35)
        for loop in loops:
            server.submit(SolveRequest.create(
                small_geometry, loop, max_iterations=40))
        server.drain()
        assert server.flight.records() == []  # all fast, nothing retained
        slow = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=36)[0],
            max_iterations=40, tenant="tail",
        )
        server.submit(slow)
        server.drain()
        records = server.flight.records("slow")
        assert [r.request_id for r in records] == [slow.request_id]
        assert records[0].latency_seconds == pytest.approx(10.0)
        assert records[0].exemplars["latency_p99_seconds"] >= 0.0

    def test_mega_batch_occupancy_attribution(self, fake_clock):
        # Two fusion-compatible geometry groups crash once and retry as one
        # mega run: the retained records carry occupancy 2 + the fusion key.
        rect = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                              steps_x=4, steps_y=4)
        wide = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                              steps_x=6, steps_y=4)
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(
            fake_clock, faults=faults, max_retries=2,
            policy=BatchPolicy(max_batch_size=1, max_wait_seconds=1e9),
        )
        rng = np.random.default_rng(0)
        ids = []
        for geometry in (rect, wide):
            loop = rng.normal(size=geometry.global_boundary_size)
            ids.append(server.submit_async(SolveRequest.create(
                geometry, loop, max_iterations=30, tenant="acme")).request_id)
        results = server.drain()
        assert sorted(results) == sorted(ids)
        records = server.flight.records("retried")
        assert sorted(r.request_id for r in records) == sorted(ids)
        keys = {r.attrs["fusion_key"] for r in records}
        assert len(keys) == 1 and None not in keys
        assert all(r.attrs["mega_occupancy"] == 2 for r in records)

    def test_flight_counters_exported(self, small_geometry, harmonic_loops,
                                      fake_clock):
        server = _server(fake_clock)
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=37)[0],
            max_iterations=40, deadline_seconds=1.0,
        )
        server.submit(request)
        fake_clock.advance(2.0)
        server.drain()
        snap = server.stats.registry.snapshot()
        assert snap["serving.flight_records{reason=deadline}"]["value"] == 1


class TestDeterminism:
    def test_retained_set_is_identical_across_seeded_runs(self, small_geometry,
                                                          harmonic_loops, fake_clock):
        loops = harmonic_loops(4, seed=38)

        def run_once():
            clock = type(fake_clock)()
            faults = FaultInjector(
                FaultSchedule.seeded(3, num_faults=2,
                                     sites=(WORKER_SOLVE, STORE_DELIVER),
                                     max_index=3),
                sleep=clock.advance,
            )
            server = _server(clock, faults=faults, max_retries=4)
            requests = [
                SolveRequest.create(small_geometry, loop, max_iterations=40,
                                    request_id=f"req-{i}", tenant="acme")
                for i, loop in enumerate(loops)
            ]
            futures = [server.submit_async(request) for request in requests]
            server.drain()
            retained = [
                (r.request_id, r.reason, r.attrs["attempts"])
                for r in server.flight.records()
            ]
            outcomes = {}
            for request, future in zip(requests, futures):
                if future.exception(timeout=0) is None:
                    outcomes[request.request_id] = (
                        future.result(timeout=0).solution.tobytes()
                    )
            return server, retained, outcomes

        server_a, retained_a, outcomes_a = run_once()
        server_b, retained_b, outcomes_b = run_once()
        assert retained_a == retained_b
        assert outcomes_a == outcomes_b
        assert retained_a  # the seeded schedule does retain something

    def test_retained_request_replays_bitwise_from_store(self, small_geometry,
                                                         harmonic_loops, fake_clock):
        # A retained (retried-but-successful) trace stays replayable: an
        # exact duplicate resolves from the request store with the identical
        # solution bytes — the flight record points at reproducible data.
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=2)
        loop = harmonic_loops(1, seed=39)[0]
        original = SolveRequest.create(small_geometry, loop, max_iterations=40)
        server.submit(original)
        results = server.drain()
        record = server.flight.records("retried")[0]
        assert record.request_id == original.request_id

        replay = SolveRequest.create(small_geometry, loop, max_iterations=40)
        server.submit(replay)
        replayed = server.drain()
        assert server.stats.store_hits == 1
        assert (
            replayed[replay.request_id].solution.tobytes()
            == results[original.request_id].solution.tobytes()
        )


class TestHealth:
    def test_health_snapshot_shape(self, small_geometry, harmonic_loops, fake_clock):
        acct = enable_memory_accounting()
        server = _server(fake_clock)
        for loop in harmonic_loops(3, seed=40):
            server.submit(SolveRequest.create(
                small_geometry, loop, max_iterations=40))
        server.drain()
        health = server.health()
        assert health["status"] == "ok"
        assert health["alerts"] == []
        assert "availability" in health["slo"]
        assert health["pending"] == 0
        assert health["bytes_per_request"] > 0
        assert health["memory"]["total_allocated_bytes"] > 0
        assert health["flight"]["retained"] == 0
        # Published gauges reach the exporters through the stats registry.
        snap = server.stats.registry.snapshot()
        assert snap["serving.bytes_per_request"]["value"] == (
            health["bytes_per_request"]
        )
        assert any(key.startswith("slo.attainment{") for key in snap)
        assert any(key.startswith("memory.live_bytes{") for key in snap)

    def test_health_burns_on_sustained_failures(self, small_geometry,
                                                harmonic_loops, fake_clock):
        faults = FaultInjector(
            [FaultSpec(site=WORKER_SOLVE, index=i, kind=CRASH) for i in range(12)],
            sleep=fake_clock.advance,
        )
        server = _server(fake_clock, faults=faults, max_retries=0)
        for loop in harmonic_loops(3, seed=41):
            server.submit(SolveRequest.create(
                small_geometry, loop, max_iterations=40))
            server.drain()
        health = server.health()
        assert health["status"] == "burning"
        assert health["alerts"][0]["objective"] == "availability"
        assert health["slo"]["availability"]["burning"] is True


# ---------------------------------------------------------------------------
# Every way out of the server returns what admission took
# ---------------------------------------------------------------------------


def _submit(server, geometry, loop, **kwargs):
    return server.submit_async(SolveRequest.create(geometry, loop, max_iterations=40, **kwargs))


def _success(clock, geometry, loops, tmp_path):
    server = _server(clock)
    return server, [_submit(server, geometry, loops[0])]


def _store_replay(clock, geometry, loops, tmp_path):
    server = _server(clock)
    first = _submit(server, geometry, loops[0])
    server.drain()
    return server, [first, _submit(server, geometry, loops[0])]


def _cache_hit(clock, geometry, loops, tmp_path):
    # Equal after the cache's rounding, different bytes for the store.
    loop = np.round(loops[0], 6)
    server = _server(clock)
    first = _submit(server, geometry, loop)
    server.drain()
    return server, [first, _submit(server, geometry, loop + 1e-12)]


def _dedup_attach(clock, geometry, loops, tmp_path):
    server = _server(clock)
    return server, [_submit(server, geometry, loops[0]) for _ in range(2)]


def _expiry_before_dispatch(clock, geometry, loops, tmp_path):
    server = _server(clock)
    future = _submit(server, geometry, loops[0], deadline_seconds=1.0)
    clock.advance(2.0)
    return server, [future]


def _expiry_during_backoff(clock, geometry, loops, tmp_path):
    faults = FaultInjector([FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)])
    server = _server(clock, faults=faults, max_retries=1,
                     sleep=lambda seconds: clock.advance(5.0))
    return server, [_submit(server, geometry, loops[0], deadline_seconds=2.0)]


def _straggler(clock, geometry, loops, tmp_path):
    faults = FaultInjector(
        [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=10.0)],
        sleep=clock.advance,
    )
    server = _server(clock, faults=faults)
    return server, [_submit(server, geometry, loops[0], deadline_seconds=5.0)]


def _retry_exhaustion(clock, geometry, loops, tmp_path):
    faults = FaultInjector([FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)])
    server = _server(clock, faults=faults, max_retries=0)
    return server, [_submit(server, geometry, loops[0])]


def _assembly_crash(clock, geometry, loops, tmp_path):
    faults = FaultInjector([FaultSpec(site=BATCH_ASSEMBLY, index=0, kind=CRASH)])
    server = _server(clock, faults=faults)
    return server, [_submit(server, geometry, loops[0])]


def _unsupervised_deaths(clock, geometry, loops, tmp_path):
    faults = FaultInjector([FaultSpec(site=WORKER_DEATH, index=0, kind=DEATH, repeat=True)])
    server = _server(clock, faults=faults, max_retries=1)
    return server, [_submit(server, geometry, loops[0])]


def _supervised_deaths(clock, geometry, loops, tmp_path):
    faults = FaultInjector([FaultSpec(site=WORKER_DEATH, index=0, kind=DEATH)])
    server = _server(clock, faults=faults,
                     supervisor=WorkerSupervisor(clock=clock, max_restarts=0))
    return server, [_submit(server, geometry, loops[0])]


def _hang_exhaustion(clock, geometry, loops, tmp_path):
    servers = []

    def stall(seconds):
        # A worker stuck inside its solve while the supervision sweep runs.
        clock.advance(seconds)
        servers[0].check_workers()

    faults = FaultInjector(
        [FaultSpec(site=WORKER_SOLVE, index=0, kind=DELAY, delay_seconds=60.0)],
        sleep=stall,
    )
    supervisor = WorkerSupervisor(clock=clock, heartbeat_timeout_seconds=30.0,
                                  max_restarts=0)
    servers.append(_server(clock, faults=faults, supervisor=supervisor))
    return servers[0], [_submit(servers[0], geometry, loops[0])]


def _journal_refuses_claim(clock, geometry, loops, tmp_path):
    faults = FaultInjector([FaultSpec(site=JOURNAL_WRITE, index=0, kind=TORN)])
    server = _server(clock, faults=faults, journal=tmp_path / "requests.journal")
    return server, [_submit(server, geometry, loops[0])]


def _solved(counter):
    return lambda server, future: (
        future.exception() is None and server.stats.as_dict()[counter] >= 1
    )


def _failed(fragment):
    return lambda server, future: fragment in str(future.exception())


EXIT_PATHS = [
    (_success, _solved("solved_requests")),
    (_store_replay, _solved("store_hits")),
    (_cache_hit, _solved("cache_hits")),
    (_dedup_attach, _solved("dedup_hits")),
    (_expiry_before_dispatch, _failed("deadline before dispatch")),
    (_expiry_during_backoff, _failed("deadline during retry backoff")),
    (_straggler, _failed("completed after its 5.0s deadline")),
    (_retry_exhaustion, _failed("fused solve failed after 1 attempt(s)")),
    (_assembly_crash, _failed("batch execution failed")),
    (_unsupervised_deaths, _failed("worker died on each of 2 attempt(s)")),
    (_supervised_deaths, _failed("worker died and the supervisor's restart budget")),
    (_hang_exhaustion, _failed("sent no heartbeat for 30.0s")),
    (_journal_refuses_claim, _failed("could not be claimed")),
]


@pytest.mark.parametrize(
    "path, took_path", EXIT_PATHS, ids=[path.__name__.lstrip("_") for path, _ in EXIT_PATHS],
)
def test_request_payload_accounting_balances(path, took_path, small_geometry,
                                             harmonic_loops, fake_clock, tmp_path):
    # Whichever way a request leaves, drain() finds its payload bytes, its
    # tenant's admission slot, its id and its future all given back.
    acct = enable_memory_accounting()
    loops = harmonic_loops(1, seed=42)
    server, futures = path(fake_clock, small_geometry, loops, tmp_path)
    # Each submission since the path's own drain is reachable by its id.
    undrained = futures[1:] if path in (_store_replay, _cache_hit) else futures
    assert all(server.future(future.request_id) is future for future in undrained)
    server.drain()
    assert all(future.done() for future in futures)
    assert all(server.result(future.request_id) is None for future in futures)
    assert took_path(server, futures[-1])
    assert acct.live_bytes(obs_memory.REQUEST_PAYLOADS) == 0
    assert acct.allocated_bytes(obs_memory.REQUEST_PAYLOADS) == len(futures) * loops[0].nbytes
    assert server.admission.pending("default") == 0
    assert all(server.future(future.request_id) is None for future in futures)
    if server.store.journal is not None:
        server.store.journal.close()
