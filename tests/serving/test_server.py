"""End-to-end server behaviour: batching, caching, request ids, stats."""

import sys
import threading

import numpy as np
import pytest

from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor, MosaicGeometry
from repro.serving import (
    CRASH,
    WORKER_SOLVE,
    BatchPolicy,
    FaultInjector,
    FaultSpec,
    QuotaExceededError,
    RequestValidationError,
    Server,
    SolutionCache,
    SolveRequest,
    TenantQuota,
)


def _server(clock, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8, max_wait_seconds=1e9))
    kwargs.setdefault("cache", SolutionCache(capacity=64))
    return Server(clock=clock, **kwargs)


class TestSubmitDrain:
    def test_serves_correct_solutions(self, small_geometry, harmonic_loops, fake_clock):
        loops = harmonic_loops(6, seed=1)
        server = _server(fake_clock)
        ids = [
            server.submit(
                SolveRequest.create(small_geometry, loop, tol=1e-6, max_iterations=120)
            )
            for loop in loops
        ]
        results = server.drain()
        assert sorted(results) == sorted(ids)
        solver = FDSubdomainSolver(small_geometry.subdomain_grid())
        for loop, request_id in zip(loops, ids):
            reference = MosaicFlowPredictor(small_geometry, solver, batched=True).run(
                loop, max_iterations=120, tol=1e-6
            )
            np.testing.assert_allclose(
                results[request_id].solution, reference.solution, atol=1e-8, rtol=0
            )
            assert results[request_id].iterations == reference.iterations

    def test_batches_fewer_runs_than_requests(self, small_geometry, harmonic_loops,
                                              fake_clock):
        loops = harmonic_loops(8, seed=2)
        server = _server(fake_clock)
        for loop in loops:
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
        results = server.drain()
        assert len(results) == 8
        assert server.stats.fused_runs == 1
        assert server.stats.solver_runs_saved == 7
        assert all(r.batch_size == 8 for r in results.values())

    def test_queued_requests_do_not_count_as_savings(self, small_geometry,
                                                     harmonic_loops, fake_clock):
        server = _server(fake_clock)  # max_batch_size=8: nothing executes yet
        for loop in harmonic_loops(3, seed=9):
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=30))
        assert server.pending == 3
        assert server.stats.solver_runs_saved == 0
        server.drain()
        assert server.stats.solver_runs_saved == 2  # 3 completed, 1 fused run

    def test_full_batch_executes_during_submit(self, small_geometry, harmonic_loops,
                                               fake_clock):
        loops = harmonic_loops(4, seed=3)
        server = _server(fake_clock,
                         policy=BatchPolicy(max_batch_size=2, max_wait_seconds=1e9))
        ids = [
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=30))
            for loop in loops
        ]
        # two full batches of 2 already ran inside submit()
        assert server.pending == 0
        assert server.stats.fused_runs == 2
        assert server.result(ids[0]) is not None
        assert len(server.drain()) == 4

    def test_deadline_releases_partial_batch(self, small_geometry, harmonic_loops,
                                             fake_clock):
        loops = harmonic_loops(2, seed=4)
        server = _server(fake_clock,
                         policy=BatchPolicy(max_batch_size=100, max_wait_seconds=5.0))
        server.submit(SolveRequest.create(small_geometry, loops[0], max_iterations=30))
        assert server.pending == 1
        fake_clock.advance(6.0)
        server.submit(SolveRequest.create(small_geometry, loops[1], max_iterations=30))
        # the deadline-expired group (both requests) ran inside the second submit
        assert server.pending == 0
        assert server.stats.fused_runs == 1

    def test_rejects_duplicate_ids_and_raw_arrays(self, small_geometry, fake_clock):
        server = _server(fake_clock)
        size = small_geometry.global_grid().boundary_size
        request = SolveRequest.create(small_geometry, np.zeros(size))
        server.submit(request)
        with pytest.raises(RequestValidationError, match="duplicate"):
            server.submit(request)
        with pytest.raises(RequestValidationError, match="takes a SolveRequest"):
            server.submit(np.zeros(size))

    def test_racing_duplicate_ids_get_one_future(self, small_geometry, harmonic_loops,
                                                 fake_clock):
        # The first submitter passes the duplicate check and is held inside
        # admission; a second thread submits the same id meanwhile.  The
        # check reserved the id, so the second is refused before admission.
        server = _server(fake_clock)
        entered, gate, decided = threading.Event(), threading.Event(), []
        decide = server.admission.decide

        def held_decide(request):
            decided.append(request.request_id)
            if len(decided) == 1:
                entered.set()
                assert gate.wait(timeout=30)
            return decide(request)

        server.admission.decide = held_decide
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=11)[0], max_iterations=30
        )
        first = []
        thread = threading.Thread(target=lambda: first.append(server.submit_async(request)))
        thread.start()
        try:
            assert entered.wait(timeout=30)
            with pytest.raises(RequestValidationError, match="duplicate"):
                server.submit_async(request)
        finally:
            gate.set()
            thread.join(timeout=30)
        assert decided == [request.request_id]
        assert server.future(request.request_id) is first[0]
        results = server.drain()
        assert list(results) == [request.request_id]
        assert first[0].result(timeout=0) is results[request.request_id]

    def test_submit_storm_admits_each_id_once(self, small_geometry, harmonic_loops,
                                              fake_clock):
        server = _server(fake_clock)
        requests = [
            SolveRequest.create(small_geometry, loop, max_iterations=10,
                                request_id=f"shared-{k}")
            for k, loop in enumerate(harmonic_loops(4, seed=13))
        ]
        barrier, futures, refused = threading.Barrier(8), [], []

        def submitter():
            barrier.wait(timeout=10)
            for request in requests:
                try:
                    futures.append(server.submit_async(request))
                except RequestValidationError:
                    refused.append(request.request_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = sorted(request.request_id for request in requests)
        assert sorted(future.request_id for future in futures) == ids
        assert len(refused) == 8 * len(requests) - len(requests)
        assert sorted(server.drain()) == ids

    def test_refused_id_can_be_submitted_again(self, small_geometry, harmonic_loops,
                                               fake_clock):
        server = _server(fake_clock, quotas=TenantQuota(max_pending=1))
        loops = harmonic_loops(2, seed=12)
        server.submit(SolveRequest.create(small_geometry, loops[0], max_iterations=30))
        request = SolveRequest.create(small_geometry, loops[1], max_iterations=30)
        with pytest.raises(QuotaExceededError):
            server.submit(request)
        server.drain()
        server.submit(request)  # the quota refusal released the reserved id
        assert request.request_id in server.drain()


# ---------------------------------------------------------------------------
# A request id from admission to the drain after it settles
# ---------------------------------------------------------------------------

_ONE_PER_BATCH = BatchPolicy(max_batch_size=1, max_wait_seconds=1e9)


def _in_flight(clock, request):
    server = _server(clock)
    return server, server.submit_async(request)  # queued: the batch is not full


def _solved_not_drained(clock, request):
    server = _server(clock, policy=_ONE_PER_BATCH)
    server.submit(request)  # a full batch runs inside submit()
    assert server.result(request.request_id) is not None
    return server, server.future(request.request_id)


def _failed_not_drained(clock, request):
    faults = FaultInjector([FaultSpec(site=WORKER_SOLVE, index=0, kind=CRASH)])
    server = _server(clock, policy=_ONE_PER_BATCH, faults=faults, max_retries=0)
    server.submit(request)
    assert server.future(request.request_id).exception(timeout=0) is not None
    return server, server.future(request.request_id)


def _solved_and_drained(clock, request):
    server = _server(clock)
    server.submit(request)
    assert list(server.drain()) == [request.request_id]
    return server, None


# (how the first submission of the id ends, whether a second is accepted)
ID_LIFECYCLE = [
    (_in_flight, False),
    (_solved_not_drained, False),
    (_failed_not_drained, True),
    (_solved_and_drained, True),
]


@pytest.mark.parametrize(
    "first, accepted", ID_LIFECYCLE, ids=[first.__name__.lstrip("_") for first, _ in ID_LIFECYCLE],
)
def test_a_request_id_is_taken_until_it_fails_or_is_drained(
    first, accepted, small_geometry, harmonic_loops, fake_clock
):
    request = SolveRequest.create(
        small_geometry, harmonic_loops(1, seed=14)[0], max_iterations=30
    )
    server, old = first(fake_clock, request)
    if not accepted:
        with pytest.raises(RequestValidationError, match="duplicate"):
            server.submit_async(request)
        assert server.future(request.request_id) is old
        assert list(server.drain()) == [request.request_id]
        return
    new = server.submit_async(request)
    assert new is not old
    assert server.future(request.request_id) is new
    results = server.drain()
    assert results[request.request_id] is new.result(timeout=0)
    # A drained solved key replays from the store; a failed one is solved again.
    assert server.store.replays == (1 if old is None else 0)


class TestCachingPaths:
    def test_lru_hit_skips_solve(self, small_geometry, harmonic_loops, fake_clock):
        loops = harmonic_loops(2, seed=5)
        server = _server(fake_clock)
        first = server.submit(
            SolveRequest.create(small_geometry, loops[0], max_iterations=40)
        )
        server.drain()
        runs_before = server.stats.fused_runs
        again = server.submit(
            SolveRequest.create(small_geometry, loops[0], max_iterations=40)
        )
        results = server.drain()
        assert server.stats.fused_runs == runs_before
        assert server.stats.cache_hits == 1
        assert results[again].cache_hit
        assert np.array_equal(
            results[again].solution, server.cache.get(
                SolveRequest.create(small_geometry, loops[0], max_iterations=40)
            ).solution,
        )
        assert first != again

    def test_in_batch_duplicates_solved_once(self, small_geometry, harmonic_loops,
                                             fake_clock):
        loops = harmonic_loops(1, seed=6)
        server = _server(fake_clock)
        ids = [
            server.submit(
                SolveRequest.create(small_geometry, loops[0], max_iterations=40)
            )
            for _ in range(3)
        ]
        results = server.drain()
        assert server.stats.fused_runs == 1
        assert server.stats.dedup_hits == 2 == server.store.stats()["attached"]
        assert server.stats.cache_hit_rate == pytest.approx(2 / 3)
        # The store attaches both duplicates to the first at submit, so the
        # batch holds one row, and batch_size reports rows, not answers.
        assert all(results[i].batch_size == 1 for i in ids)
        a, b, c = (results[i].solution for i in ids)
        assert np.array_equal(a, b) and np.array_equal(b, c)

    def test_near_duplicates_in_one_batch_each_equal_their_standalone_run(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        loop = harmonic_loops(1, seed=8)[0]
        # Distinct bytes, one quantised cache key: near-duplicate twins.
        loops = [loop, loop + 1e-13, loop - 1e-13]
        server = _server(fake_clock)
        ids = [
            server.submit(SolveRequest.create(small_geometry, twin, max_iterations=40))
            for twin in loops[:2]
        ]
        # An exact duplicate of the first attaches to it in the store.
        exact = server.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
        results = server.drain()
        assert server.stats.fused_runs == 1 and server.stats.solved_requests == 2
        solver = FDSubdomainSolver(small_geometry.subdomain_grid(), method="direct")
        for twin, request_id in zip(loops, ids):
            alone = MosaicFlowPredictor(small_geometry, solver).run(
                twin, max_iterations=40, tol=1e-6)
            assert np.array_equal(results[request_id].solution, alone.solution)
            assert results[request_id].batch_size == 2
        assert np.array_equal(results[exact].solution, results[ids[0]].solution)
        # The later near-duplicate is the cache's: answered at submit.
        later = server.submit(
            SolveRequest.create(small_geometry, loops[2], max_iterations=40))
        assert server.drain()[later].cache_hit
        assert server.stats.cache_hits == 1 and server.stats.fused_runs == 1
        assert server.stats.dedup_hits == server.store.stats()["attached"] == 1

    def test_stats_report_renders(self, small_geometry, harmonic_loops, fake_clock):
        server = _server(fake_clock)
        server.submit(
            SolveRequest.create(small_geometry, harmonic_loops(1, seed=7)[0],
                                max_iterations=30)
        )
        server.drain()
        report = server.stats.report()
        assert "requests" in report and "p99" in report
        d = server.stats.as_dict()
        assert d["requests"] == 1 and d["fused_runs"] == 1


class TestEmptyDrain:
    def test_empty_drain_emits_no_spans_or_metrics(self, fake_clock):
        from repro.obs import disable_tracing, enable_tracing

        server = _server(fake_clock)
        tracer = enable_tracing()
        try:
            assert server.drain() == {}
        finally:
            disable_tracing()
        assert tracer.span_count() == 0
        d = server.stats.as_dict()
        assert d["requests"] == 0 and d["fused_runs"] == 0
        assert d["latency_mean"] == 0.0 and d["mean_batch_size"] == 0.0

    def test_drain_after_drain_is_quiet(self, small_geometry, harmonic_loops,
                                        fake_clock):
        from repro.obs import disable_tracing, enable_tracing

        server = _server(fake_clock)
        server.submit(
            SolveRequest.create(small_geometry, harmonic_loops(1, seed=10)[0],
                                max_iterations=30)
        )
        server.drain()
        snapshot = server.stats.as_dict()
        tracer = enable_tracing()
        try:
            assert server.drain() == {}
        finally:
            disable_tracing()
        assert tracer.span_count() == 0
        after = server.stats.as_dict()
        after.pop("obs"), snapshot.pop("obs")
        assert after == snapshot


class TestMixedGeometries:
    def test_groups_run_separately_but_all_complete(self, small_geometry, fake_clock):
        other = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                               steps_x=6, steps_y=4)
        server = _server(fake_clock)
        ids = []
        for geometry in (small_geometry, other, small_geometry, other):
            grid = geometry.global_grid()
            loop = grid.boundary_from_function(lambda x, y: x + 2 * y)
            ids.append(
                server.submit(
                    SolveRequest.create(geometry, loop, max_iterations=40)
                )
            )
        results = server.drain()
        assert len(results) == 4
        assert server.stats.fused_runs == 2  # one per geometry group
