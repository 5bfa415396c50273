"""Async pipeline behaviour: futures, parity with the sync path, admission.

The async server (dispatcher thread + solve-worker pool) must be a pure
performance feature: for the same set of requests it returns bit-for-bit the
solutions the synchronous submit/drain path returns, under any thread
interleaving, while admission control keeps the queue depth bounded.
"""

import concurrent.futures
import multiprocessing
import os
import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor, MosaicGeometry
from repro.obs import disable_tracing, enable_tracing
from repro.serving import (
    BatchPolicy,
    QuotaExceededError,
    Server,
    SolutionCache,
    SolveRequest,
    TenantQuota,
)


@pytest.fixture(scope="module")
def l_geometry():
    return CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))


def _mixed_loops(small_geometry, l_geometry, harmonic_loops, seed):
    """Mixed rect + L-shape BVPs: list of (geometry, boundary_loop)."""

    bvps = [(small_geometry, loop) for loop in harmonic_loops(3, seed=seed)]
    for weights in ((1.0, 0.5, -0.25), (-0.5, 2.0, 0.75)):
        loop = l_geometry.boundary_from_function(
            lambda x, y, w=weights: w[0] * (x * x - y * y) + w[1] * x * y + w[2] * x
        )
        bvps.append((l_geometry, loop))
    return bvps


def _sync_reference(bvps):
    """Solve each BVP on a fresh sync server; returns solution bytes per index."""

    server = Server(
        policy=BatchPolicy(max_batch_size=4, max_wait_seconds=1e9),
        cache=SolutionCache(capacity=64),
    )
    requests = [
        SolveRequest.create(geometry, loop, max_iterations=40)
        for geometry, loop in bvps
    ]
    for request in requests:
        server.submit(request)
    results = server.drain()
    return [
        (results[r.request_id].solution.tobytes(), results[r.request_id].iterations)
        for r in requests
    ]


class TestAsyncParity:
    def test_async_matches_sync_bitwise(self, small_geometry, l_geometry,
                                        harmonic_loops):
        bvps = _mixed_loops(small_geometry, l_geometry, harmonic_loops, seed=21)
        reference = _sync_reference(bvps)
        with Server(
            policy=BatchPolicy(max_batch_size=4, max_wait_seconds=0.002),
            cache=SolutionCache(capacity=64),
            async_workers=2,
        ) as server:
            assert server.running
            futures = [
                server.submit_async(
                    SolveRequest.create(geometry, loop, max_iterations=40)
                )
                for geometry, loop in bvps
            ]
            results = [future.result(timeout=120) for future in futures]
        assert not server.running
        for result, (ref_bytes, ref_iterations) in zip(results, reference):
            assert result.solution.tobytes() == ref_bytes
            assert result.iterations == ref_iterations

    def test_concurrent_submitters_bitwise_and_exactly_once(
        self, small_geometry, l_geometry, harmonic_loops
    ):
        bvps = _mixed_loops(small_geometry, l_geometry, harmonic_loops, seed=22)
        reference = _sync_reference(bvps)
        num_threads = 6
        failures = []
        with Server(
            policy=BatchPolicy(max_batch_size=4, max_wait_seconds=0.002),
            cache=SolutionCache(capacity=64),
            async_workers=3,
        ) as server:

            def submitter(thread_index):
                try:
                    indexed = []
                    for k in range(len(bvps)):
                        idx = (thread_index + k) % len(bvps)
                        geometry, loop = bvps[idx]
                        indexed.append(
                            (idx, server.submit_async(
                                SolveRequest.create(geometry, loop, max_iterations=40)
                            ))
                        )
                    for idx, future in indexed:
                        result = future.result(timeout=120)
                        assert result.solution.tobytes() == reference[idx][0]
                        assert result.iterations == reference[idx][1]
                except Exception as exc:  # noqa: BLE001 - collected for the main thread
                    failures.append(exc)

            threads = [
                threading.Thread(target=submitter, args=(t,))
                for t in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []
        # Exactly-once: 30 submissions of 5 canonical BVPs claim and solve
        # each key a single time, no matter the interleaving.
        assert server.stats.requests == num_threads * len(bvps)
        assert server.store.stats()["claims"] == len(bvps)
        assert server.stats.solved_requests == len(bvps)

    def test_drain_collects_async_completions(self, small_geometry, harmonic_loops):
        with Server(
            policy=BatchPolicy(max_batch_size=2, max_wait_seconds=0.002),
            cache=SolutionCache(capacity=64),
            async_workers=2,
        ) as server:
            ids = [
                server.submit(SolveRequest.create(small_geometry, loop,
                                                  max_iterations=40))
                for loop in harmonic_loops(4, seed=23)
            ]
            results = server.drain()
        assert sorted(results) == sorted(ids)
        assert server.pending == 0


class TestFuturesApi:
    def test_result_timeout_and_callbacks(self, small_geometry, harmonic_loops,
                                          fake_clock):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=SolutionCache(capacity=64),
            clock=fake_clock,
        )
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=24)[0], max_iterations=40
        )
        future = server.submit_async(request)
        assert not future.done()
        assert server.future(request.request_id) is future
        with pytest.raises(TimeoutError, match="still pending"):
            future.result(timeout=0.01)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.request_id))
        server.drain()
        assert future.done()
        assert seen == [request.request_id]
        assert future.exception() is None
        assert future.result(timeout=0).request_id == request.request_id
        # Callbacks registered after resolution run immediately.
        future.add_done_callback(lambda f: seen.append("late"))
        assert seen == [request.request_id, "late"]
        # Resolved futures are forgotten at drain; callers keep their handle.
        assert server.future(request.request_id) is None

    def test_store_replay_across_drains(self, small_geometry, harmonic_loops,
                                        fake_clock):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=None,  # isolate the store: no LRU in front of it
            clock=fake_clock,
        )
        loop = harmonic_loops(1, seed=25)[0]
        first = SolveRequest.create(small_geometry, loop, max_iterations=40)
        server.submit(first)
        solved = server.drain()[first.request_id]
        again = SolveRequest.create(small_geometry, loop, max_iterations=40)
        future = server.submit_async(again)
        # Answered at submit from the DONE store entry: no queue, no solve.
        assert future.done()
        replay = future.result(timeout=0)
        assert replay.cache_hit
        assert replay.solution.tobytes() == solved.solution.tobytes()
        assert server.store.stats()["replays"] == 1
        assert server.stats.store_hits == 1
        assert server.stats.fused_runs == 1

    def test_cancel_refuses_and_the_request_is_still_solved(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=None,
            clock=fake_clock,
        )
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=60)[0], max_iterations=40
        )
        future = server.submit_async(request)
        # Admitted means running: the request is solved or failed, never
        # withdrawn.
        assert future.cancel() is False
        assert future.running() and not future.cancelled()
        solved = server.drain()
        assert future.result(timeout=0) is solved[request.request_id]
        assert not future.cancelled()
        assert server.future(request.request_id) is None

    def test_raising_callback_stops_nothing(
        self, small_geometry, harmonic_loops, fake_clock, caplog
    ):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=None,
            clock=fake_clock,
        )
        loop = harmonic_loops(1, seed=61)[0]
        owner = SolveRequest.create(small_geometry, loop, max_iterations=40)
        twin = SolveRequest.create(small_geometry, loop, max_iterations=40)
        other = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=62)[0], max_iterations=40
        )
        futures = [server.submit_async(r) for r in (owner, twin, other)]
        seen = []

        def broken(future):
            raise RuntimeError("callback bug")

        futures[0].add_done_callback(broken)
        for future in futures:
            future.add_done_callback(lambda f: seen.append(f.request_id))
        results = server.drain()
        # Later callbacks on the same future, the twin attached to its
        # solve and an unrelated request all still complete.
        assert sorted(seen) == sorted(r.request_id for r in (owner, twin, other))
        assert sorted(results) == sorted(seen)
        assert all(future.exception() is None for future in futures)
        assert any("callback bug" in str(r.exc_info[1]) for r in caplog.records
                   if r.exc_info)

    def test_wait_and_as_completed_accept_the_futures(
        self, small_geometry, harmonic_loops
    ):
        loops = harmonic_loops(3, seed=63)
        with Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=0.001),
            cache=None,
            async_workers=1,
        ) as server:
            futures = [
                server.submit_async(
                    SolveRequest.create(small_geometry, loop, max_iterations=40)
                )
                for loop in loops
            ]
            done, pending = concurrent.futures.wait(futures, timeout=60)
            assert done == set(futures) and not pending
            completed = list(concurrent.futures.as_completed(futures, timeout=60))
            assert sorted(map(id, completed)) == sorted(map(id, futures))
            results = server.drain()
        for future in futures:
            assert results[future.request_id] is future.result(timeout=0)

    def test_duplicate_future_is_the_owners_store_waiter(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=None,
            clock=fake_clock,
        )
        loop = harmonic_loops(1, seed=64)[0]
        owner = SolveRequest.create(small_geometry, loop, max_iterations=40)
        duplicate = SolveRequest.create(small_geometry, loop, max_iterations=40)
        owner_future = server.submit_async(owner)
        duplicate_future = server.submit_async(duplicate)
        # One object per request: the caller's handle, the server's ticket
        # and the waiter on the owner's in-flight store entry.
        entry = server.store._inflight[server.store.key_for(owner)]
        assert len(entry.waiters) == 2
        assert entry.waiters[0] is owner_future
        assert entry.waiters[1] is duplicate_future
        assert server.future(duplicate.request_id) is duplicate_future
        server.drain()
        solved = owner_future.result(timeout=0).solution
        served = duplicate_future.result(timeout=0).solution
        assert served is not solved
        assert served.tobytes() == solved.tobytes()
        assert server.stats.fused_runs == 1


class TestAdmissionControl:
    def test_sync_quota_rejection_and_release(self, small_geometry, harmonic_loops,
                                              fake_clock):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=None,
            clock=fake_clock,
            quotas=TenantQuota(max_pending=2),
        )
        loops = harmonic_loops(3, seed=26)
        for loop in loops[:2]:
            server.submit(SolveRequest.create(small_geometry, loop, max_iterations=40))
        with pytest.raises(QuotaExceededError, match="over its admission quota"):
            server.submit(
                SolveRequest.create(small_geometry, loops[2], max_iterations=40)
            )
        assert server.stats.rejections == 1
        assert server.pending == 2
        server.drain()
        # Completion released the admitted slots: the shed BVP is admitted now.
        retry = SolveRequest.create(small_geometry, loops[2], max_iterations=40)
        server.submit(retry)
        assert retry.request_id in server.drain()

    def test_async_quota_bounds_queue_depth(self, small_geometry, harmonic_loops,
                                            fake_clock):
        limit = 3
        server = Server(
            policy=BatchPolicy(max_batch_size=64, max_wait_seconds=1e9),
            cache=None,
            clock=fake_clock,
            quotas=TenantQuota(max_pending=limit),
        )
        futures = [
            server.submit_async(
                SolveRequest.create(small_geometry, loop, max_iterations=40)
            )
            for loop in harmonic_loops(8, seed=27)
        ]
        assert server.pending <= limit
        shed = [f for f in futures if f.done()]
        assert len(shed) == len(futures) - limit
        for future in shed:
            assert isinstance(future.exception(), QuotaExceededError)
        assert server.stats.rejections == len(shed)
        results = server.drain()
        admitted = [f for f in futures if f not in shed]
        assert sorted(results) == sorted(f.request_id for f in admitted)

    def test_quotas_are_per_tenant(self, small_geometry, harmonic_loops, fake_clock):
        server = Server(
            policy=BatchPolicy(max_batch_size=64, max_wait_seconds=1e9),
            cache=None,
            clock=fake_clock,
            quotas={"metered": TenantQuota(max_pending=1)},
        )
        loops = harmonic_loops(4, seed=28)
        server.submit(
            SolveRequest.create(small_geometry, loops[0], max_iterations=40,
                                tenant="metered")
        )
        metered = server.submit_async(
            SolveRequest.create(small_geometry, loops[1], max_iterations=40,
                                tenant="metered")
        )
        assert isinstance(metered.exception(timeout=0), QuotaExceededError)
        # Tenants without a quota entry (and no default) are unlimited.
        for loop in loops[2:]:
            server.submit(
                SolveRequest.create(small_geometry, loop, max_iterations=40,
                                    tenant="unmetered")
            )
        assert len(server.drain()) == 3


def _standalone(geometry, loop):
    """The oracle: one request alone through ``MosaicFlowPredictor.run``."""

    solver = FDSubdomainSolver(geometry.subdomain_grid(), method="direct")
    return MosaicFlowPredictor(geometry, solver).run(
        loop, max_iterations=40, tol=1e-6  # tol: SolveRequest.create's default
    )


class _GatedFDSolver(FDSubdomainSolver):
    """FD solver whose first ``predict`` blocks until ``gate`` is set.

    One worker computes in its thread: ``threading`` events do.  Two or more
    compute in forked processes: pass ``multiprocessing`` events.
    """

    def __init__(self, grid, entered, gate):
        super().__init__(grid, method="direct")
        self._entered, self._gate = entered, gate

    def predict(self, boundaries, points):
        if not self._entered.is_set():
            self._entered.set()
            assert self._gate.wait(timeout=30)
        return super().predict(boundaries, points)


class _RecordingFDSolver(FDSubdomainSolver):
    """FD solver that reports ``(pid, rows)`` of every call.

    With a ``barrier`` its first call waits there, so a run only gets past
    that call once the barrier's other parties are inside theirs.
    """

    def __init__(self, grid, calls, barrier=None):
        super().__init__(grid, method="direct")
        self._calls = calls
        self._barrier = barrier

    def predict(self, boundaries, points):
        barrier, self._barrier = self._barrier, None
        if barrier is not None:
            barrier.wait()
        out = super().predict(boundaries, points)
        self._calls.put((os.getpid(), len(boundaries)))
        return out


def _drain(records: queue.Queue) -> list:
    items = []
    while not records.empty():
        items.append(records.get())
    return items


class TestWorkConservingDispatch:
    """A started server runs work whenever a worker is idle, and only then."""

    WINDOW = 5.0  # a batch window no test below can afford to sit out

    def test_lone_request_on_idle_server_skips_the_window(
        self, small_geometry, harmonic_loops
    ):
        loop = harmonic_loops(1, seed=31)[0]
        tracer = enable_tracing()
        try:
            with Server(
                policy=BatchPolicy(max_batch_size=16, max_wait_seconds=self.WINDOW),
                async_workers=1,
            ) as server:
                began = time.monotonic()
                result = server.submit_async(
                    SolveRequest.create(small_geometry, loop, max_iterations=40)
                ).result(timeout=self.WINDOW - 1.0)
                elapsed = time.monotonic() - began
        finally:
            disable_tracing()
        assert elapsed < 1.0
        waits = server.stats.registry.histogram("serving.queue_wait_seconds").values()
        assert len(waits) == 1 and waits[0] < 0.1
        reference = _standalone(small_geometry, loop)
        assert result.solution.tobytes() == reference.solution.tobytes()
        assert result.iterations == reference.iterations
        reasons = [
            s.attrs["reason"]
            for root in tracer.roots for s in root.walk()
            if s.name == "serving.batch"
        ]
        assert reasons == ["idle"]

    def test_requests_behind_a_run_go_together_when_it_finishes(
        self, small_geometry, harmonic_loops
    ):
        loops = harmonic_loops(7, seed=32)
        entered, gate = threading.Event(), threading.Event()
        with Server(
            solver_factory=lambda g: _GatedFDSolver(g.subdomain_grid(), entered, gate),
            policy=BatchPolicy(max_batch_size=16, max_wait_seconds=self.WINDOW),
            async_workers=1,
        ) as server:
            first = server.submit_async(
                SolveRequest.create(small_geometry, loops[0], max_iterations=40)
            )
            assert entered.wait(timeout=10)  # released at once, now mid-solve
            behind = [
                server.submit_async(
                    SolveRequest.create(small_geometry, loop, max_iterations=40)
                )
                for loop in loops[1:]
            ]
            # The one worker is busy: the six wait behind its run for company.
            time.sleep(0.2)
            assert not any(f.done() for f in behind)
            assert server.pending == 7
            began = time.monotonic()
            gate.set()
            results = [f.result(timeout=self.WINDOW - 1.0) for f in [first] + behind]
            elapsed = time.monotonic() - began
        assert elapsed < 2.0  # the finishing run woke the dispatcher
        assert results[0].batch_size == 1
        assert [r.batch_size for r in results[1:]] == [6] * 6
        assert server.stats.fused_runs == 2
        for result, loop in zip(results, loops):
            reference = _standalone(small_geometry, loop)
            assert result.solution.tobytes() == reference.solution.tobytes()
            assert result.iterations == reference.iterations

    def test_an_idle_second_worker_takes_what_arrives_during_a_run(
        self, small_geometry, harmonic_loops
    ):
        loops = harmonic_loops(7, seed=32)
        fork = multiprocessing.get_context("fork")
        entered, gate = fork.Event(), fork.Event()
        with Server(
            solver_factory=lambda g: _GatedFDSolver(g.subdomain_grid(), entered, gate),
            policy=BatchPolicy(max_batch_size=16, max_wait_seconds=self.WINDOW),
            async_workers=2,
        ) as server:
            first = server.submit_async(
                SolveRequest.create(small_geometry, loops[0], max_iterations=40)
            )
            assert entered.wait(timeout=10)  # released at once, now mid-solve
            behind = [
                server.submit_async(
                    SolveRequest.create(small_geometry, loop, max_iterations=40)
                )
                for loop in loops[1:]
            ]
            # A run is in flight, but the second worker is idle: the six go
            # to it at once and finish while the first run is still held.
            results = [f.result(timeout=self.WINDOW - 1.0) for f in behind]
            assert not first.done() and server.pending == 1
            gate.set()
            results.insert(0, first.result(timeout=self.WINDOW - 1.0))
        assert results[0].batch_size == 1
        for result, loop in zip(results, loops):
            reference = _standalone(small_geometry, loop)
            assert result.solution.tobytes() == reference.solution.tobytes()
            assert result.iterations == reference.iterations

    def test_sync_server_still_waits_out_the_window(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        server = Server(
            policy=BatchPolicy(max_batch_size=16, max_wait_seconds=self.WINDOW),
            clock=fake_clock,
        )
        request = SolveRequest.create(
            small_geometry, harmonic_loops(1, seed=33)[0], max_iterations=40
        )
        server.submit(request)
        fake_clock.advance(self.WINDOW - 0.001)
        assert server.poll() == []
        server.pump()
        assert server.pending == 1 and server.result(request.request_id) is None
        fake_clock.advance(0.001)
        assert [batch.reason for batch in server.poll()] == ["deadline"]
        server.pump()
        assert server.result(request.request_id) is not None

    def test_idle_dispatcher_does_not_spin(self, small_geometry, harmonic_loops):
        with Server(async_workers=1) as server:
            server.submit_async(
                SolveRequest.create(
                    small_geometry, harmonic_loops(1, seed=34)[0], max_iterations=40
                )
            ).result(timeout=30)
            iterations = []
            check_workers = server.check_workers  # called once per loop pass
            server.check_workers = lambda: iterations.append(1) or check_workers()
            time.sleep(0.3)
            passes = len(iterations)
        # One pass per poll interval, plus slack for the timer's granularity.
        assert passes <= 0.3 / 0.01 + 10

    def test_squeezed_interleavings_strand_nothing(self):
        # More submitters than cores on a 10 us switch interval: workers wake
        # the dispatcher and groups leave the batcher map while submitters
        # re-create them.  Nothing may be stranded until its 5 s deadline.
        geometries = [MosaicGeometry(9, 0.5, 4, steps_y) for steps_y in range(2, 7)]
        loops = {
            g: g.global_grid().boundary_from_function(lambda x, y: x * x - y * y)
            for g in geometries
        }
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Server(
                policy=BatchPolicy(max_batch_size=4, max_wait_seconds=self.WINDOW),
                async_workers=2,
            ) as server:

                def submitter(index):
                    try:
                        for k in range(20):
                            geometry = geometries[(index + k) % len(geometries)]
                            # Scaled per request: 120 distinct store keys.
                            loop = loops[geometry] * (1.0 + index + 0.01 * k)
                            server.submit_async(
                                SolveRequest.create(geometry, loop, max_iterations=2)
                            ).result(timeout=self.WINDOW - 1.0)
                    except Exception as exc:  # noqa: BLE001 - for the main thread
                        failures.append(exc)

                threads = [
                    threading.Thread(target=submitter, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
                # A future resolves before its run's in-flight count drops.
                assert server._wait_idle(timeout=10)
                assert server.pending == 0 and server._batcher.groups() == []
                assert server.stats.solved_requests == 120
        finally:
            sys.setswitchinterval(interval)

    def test_batcher_map_holds_only_queued_groups(self):
        geometries = [
            MosaicGeometry(9, 0.5, steps_x, steps_y)
            for steps_x in range(2, 22) for steps_y in range(2, 12)
        ]
        assert len(set(geometries)) == 200
        with Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=self.WINDOW),
            async_workers=1,
        ) as server:
            futures = [
                server.submit_async(
                    SolveRequest.create(
                        geometry,
                        geometry.global_grid().boundary_from_function(lambda x, y: x * y),
                        max_iterations=1,
                    )
                )
                for geometry in geometries
            ]
            for future in futures:
                future.result(timeout=60)
            assert server._wait_idle(timeout=10)
            assert server.pending == 0
            assert server._batcher.groups() == []
        # The sync path prunes too: a drained group leaves no queue behind.
        sync = Server(policy=BatchPolicy(max_batch_size=2, max_wait_seconds=1e9))
        for geometry in geometries[:20]:
            loop = geometry.global_grid().boundary_from_function(lambda x, y: x + y)
            sync.submit(SolveRequest.create(geometry, loop, max_iterations=1))
        assert len(sync._batcher.groups()) == 20
        assert len(sync.drain()) == 20
        assert sync._batcher.groups() == []


class TestTwoWorkersRunAtOnce:
    """Each idle worker takes one balanced partition of what is queued."""

    @staticmethod
    def _geometries():
        return [MosaicGeometry(9, 0.5, sx, sy) for sx, sy in ((2, 2), (3, 2), (2, 4), (4, 4))]

    def test_eight_requests_on_four_geometries_run_as_two_overlapping_runs(self):
        geometries = self._geometries()
        budget = 40
        context = multiprocessing.get_context("fork")
        calls = context.Queue()
        # Each compute process meets the other in its first solver call: the
        # two runs can only get past it while both are in flight at once.
        barrier = context.Barrier(2, timeout=30)
        server = Server(
            solver_factory=lambda g: _RecordingFDSolver(g.subdomain_grid(), calls, barrier),
            policy=BatchPolicy(max_batch_size=64, max_wait_seconds=5.0),
            async_workers=2,
        )
        requests = [
            SolveRequest.create(
                g, g.boundary_from_function(lambda x, y, k=k: x * x - y * y + k * x),
                tol=0.0, max_iterations=budget,
            )
            for g in geometries for k in range(2)
        ]
        alone = queue.Queue()  # the standalone runs record their rows here
        references, rows_alone = [], []
        for request in requests:
            references.append(MosaicFlowPredictor(
                request.geometry, _RecordingFDSolver(request.geometry.subdomain_grid(), alone)
            ).run(request.boundary_loop, max_iterations=budget, tol=0.0))
            rows_alone.append(sum(rows for _, rows in _drain(alone)))
        # Queued before start: the dispatcher's first pass finds both workers
        # idle and all eight requests waiting.
        futures = [server.submit_async(r) for r in requests]
        with server:
            results = [f.result(timeout=60) for f in futures]
            # drained before close() joins the workers that wrote it
            records = []
            while sum(rows for _, rows in records) < sum(rows_alone):
                records.append(calls.get(timeout=30))
        for result, reference in zip(results, references):
            assert result.solution.tobytes() == reference.solution.tobytes()
        by_pid: dict = {}
        for pid, rows in records:
            by_pid[pid] = by_pid.get(pid, 0) + rows
        assert len(by_pid) == 2 and os.getpid() not in by_pid
        # A lone run would have broken the barrier by its timeout.
        assert not barrier.broken  # the runs overlapped
        rows_a, rows_b = by_pid.values()
        # Balanced by predicted rows: within one geometry's row cost.
        assert abs(rows_a - rows_b) <= max(rows_alone)
        assert server.stats.solved_requests == 8

    def test_runs_in_flight_never_exceed_the_workers(self, monkeypatch):
        # Three subdomain grids: three fusion keys, which never share a run.
        geometries = [MosaicGeometry(points, 0.5, 2, 3) for points in (5, 7, 9)]
        lock, in_flight, peak = threading.Lock(), [0], [0]
        submit = ThreadPoolExecutor.submit

        def counting_submit(executor, fn, *args, **kwargs):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])

            def run():
                try:
                    return fn(*args, **kwargs)
                finally:
                    with lock:
                        in_flight[0] -= 1

            return submit(executor, run)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
        server = Server(
            policy=BatchPolicy(max_batch_size=64, max_wait_seconds=5.0), async_workers=2,
        )
        futures = [
            server.submit_async(SolveRequest.create(
                g, g.boundary_from_function(lambda x, y, k=k: k * x * y + y), max_iterations=8,
            ))
            for k in range(4) for g in geometries
        ]
        with server:
            for future in futures:
                future.result(timeout=60)
        assert peak[0] <= 2
        assert server.stats.solved_requests == 12

    def test_partitions_balance_single_requests(self):
        geometries = self._geometries()
        loops = {
            g: g.boundary_from_function(lambda x, y: x * y + 0.25 * x) for g in geometries
        }
        requests = []
        for g in geometries:
            requests.append(SolveRequest.create(g, loops[g], max_iterations=10))
            # distinct store key, same quantised cache key: still its own row
            requests.append(SolveRequest.create(g, loops[g] + 1e-13, max_iterations=10))
            requests.append(SolveRequest.create(g, 2.0 * loops[g], max_iterations=10))

        def partitions(cache):
            server = Server(cache=cache)
            for request in requests:
                server.submit_async(request)
            with server._lock:
                server._flush_locked("flush")
                batches = list(server._ready)
            return {
                parts: [
                    [r.request_id for batch in run for r in batch.requests]
                    for run in server._partition(batches, parts)
                ]
                for parts in (2, 3)
            }

        cached = partitions(SolutionCache(capacity=64))
        # A cache never changes who runs where: the units are single requests.
        assert cached == partitions(None)
        cost = {r.request_id: r.geometry.num_subdomains * 10 for r in requests}
        for parts, runs in cached.items():
            assert len(runs) == parts
            assert sorted(i for run in runs for i in run) == sorted(cost)
            loads = [sum(cost[i] for i in run) for run in runs]
            assert max(loads) - min(loads) <= max(cost.values())
