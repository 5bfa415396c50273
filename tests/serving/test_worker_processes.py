"""Worker compute processes: real crashes, fork safety, the pipe's contract.

A started server with two or more solve workers computes in one forked
process per worker.  These tests kill those processes for real
(``SIGKILL``), re-fork them while other threads hold the compute path's
locks, and check what crosses the pipe: outcomes bitwise equal to the
standalone run, solver exceptions as themselves, and per-worker health.
Everything the tests share with a worker goes through ``multiprocessing``
primitives, since the solver runs in the child.
"""

import importlib
import multiprocessing
import os
import select
import signal
import struct
import threading
import time

import pytest

from repro.fd import solve as fd_solve
from repro.models import SDNet
from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor, MosaicGeometry
from repro.mosaic import solvers as mosaic_solvers
from repro.mosaic.core import PLAN_CACHE
from repro.mosaic.solvers import SDNetSubdomainSolver
from repro.obs.memory import disable_memory_accounting, enable_memory_accounting
from repro.serving import (
    BatchPolicy,
    BreakerBoard,
    BreakerPolicy,
    CircuitOpenError,
    RetryExhaustedError,
    Server,
    SolveRequest,
    WorkerSupervisor,
)

FORK = multiprocessing.get_context("fork")
# the module, not the `repro.engine.trace` function the package exports
engine_trace = importlib.import_module("repro.engine.trace")


class _Gate:
    """Holds solver calls in the workers until opened; reports who waits.

    Lock-free on purpose (a shared byte and atomic pipe writes): a
    ``multiprocessing`` event or queue can be left locked forever by a worker
    that is killed while it waits.
    """

    def __init__(self):
        self._open = FORK.RawValue("b", 0)
        self._read, self._write = os.pipe()

    def report_and_wait(self) -> None:
        if not self._open.value:
            os.write(self._write, struct.pack("i", os.getpid()))
            while not self._open.value:
                time.sleep(0.001)

    def next_pid(self, timeout: float = 30.0) -> int:
        ready, _, _ = select.select([self._read], [], [], timeout)
        assert ready, "no worker reached the gate"
        return struct.unpack("i", os.read(self._read, 4))[0]

    def open(self) -> None:
        self._open.value = 1

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


class _GatedFDSolver(FDSubdomainSolver):
    """Reports its worker's pid at the gate, then waits for it to open."""

    def __init__(self, grid, gate: _Gate):
        super().__init__(grid, method="direct")
        self._gate = gate

    def predict(self, boundaries, points):
        self._gate.report_and_wait()
        return super().predict(boundaries, points)


class _RaisingFDSolver(FDSubdomainSolver):
    def __init__(self, grid, error):
        super().__init__(grid, method="direct")
        self._error = error

    def predict(self, boundaries, points):
        raise self._error()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("solver state went bad")
        self.state = threading.Lock()  # cannot be pickled


def _standalone(request):
    solver = FDSubdomainSolver(request.geometry.subdomain_grid(), method="direct")
    return MosaicFlowPredictor(request.geometry, solver).run(
        request.boundary_loop, max_iterations=request.max_iterations, tol=request.tol
    )


def _requests(geometry, count, seed=0):
    return [
        SolveRequest.create(
            geometry,
            geometry.boundary_from_function(lambda x, y, k=k: (k + seed + 1) * x * y + x),
            max_iterations=40,
        )
        for k in range(count)
    ]


def _wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


@pytest.fixture()
def gate():
    gate = _Gate()
    yield gate
    gate.close()


def _gated_server(gate, **kwargs):
    return Server(
        solver_factory=lambda g: _GatedFDSolver(g.subdomain_grid(), gate),
        policy=BatchPolicy(max_batch_size=64, max_wait_seconds=5.0),
        async_workers=2, **kwargs,
    )


class TestRealCrashes:
    def test_sigkilled_worker_is_requeued_once_and_replaced(self, small_geometry, gate):
        server = _gated_server(gate, supervisor=WorkerSupervisor(max_restarts=4))
        requests = _requests(small_geometry, 4)
        # Queued before start: two idle workers take two runs of two.
        futures = [server.submit_async(r) for r in requests]
        with server:
            first, second = gate.next_pid(), gate.next_pid()
            assert {first, second} == {w.pid for w in server._workers}
            os.kill(first, signal.SIGKILL)
            _wait_for(lambda: server.stats.requeues == 2)
            # The dead worker's slot is the only idle one: a fresh process
            # takes the requeued partition (and reports its own pid).
            fresh = gate.next_pid()
            assert fresh not in (first, second)
            gate.open()
            results = [f.result(timeout=60) for f in futures]
            workers = server.health()["workers"]
        assert server.stats.requeues == 2  # the partition, exactly once
        assert server.supervisor.deaths == 1
        for request, result in zip(requests, results):
            alone = _standalone(request)
            assert result.solution.tobytes() == alone.solution.tobytes()
            assert result.iterations == alone.iterations
        replaced = next(w for w in workers if w["pid"] == fresh)
        assert replaced["alive"] and replaced["forks"] == 2 and replaced["runs"] == 1
        assert not any(w["alive"] for w in server.health()["workers"])

    def test_spent_restart_budget_fails_the_partition(self, small_geometry, gate):
        server = _gated_server(gate, supervisor=WorkerSupervisor(max_restarts=0))
        requests = _requests(small_geometry, 4, seed=5)
        futures = [server.submit_async(r) for r in requests]
        with server:
            victim, _ = gate.next_pid(), gate.next_pid()
            os.kill(victim, signal.SIGKILL)
            _wait_for(lambda: sum(f.done() for f in futures) == 2)
            gate.open()
            errors = [f.exception(timeout=60) for f in futures]
        failed = [e for e in errors if e is not None]
        assert len(failed) == 2 and server.stats.requeues == 0
        for error in failed:
            assert type(error) is RetryExhaustedError
            assert "restart budget is spent" in str(error)
            assert f"compute process {victim}" in str(error.__cause__)


class TestForkSafety:
    def test_reforked_workers_do_not_inherit_held_locks(self, small_geometry):
        # A model the parent never ran: the child builds its programs, so it
        # takes the program registry lock, traces, and charges plan bytes.
        sdnet_geometry = MosaicGeometry(9, 0.5, 3, 3)
        model = SDNet(boundary_size=sdnet_geometry.subdomain_grid().boundary_size,
                      hidden_size=8, trunk_layers=1, embedding_channels=(2,), rng=21)

        def factory(geometry):
            if geometry == sdnet_geometry:
                return SDNetSubdomainSolver(model)
            return FDSubdomainSolver(geometry.subdomain_grid(), method="direct")

        accountant = enable_memory_accounting()
        held, release = threading.Event(), threading.Event()
        locks = [
            PLAN_CACHE._lock, mosaic_solvers._PROGRAMS_LOCK, fd_solve._operator_lock,
            engine_trace._PATCH_LOCK, accountant._lock,
        ]

        def holder():
            for lock in locks:
                lock.acquire()
            held.set()
            release.wait(timeout=60)
            for lock in reversed(locks):
                lock.release()

        try:
            with Server(solver_factory=factory, async_workers=2) as server:
                thread = threading.Thread(target=holder)
                thread.start()
                assert held.wait(timeout=30)
                try:
                    for worker in server._workers:
                        worker.fork()  # re-fork while another thread holds them all
                finally:
                    release.set()
                    thread.join()
                requests = [
                    SolveRequest.create(g, g.boundary_from_function(lambda x, y: x * y),
                                        max_iterations=8)
                    for g in (small_geometry, sdnet_geometry)
                ]
                futures = [server.submit_async(r) for r in requests]
                try:
                    for future in futures:
                        future.result(timeout=60)
                except BaseException:
                    for worker in server._workers:  # unstick close() on failure
                        worker._process.kill()
                    raise
                assert all(w.forks == 2 for w in server._workers)
        finally:
            disable_memory_accounting()


class TestPipeContract:
    def test_solver_exceptions_cross_as_themselves(self, small_geometry, fake_clock):
        board = BreakerBoard(BreakerPolicy(failure_threshold=2), clock=fake_clock)
        server = Server(
            solver_factory=lambda g: _RaisingFDSolver(g.subdomain_grid(), ZeroDivisionError),
            max_retries=1, breakers=board, async_workers=2,
        )
        with server:
            request = _requests(small_geometry, 1)[0]
            error = server.submit_async(request).exception(timeout=60)
            assert type(error) is RetryExhaustedError and error.attempts == 2
            assert type(error.__cause__) is ZeroDivisionError
            # Both failed attempts reached the backend's breaker: it is open.
            late = server.submit_async(_requests(small_geometry, 1, seed=3)[0])
            assert type(late.exception(timeout=0)) is CircuitOpenError
        assert server.stats.retries == 1

    def test_an_unpicklable_exception_arrives_as_its_repr(self, small_geometry):
        server = Server(
            solver_factory=lambda g: _RaisingFDSolver(g.subdomain_grid(), _Unpicklable),
            max_retries=0, async_workers=2,
        )
        with server:
            error = server.submit_async(_requests(small_geometry, 1)[0]).exception(timeout=60)
        assert type(error) is RetryExhaustedError
        assert type(error.__cause__) is RuntimeError
        assert "_Unpicklable('solver state went bad')" in str(error.__cause__)

    def test_health_lists_each_worker_and_its_exit_report(self, small_geometry):
        with Server(async_workers=2) as server:
            futures = [server.submit_async(r) for r in _requests(small_geometry, 6)]
            for future in futures:
                future.result(timeout=60)
            live = server.health()["workers"]
            assert [w["name"] for w in live] == ["serving-solve-0", "serving-solve-1"]
            assert all(w["alive"] and w["peak_rss_mb"] > 0 for w in live)
            assert len({w["pid"] for w in live} | {os.getpid()}) == 3
            assert sum(w["runs"] for w in live) == server.stats.fused_runs
        stopped = server.health()["workers"]
        assert not any(w["alive"] for w in stopped)
        for worker in stopped:
            assert worker["exit"]["plan_bytes_held"] == 0
            assert worker["peak_rss_mb"] == worker["exit"]["peak_rss_mb"] > 0

    def test_profiled_kernels_come_back_from_the_workers(self, small_geometry):
        model = SDNet(boundary_size=small_geometry.subdomain_grid().boundary_size,
                      hidden_size=8, trunk_layers=1, embedding_channels=(2,), rng=22)
        server = Server(solver_factory=lambda g: SDNetSubdomainSolver(model),
                        engine_profile=True, async_workers=2)
        with server:
            request = SolveRequest.create(
                small_geometry, small_geometry.boundary_from_function(lambda x, y: x - y),
                tol=0.0, max_iterations=4,
            )
            served = server.submit_async(request).result(timeout=60)
        kernels = server.stats.as_dict()["kernels"]
        assert kernels["total_calls"] > 0 and "affine" in server.kernel_report()
        # no forward ran in the parent: the profile is the workers'
        assert sum(w["runs"] for w in server.health()["workers"]) == 1
        plain = Server(solver_factory=lambda g: SDNetSubdomainSolver(model))
        plain.submit(request)
        assert plain.drain()[request.request_id].solution.tobytes() == served.solution.tobytes()

    def test_one_worker_and_the_sync_path_compute_in_the_parent(self, small_geometry):
        for options in ({"async_workers": 1}, {}):
            with Server(**options) as server:
                request = _requests(small_geometry, 1)[0]
                server.submit_async(request)
                assert request.request_id in server.drain()
                assert "workers" not in server.health() and server._workers == []
