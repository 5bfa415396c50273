"""MPI-like communicators: point-to-point, collectives, failure handling.

Every cluster test runs on both launchers: rank threads (``run_spmd``) and
forked rank processes (``fork_spmd``).
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.distributed import (
    CommunicationTrace,
    ReduceOp,
    SelfCommunicator,
    SpmdFailure,
    fork_spmd,
    payload_bytes,
    run_spmd,
)
from repro.distributed.simulated import _Mailbox


class TestPayloadBytes:
    def test_numpy_arrays(self):
        assert payload_bytes(np.zeros(10)) == 80

    def test_scalars_tuples_dicts(self):
        assert payload_bytes(1.5) == 8
        assert payload_bytes((np.zeros(2), 3)) == 24
        assert payload_bytes({"a": np.zeros(4)}) == 32
        assert payload_bytes(None) == 0
        assert payload_bytes(object()) > 0


class TestSelfCommunicator:
    def test_collectives_are_identity(self):
        comm = SelfCommunicator()
        assert comm.size == 1 and comm.rank == 0 and comm.is_root
        out = comm.allreduce(np.array([1.0, 2.0]), op=ReduceOp.MEAN)
        assert np.allclose(out, [1.0, 2.0])
        assert comm.allgather("x") == ["x"]
        assert comm.bcast(42) == 42
        comm.barrier()
        assert comm.trace.allreduces == 1

    def test_point_to_point_rejected(self):
        comm = SelfCommunicator()
        with pytest.raises(RuntimeError):
            comm.send(1, 0)
        with pytest.raises(RuntimeError):
            comm.recv(0)


@pytest.fixture(params=[run_spmd, fork_spmd], ids=["threads", "processes"])
def launch(request):
    yield request.param
    assert multiprocessing.active_children() == []


class TestCluster:
    def test_allreduce_ops(self, launch):
        def program(comm):
            v = np.full(3, float(comm.rank + 1))
            return (
                comm.allreduce(v, op=ReduceOp.SUM)[0],
                comm.allreduce(v, op=ReduceOp.MEAN)[0],
                comm.allreduce(v, op=ReduceOp.MAX)[0],
                comm.allreduce(v, op=ReduceOp.MIN)[0],
            )

        results = launch(4, program)
        for total, mean, maximum, minimum in results:
            assert total == pytest.approx(10.0)
            assert mean == pytest.approx(2.5)
            assert maximum == pytest.approx(4.0)
            assert minimum == pytest.approx(1.0)

    def test_unknown_reduce_op(self, launch):
        def program(comm):
            comm.allreduce(np.zeros(1), op="median")

        with pytest.raises(SpmdFailure):
            launch(2, program)

    def test_ring_exchange_with_tags(self, launch):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.array([comm.rank]), right, tag=7)
            received = comm.recv(left, tag=7)
            return int(received[0])

        assert launch(5, program) == [4, 0, 1, 2, 3]

    def test_message_matching_by_source_and_tag(self, launch):
        def program(comm):
            if comm.rank == 0:
                comm.send("late", 1, tag=2)
                comm.send("early", 1, tag=1)
                return None
            first = comm.recv(0, tag=1)
            second = comm.recv(0, tag=2)
            return (first, second)

        assert launch(2, program)[1] == ("early", "late")

    def test_sendrecv_exchanges_payloads(self, launch):
        def program(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(f"from-{comm.rank}", peer)

        assert launch(2, program) == ["from-1", "from-0"]

    def test_allgather_and_bcast(self, launch):
        def program(comm):
            gathered = comm.allgather(comm.rank * 10)
            root_value = comm.bcast("hello" if comm.rank == 0 else None, root=0)
            return gathered, root_value

        results = launch(3, program)
        for gathered, root_value in results:
            assert gathered == [0, 10, 20]
            assert root_value == "hello"

    def test_bcast_from_nonzero_root(self, launch):
        def program(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        assert launch(3, program) == [2, 2, 2]

    def test_barrier_and_trace_counts(self, launch):
        def program(comm):
            comm.barrier()
            comm.allreduce(np.zeros(4))
            if comm.rank == 0:
                comm.send(np.zeros(2), 1)
            elif comm.rank == 1:
                comm.recv(0)
            return comm.trace.as_dict()

        traces = launch(2, program)
        assert traces[0]["sends"] == 1 and traces[0]["send_bytes"] == 16
        assert traces[1]["receives"] == 1 and traces[1]["recv_bytes"] == 16
        assert all(t["allreduces"] == 1 and t["barriers"] == 1 for t in traces)

    def test_rank_exception_propagates_as_spmd_failure(self, launch):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(SpmdFailure) as excinfo:
            launch(3, program)
        assert 1 in excinfo.value.failures

    def test_invalid_peer_and_self_send(self, launch):
        def program(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.send(1, 99)
                with pytest.raises(ValueError):
                    comm.send(1, 0)
            comm.barrier()

        launch(2, program)

    def test_world_size_one_uses_self_communicator(self, launch):
        results = launch(1, lambda comm: type(comm).__name__)
        assert results == ["SelfCommunicator"]

    def test_invalid_world_size(self, launch):
        with pytest.raises(ValueError):
            launch(0, lambda comm: None)


class TestFailures:
    def test_a_failed_rank_releases_a_waiting_peer_at_once(self, launch):
        # Rank 1 waits for a message rank 0 never sends: the run must fail
        # as soon as rank 0 does, not when rank 1's timeout runs out.
        def program(comm):
            if comm.rank == 0:
                raise ValueError("rank 0 failed before its send")
            return comm.recv(0, tag=3)

        start = time.monotonic()
        with pytest.raises(SpmdFailure, match="rank 0 failed before its send") as excinfo:
            launch(2, program, timeout=5.0)
        assert time.monotonic() - start < 2.0
        assert type(excinfo.value.failures[0]) is ValueError
        assert isinstance(excinfo.value.failures[1], ConnectionAbortedError)

    def test_a_recv_times_out(self, launch):
        def program(comm):
            if comm.rank == 0:
                time.sleep(0.5)
                return None
            return comm.recv(0)

        with pytest.raises(SpmdFailure) as excinfo:
            launch(2, program, timeout=0.1)
        assert list(excinfo.value.failures) == [1]
        assert type(excinfo.value.failures[1]) is TimeoutError

    def test_sends_larger_than_a_pipe_cross_without_deadlock(self, launch):
        # Each rank sends 1 MB before it receives, as the halo exchange
        # sends to every peer first; a pipe holds ~64 KB.
        def program(comm):
            peer = 1 - comm.rank
            comm.send(np.full(2**17, float(comm.rank)), peer, tag=1)
            return comm.recv(peer, tag=1)

        first, second = launch(2, program, timeout=30.0)
        assert first.nbytes == 2**20 and (first == 1.0).all() and (second == 0.0).all()


class TestForkedRanks:
    def test_a_killed_rank_fails_the_run(self):
        def program(comm):
            if comm.rank == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return comm.recv(1)

        start = time.monotonic()
        with pytest.raises(SpmdFailure) as excinfo:
            fork_spmd(2, program, timeout=30.0)
        assert time.monotonic() - start < 2.0
        failures = excinfo.value.failures
        assert type(failures[1]) is ChildProcessError and "-9" in str(failures[1])
        assert isinstance(failures[0], ConnectionAbortedError)
        assert multiprocessing.active_children() == []

    def test_what_does_not_pickle_arrives_as_its_repr(self):
        class Local(Exception):
            pass

        def program(comm):
            if comm.rank == 0:
                raise Local("unpicklable")
            return lambda: None

        with pytest.raises(SpmdFailure) as excinfo:
            fork_spmd(2, program)
        failures = excinfo.value.failures
        assert type(failures[0]) is RuntimeError and "unpicklable" in str(failures[0])
        assert "pickle" in str(failures[1])  # the lambda it returned
        assert multiprocessing.active_children() == []


class TestMailbox:
    def test_unrelated_messages_do_not_restart_the_timeout(self):
        # Another tag arrives every 0.1 s for 2 s; the 0.3 s wait for tag 1
        # must still end on its own deadline, not after the traffic stops.
        mailbox, stop = _Mailbox(), threading.Event()

        def chatter():
            for _ in range(20):
                if stop.wait(0.1):
                    return
                mailbox.put(0, 2, "noise")

        thread = threading.Thread(target=chatter)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError, match="tag 1"):
                mailbox.get(0, 1, timeout=0.3)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join()
        assert elapsed < 2 * 0.3

    def test_falsy_payload_is_delivered(self):
        mailbox = _Mailbox()
        mailbox.put(1, 0, None)
        assert mailbox.get(1, 0, timeout=0.1) is None


class TestCommunicationTrace:
    def test_merge_adds_fields(self):
        a, b = CommunicationTrace(), CommunicationTrace()
        a.record_send(100)
        b.record_send(50)
        b.record_allgather(10)
        merged = a.merge(b)
        assert merged.sends == 2 and merged.send_bytes == 150
        assert merged.allgathers == 1
