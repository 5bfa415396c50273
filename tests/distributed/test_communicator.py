"""Simulated MPI communicator: point-to-point, collectives, failure handling."""

import threading
import time

import numpy as np
import pytest

from repro.distributed import (
    CommunicationTrace,
    ReduceOp,
    SelfCommunicator,
    SpmdFailure,
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


class TestThreadCluster:
    def test_allreduce_ops(self):
        def program(comm):
            v = np.full(3, float(comm.rank + 1))
            return (
                comm.allreduce(v, op=ReduceOp.SUM)[0],
                comm.allreduce(v, op=ReduceOp.MEAN)[0],
                comm.allreduce(v, op=ReduceOp.MAX)[0],
                comm.allreduce(v, op=ReduceOp.MIN)[0],
            )

        results = run_spmd(4, program)
        for total, mean, maximum, minimum in results:
            assert total == pytest.approx(10.0)
            assert mean == pytest.approx(2.5)
            assert maximum == pytest.approx(4.0)
            assert minimum == pytest.approx(1.0)

    def test_unknown_reduce_op(self):
        def program(comm):
            comm.allreduce(np.zeros(1), op="median")

        with pytest.raises(SpmdFailure):
            run_spmd(2, program)

    def test_ring_exchange_with_tags(self):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.array([comm.rank]), right, tag=7)
            received = comm.recv(left, tag=7)
            return int(received[0])

        assert run_spmd(5, program) == [4, 0, 1, 2, 3]

    def test_message_matching_by_source_and_tag(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("late", 1, tag=2)
                comm.send("early", 1, tag=1)
                return None
            first = comm.recv(0, tag=1)
            second = comm.recv(0, tag=2)
            return (first, second)

        assert run_spmd(2, program)[1] == ("early", "late")

    def test_sendrecv_exchanges_payloads(self):
        def program(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(f"from-{comm.rank}", peer)

        assert run_spmd(2, program) == ["from-1", "from-0"]

    def test_allgather_and_bcast(self):
        def program(comm):
            gathered = comm.allgather(comm.rank * 10)
            root_value = comm.bcast("hello" if comm.rank == 0 else None, root=0)
            return gathered, root_value

        results = run_spmd(3, program)
        for gathered, root_value in results:
            assert gathered == [0, 10, 20]
            assert root_value == "hello"

    def test_bcast_from_nonzero_root(self):
        def program(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        assert run_spmd(3, program) == [2, 2, 2]

    def test_barrier_and_trace_counts(self):
        def program(comm):
            comm.barrier()
            comm.allreduce(np.zeros(4))
            if comm.rank == 0:
                comm.send(np.zeros(2), 1)
            elif comm.rank == 1:
                comm.recv(0)
            return comm.trace.as_dict()

        traces = run_spmd(2, program)
        assert traces[0]["sends"] == 1 and traces[0]["send_bytes"] == 16
        assert traces[1]["receives"] == 1 and traces[1]["recv_bytes"] == 16
        assert all(t["allreduces"] == 1 and t["barriers"] == 1 for t in traces)

    def test_rank_exception_propagates_as_spmd_failure(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(SpmdFailure) as excinfo:
            run_spmd(3, program)
        assert 1 in excinfo.value.failures

    def test_invalid_peer_and_self_send(self):
        def program(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.send(1, 99)
                with pytest.raises(ValueError):
                    comm.send(1, 0)
            comm.barrier()

        run_spmd(2, program)

    def test_world_size_one_uses_self_communicator(self):
        results = run_spmd(1, lambda comm: type(comm).__name__)
        assert results == ["SelfCommunicator"]

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)


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
