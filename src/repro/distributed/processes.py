"""Forked ranks: one process per rank, one duplex pipe per pair of ranks.

:func:`fork_spmd` runs an SPMD program as :func:`~repro.distributed.simulated.run_spmd`
does, with the same :class:`~repro.distributed.comm.Communicator` semantics
and :class:`~repro.distributed.comm.CommunicationTrace`, but each rank is a
child process forked from the caller.  Ranks that are threads of one
interpreter take turns on its lock for every Python step of their solver
calls; forked ranks compute at the same time.

* ``recv`` matches on source and tag: messages of other tags that arrive
  first are kept until their own ``recv``.
* Collectives gather every rank's payload in rank order, so a reduction
  sums in the same order as on the thread world and gives the same bytes.
* ``send`` never blocks: each peer's messages are written by a thread of
  their own, so two ranks that each send the other more than a pipe holds
  before receiving both complete, as on the thread world's mailboxes.
* ``timeout`` bounds every wait of every operation, and a peer that exits
  (EOF on its pipe) fails a pending or later ``recv`` at once.

Children fork by :mod:`repro.procs`'s rules: the rank pipes exist in the
parent only while it holds the fork lock, so no other child keeps a copy
that would hide a dead rank's EOF.  The parent returns every rank's result
or raises :class:`~repro.distributed.simulated.SpmdFailure` with each
failed rank's exception, and it leaves no child alive.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

import numpy as np

from ..procs import FORK, FORK_LOCK, PARENT_ENDS, portable, start
from .comm import CommunicationTrace, Communicator, ReduceOp, payload_bytes
from .simulated import SpmdFailure, run_spmd

__all__ = ["PipeCommunicator", "fork_spmd"]

#: seconds a finished rank waits for its queued messages to be written
_FLUSH_SECONDS = 5.0


class _Writer:
    """Writes one peer's messages in order, on a thread of its own."""

    def __init__(self, conn):
        self._conn = conn
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.error: OSError | None = None
        self._thread = threading.Thread(target=self._write, daemon=True)
        self._thread.start()

    def _write(self) -> None:
        while (data := self._queue.get()) is not None:
            if self.error is None:
                try:
                    self._conn.send_bytes(data)
                except OSError as exc:  # the peer is gone
                    self.error = exc

    def put(self, data: bytes) -> None:
        self._queue.put(data)

    def close(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for every queued message to go out."""

        self._queue.put(None)
        self._thread.join(timeout)


class PipeCommunicator(Communicator):
    """Communicator of one forked rank, over one duplex pipe per peer."""

    def __init__(self, rank: int, size: int, pipes: dict, timeout: float):
        self.rank = rank
        self.size = size
        self.trace = CommunicationTrace()
        self._pipes = pipes
        self._timeout = timeout
        self._writers: dict[int, _Writer] = {}
        #: per peer: messages that arrived before their ``recv``, by key
        self._early: dict[int, dict[Any, deque]] = {peer: {} for peer in pipes}
        self._collectives = 0

    # -- transport --------------------------------------------------------------

    def _post(self, peer: int, key, payload: Any) -> None:
        writer = self._writers.get(peer)
        if writer is None:
            writer = self._writers[peer] = _Writer(self._pipes[peer])
        if writer.error is not None:
            raise ConnectionAbortedError(f"rank {peer} is gone: {writer.error!r}")
        writer.put(pickle.dumps((key, payload), protocol=pickle.HIGHEST_PROTOCOL))

    def _take(self, peer: int, key, deadline: float) -> Any:
        early = self._early[peer]
        waiting = early.get(key)
        if waiting:
            payload = waiting.popleft()
            if not waiting:
                del early[key]
            return payload
        conn = self._pipes[peer]
        while True:
            if not conn.poll(max(deadline - time.monotonic(), 0.0)):
                raise TimeoutError(f"timed out waiting for message from rank {peer} with key {key}")
            try:
                arrived, payload = pickle.loads(conn.recv_bytes())
            except EOFError:
                raise ConnectionAbortedError(
                    f"rank {peer} exited while this one waited for key {key}") from None
            if arrived == key:
                return payload
            early.setdefault(arrived, deque()).append(payload)

    def close(self) -> None:
        """Wait for this rank's queued messages to be written."""

        for writer in self._writers.values():
            writer.close(_FLUSH_SECONDS)

    # -- point to point -----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest)
        self.trace.record_send(payload_bytes(payload))
        self._post(dest, tag, payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source)
        payload = self._take(source, tag, time.monotonic() + self._timeout)
        self.trace.record_recv(payload_bytes(payload))
        return payload

    # -- collectives -----------------------------------------------------------------

    def _exchange(self, payload: Any) -> list[Any]:
        """Every rank's payload, in rank order."""

        self._collectives += 1
        key = ("collective", self._collectives)  # never equal to a tag
        for peer in self._pipes:
            self._post(peer, key, payload)
        deadline = time.monotonic() + self._timeout
        return [payload if peer == self.rank else self._take(peer, key, deadline)
                for peer in range(self.size)]

    def barrier(self) -> None:
        self.trace.record_barrier()
        self._exchange(None)

    def allreduce(self, array: np.ndarray, op: str = ReduceOp.SUM) -> np.ndarray:
        array = np.asarray(array)
        self.trace.record_allreduce(array.nbytes)
        gathered = self._exchange(array)
        return ReduceOp.apply(op, [np.asarray(a) for a in gathered])

    def allgather(self, payload: Any) -> list[Any]:
        self.trace.record_allgather(payload_bytes(payload))
        return self._exchange(payload)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        self.trace.record_broadcast(payload_bytes(payload) if self.rank == root else 0)
        return self._exchange(payload if self.rank == root else None)[root]


def _rank_main(rank, size, pipes, result, fn, args, kwargs, timeout) -> None:
    comm = PipeCommunicator(rank, size, pipes, timeout)
    try:
        reply = (True, fn(comm, *args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        reply = (False, portable(exc))
    comm.close()
    try:
        result.send(reply)
    except Exception as exc:  # noqa: BLE001 - the return value does not pickle
        result.send((False, portable(exc)))


def fork_spmd(
    world_size: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    timeout: float = 120.0,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``world_size`` forked ranks.

    ``fn`` and its arguments reach the children by the fork, not by pickling;
    each rank's return value comes back pickled.  ``1`` runs ``fn`` here on a
    :class:`~repro.distributed.simulated.SelfCommunicator`.  ``timeout`` is
    the per-operation timeout of every rank's communicator.

    Returns the per-rank return values, ordered by rank; raises
    :class:`~repro.distributed.simulated.SpmdFailure` naming every rank that
    raised, exited without a result or lost a peer.
    """

    if world_size <= 1:  # no ranks to fork: rejected, or run here
        return run_spmd(world_size, fn, args, kwargs, timeout)
    kwargs = kwargs or {}

    processes, readers, pending = [], [], {}
    try:
        with FORK_LOCK:
            pipes: list[dict] = [{} for _ in range(world_size)]
            for a in range(world_size):
                for b in range(a + 1, world_size):
                    pipes[a][b], pipes[b][a] = FORK.Pipe()
            rank_ends = [end for ends in pipes for end in ends.values()]
            try:
                for rank in range(world_size):
                    ours, theirs = FORK.Pipe(duplex=False)
                    own = set(pipes[rank].values())
                    processes.append(start(
                        _rank_main,
                        (rank, world_size, pipes[rank], theirs, fn, args, kwargs, timeout),
                        f"spmd-rank-{rank}",
                        close=[ours, *(end for end in rank_ends if end not in own)],
                    ))
                    theirs.close()
                    PARENT_ENDS.add(ours)
                    readers.append(ours)
                    pending[ours] = rank
            finally:
                for end in rank_ends:
                    end.close()

        results: list[Any] = [None] * world_size
        failures: dict[int, BaseException] = {}
        while pending:
            for conn in wait(list(pending)):
                rank = pending.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    processes[rank].join(_FLUSH_SECONDS)
                    failures[rank] = ChildProcessError(
                        f"rank {rank} exited with code {processes[rank].exitcode} "
                        "without a result")
                    continue
                if ok:
                    results[rank] = value
                else:
                    failures[rank] = value
    finally:
        for process in processes:
            if pending:  # interrupted: no rank is waited for
                process.kill()
            process.join(_FLUSH_SECONDS)
            if process.exitcode is None:
                process.kill()
                process.join()
        with FORK_LOCK:
            for conn in readers:
                PARENT_ENDS.discard(conn)
                conn.close()
    if failures:
        raise SpmdFailure(failures)
    return results
