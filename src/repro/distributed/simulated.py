"""Thread-backed simulated cluster.

Each simulated rank runs the SPMD program in its own Python thread and
communicates through in-memory mailboxes, reproducing MPI semantics
(point-to-point messages matched on source and tag, barrier, allreduce,
allgather, broadcast).  Because the ranks execute concurrently, ordering
hazards and deadlocks in the distributed algorithms surface exactly as they
would on a real cluster — while remaining deterministic in the data they
produce.

The thread world runs :class:`~repro.training.ddp.DataParallelTrainer`'s
ranks and is the bitwise reference for the forked ranks of
:mod:`repro.distributed.processes`.

There is also :class:`SelfCommunicator`, a world of size one with zero-cost
collectives, which lets every distributed code path run un-modified in a
single process (used for the baseline configurations in the benchmarks).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .comm import CommunicationTrace, Communicator, ReduceOp, payload_bytes

__all__ = ["SelfCommunicator", "ThreadCommunicator", "run_spmd", "SpmdFailure"]


class SpmdFailure(RuntimeError):
    """Raised when one or more simulated ranks raise an exception."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = failures
        detail = "; ".join(f"rank {r}: {exc!r}" for r, exc in sorted(failures.items()))
        super().__init__(f"SPMD program failed on {len(failures)} rank(s): {detail}")


class SelfCommunicator(Communicator):
    """A communicator for a world of size one (no-op collectives)."""

    def __init__(self):
        self.rank = 0
        self.size = 1
        self.trace = CommunicationTrace()

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        raise RuntimeError("cannot send point-to-point messages in a world of size 1")

    def recv(self, source: int, tag: int = 0) -> Any:
        raise RuntimeError("cannot receive point-to-point messages in a world of size 1")

    def barrier(self) -> None:
        self.trace.record_barrier()

    def allreduce(self, array: np.ndarray, op: str = ReduceOp.SUM) -> np.ndarray:
        array = np.asarray(array)
        self.trace.record_allreduce(array.nbytes)
        return array.copy()

    def allgather(self, payload: Any) -> list[Any]:
        self.trace.record_allgather(payload_bytes(payload))
        return [payload]

    def bcast(self, payload: Any, root: int = 0) -> Any:
        self.trace.record_broadcast(payload_bytes(payload))
        return payload


_ABORTED = object()


class _Mailbox:
    """Per-rank mailbox with (source, tag) matching."""

    def __init__(self):
        self._messages: list[tuple[int, int, Any]] = []
        self._condition = threading.Condition()
        self._aborted = False

    def abort(self) -> None:
        """Fail every pending and later :meth:`get` that finds no message."""

        with self._condition:
            self._aborted = True
            self._condition.notify_all()

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._condition:
            self._messages.append((source, tag, payload))
            self._condition.notify_all()

    def get(self, source: int, tag: int, timeout: float) -> Any:
        def take():
            # A 1-tuple, so a falsy payload still counts as found.
            for i, (src, t, payload) in enumerate(self._messages):
                if src == source and t == tag:
                    del self._messages[i]
                    return (payload,)
            return _ABORTED if self._aborted else None

        # One deadline for the whole wait: messages for other (source, tag)
        # pairs wake the waiter without restarting its timeout.
        with self._condition:
            found = self._condition.wait_for(take, timeout=timeout)
        if found is None:
            raise TimeoutError(
                f"timed out waiting for message from rank {source} with tag {tag}"
            )
        if found is _ABORTED:
            raise ConnectionAbortedError(
                f"a rank failed while this one waited for rank {source}, tag {tag}"
            )
        return found[0]


class _ThreadWorld:
    """Shared state of a simulated cluster."""

    def __init__(self, size: int, timeout: float):
        self.size = size
        self.timeout = timeout
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.barrier = threading.Barrier(size)
        # Collective exchange area: one slot per rank, guarded by two barriers.
        self.slots: list[Any] = [None] * size

    def abort(self) -> None:
        """Release every rank waiting in a collective or a ``recv``."""

        self.barrier.abort()
        for mailbox in self.mailboxes:
            mailbox.abort()


class ThreadCommunicator(Communicator):
    """Communicator bound to one rank of a :class:`_ThreadWorld`."""

    def __init__(self, world: _ThreadWorld, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.trace = CommunicationTrace()

    # -- point to point -----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest)
        self.trace.record_send(payload_bytes(payload))
        self._world.mailboxes[dest].put(self.rank, tag, payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source)
        payload = self._world.mailboxes[self.rank].get(source, tag, self._world.timeout)
        self.trace.record_recv(payload_bytes(payload))
        return payload

    # -- collectives -----------------------------------------------------------------

    def barrier(self) -> None:
        self.trace.record_barrier()
        self._world.barrier.wait(timeout=self._world.timeout)

    def _exchange(self, payload: Any) -> list[Any]:
        """All ranks deposit a payload and read back every slot."""

        self._world.slots[self.rank] = payload
        self._world.barrier.wait(timeout=self._world.timeout)
        gathered = list(self._world.slots)
        self._world.barrier.wait(timeout=self._world.timeout)
        return gathered

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
        gathered = self._exchange(payload if self.rank == root else None)
        return gathered[root]


def run_spmd(
    world_size: int,
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    timeout: float = 120.0,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on every rank of a simulated cluster.

    Parameters
    ----------
    world_size:
        Number of simulated ranks.  ``1`` uses :class:`SelfCommunicator`
        directly (no threads).
    fn:
        SPMD program.  Receives the rank's :class:`Communicator` as its first
        argument.
    timeout:
        Per-operation timeout; a deadlocked program raises instead of
        hanging the test suite.

    Returns
    -------
    List of per-rank return values, ordered by rank.
    """

    kwargs = kwargs or {}
    if world_size <= 0:
        raise ValueError("world_size must be positive")
    if world_size == 1:
        return [fn(SelfCommunicator(), *args, **kwargs)]

    world = _ThreadWorld(world_size, timeout)
    results: list[Any] = [None] * world_size
    failures: dict[int, BaseException] = {}

    def worker(rank: int) -> None:
        comm = ThreadCommunicator(world, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - propagate to the caller
            failures[rank] = exc
            # Release peers stuck in a collective or a recv so the run ends now.
            world.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(world_size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise SpmdFailure(failures)
    return results
