"""Communicator interface and communication tracing.

The paper's distributed algorithms (data-parallel training, Algorithm 1, and
the distributed Mosaic Flow predictor, Algorithm 2) are written against a
small MPI-like API.  The reproduction runs them on forked rank processes
(:mod:`repro.distributed.processes`) or on a thread-backed simulated cluster
(:mod:`repro.distributed.simulated`), but the algorithms only see the
abstract :class:`Communicator`, so they would run unchanged on real MPI.

Every communicator carries a :class:`CommunicationTrace` that records the
number and volume of messages per primitive.  The trace, combined with the
alpha-beta cost model, is what regenerates the communication-time breakdowns
of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Communicator", "CommunicationTrace", "ReduceOp", "payload_bytes"]


class ReduceOp:
    """Reduction operators supported by :meth:`Communicator.allreduce`."""

    SUM = "sum"
    MEAN = "mean"
    MAX = "max"
    MIN = "min"

    _FUNCTIONS = {
        "sum": lambda arrays: np.sum(arrays, axis=0),
        "mean": lambda arrays: np.mean(arrays, axis=0),
        "max": lambda arrays: np.max(arrays, axis=0),
        "min": lambda arrays: np.min(arrays, axis=0),
    }

    @classmethod
    def apply(cls, op: str, arrays: list[np.ndarray]) -> np.ndarray:
        try:
            fn = cls._FUNCTIONS[op]
        except KeyError as exc:
            raise ValueError(f"unknown reduce op '{op}'") from exc
        return fn(np.stack(arrays, axis=0))


def payload_bytes(payload: Any) -> int:
    """Best-effort size in bytes of a message payload."""

    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (int, float, np.floating, np.integer)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_bytes(v) for v in payload.values())
    if payload is None:
        return 0
    return 64  # opaque Python object: count a nominal pickle overhead


@dataclass
class CommunicationTrace:
    """Per-rank record of communication activity."""

    sends: int = 0
    receives: int = 0
    send_bytes: int = 0
    recv_bytes: int = 0
    allreduces: int = 0
    allreduce_bytes: int = 0
    allgathers: int = 0
    allgather_bytes: int = 0
    broadcasts: int = 0
    broadcast_bytes: int = 0
    barriers: int = 0

    def record_send(self, nbytes: int) -> None:
        self.sends += 1
        self.send_bytes += int(nbytes)

    def record_recv(self, nbytes: int) -> None:
        self.receives += 1
        self.recv_bytes += int(nbytes)

    def record_allreduce(self, nbytes: int) -> None:
        self.allreduces += 1
        self.allreduce_bytes += int(nbytes)

    def record_allgather(self, nbytes: int) -> None:
        self.allgathers += 1
        self.allgather_bytes += int(nbytes)

    def record_broadcast(self, nbytes: int) -> None:
        self.broadcasts += 1
        self.broadcast_bytes += int(nbytes)

    def record_barrier(self) -> None:
        self.barriers += 1

    def merge(self, other: "CommunicationTrace") -> "CommunicationTrace":
        """Return a new trace with the element-wise sum of both traces."""

        merged = CommunicationTrace()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class Communicator:
    """Abstract MPI-like communicator.

    Concrete implementations provide point-to-point ``send`` / ``recv`` and
    the collectives used by the paper's algorithms (``allreduce`` for
    data-parallel gradient averaging, ``allgather`` for assembling the
    distributed Mosaic Flow solution, ``bcast`` for parameter broadcast).
    """

    rank: int
    size: int
    trace: CommunicationTrace

    # -- point to point ----------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range for world size {self.size}")
        if peer == self.rank:
            raise ValueError("sending to self is not supported")

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:  # pragma: no cover
        raise NotImplementedError

    def recv(self, source: int, tag: int = 0) -> Any:  # pragma: no cover
        raise NotImplementedError

    def sendrecv(self, payload: Any, peer: int, tag: int = 0) -> Any:
        """Exchange payloads with ``peer`` (send ours, receive theirs)."""

        self.send(payload, peer, tag)
        return self.recv(peer, tag)

    # -- collectives --------------------------------------------------------------

    def barrier(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def allreduce(self, array: np.ndarray, op: str = ReduceOp.SUM) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def allgather(self, payload: Any) -> list[Any]:  # pragma: no cover
        raise NotImplementedError

    def bcast(self, payload: Any, root: int = 0) -> Any:  # pragma: no cover
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------------------

    def allreduce_mean(self, array: np.ndarray) -> np.ndarray:
        return self.allreduce(array, op=ReduceOp.MEAN)

    @property
    def is_root(self) -> bool:
        return self.rank == 0
