"""Dynamic batching of solve requests.

The throughput of the Mosaic Flow predictor comes from stacking many
same-shape subdomain solves into single fused solver calls (Figure 8 of the
paper).  The batcher turns a stream of independent :class:`SolveRequest`\\ s
into such fused batches: requests are queued per
:meth:`~repro.serving.api.SolveRequest.group_key` (same geometry, same
initialization, same check cadence) and a queue is released either when it
reaches ``max_batch_size`` or when its oldest request has waited
``max_wait_seconds`` — the classic size-or-deadline policy of inference
servers.

The batcher is synchronous and clock-injectable: callers drive it by
enqueuing and polling, and tests can substitute a fake clock for
deterministic deadline behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .api import SolveRequest

__all__ = ["BatchPolicy", "Batch", "DynamicBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Size-or-deadline release policy of the dynamic batcher.

    Attributes
    ----------
    max_batch_size:
        A group queue is released as soon as it holds this many requests.
    max_wait_seconds:
        A group queue is released (at the next poll) once its oldest request
        has waited this long, even if the batch is not full.  ``0`` releases
        on every poll — i.e. no coalescing across polls.  A started (async)
        :class:`~repro.serving.server.Server` does not wait on it: whenever
        a worker is idle the dispatcher releases whatever is queued at once,
        and a finishing run releases what queued behind it.  The synchronous
        path (``submit``/``poll``/``drain``) waits the window out as written.
    """

    max_batch_size: int = 64
    max_wait_seconds: float = 0.01

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")


@dataclass
class Batch:
    """A group of fusable requests released by the batcher.

    ``reason`` records *why* the batch was released: ``"size"`` (the queue
    reached ``max_batch_size``), ``"deadline"`` (its oldest request waited
    out ``max_wait_seconds``), ``"flush"`` (an explicit drain), ``"idle"``
    (a started server had a worker idle, so there was nothing to wait
    behind), or ``"co_release"`` (pulled early to ride a compatible
    mega-batch).  ``serving.batch`` spans carry it as ``reason=``.
    """

    group_key: tuple
    requests: list[SolveRequest]
    enqueued_at: list[float] = field(default_factory=list)
    reason: str = "size"

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Coalesce queued requests into fused batches per geometry group."""

    def __init__(self, policy: BatchPolicy | None = None, clock=time.monotonic):
        self.policy = policy or BatchPolicy()
        self.clock = clock
        self._queues: dict[tuple, list[tuple[SolveRequest, float]]] = {}

    @property
    def queue_depth(self) -> int:
        """Total number of requests currently waiting."""

        return sum(len(q) for q in self._queues.values())

    @property
    def num_groups(self) -> int:
        return len(self._queues)

    def enqueue(self, request: SolveRequest) -> list[Batch]:
        """Queue a request; return any batches released by size or deadline."""

        queue = self._queues.setdefault(request.group_key, [])
        queue.append((request, self.clock()))
        return self.poll()

    def poll(self) -> list[Batch]:
        """Release every group that is full or whose deadline has passed."""

        now = self.clock()
        released: list[Batch] = []
        for key in list(self._queues):
            queue = self._queues[key]
            while len(queue) >= self.policy.max_batch_size:
                chunk, self._queues[key] = (
                    queue[: self.policy.max_batch_size],
                    queue[self.policy.max_batch_size:],
                )
                queue = self._queues[key]
                released.append(self._make_batch(key, chunk, "size"))
            if queue and now - queue[0][1] >= self.policy.max_wait_seconds:
                released.append(self._make_batch(key, queue, "deadline"))
                self._queues[key] = []
            if not self._queues[key]:
                del self._queues[key]
        return released

    def groups(self) -> list[tuple]:
        """Keys of the groups with requests queued, in queue order."""

        return list(self._queues)

    def flush(self, reason: str = "flush", keys=None) -> list[Batch]:
        """Release queued requests regardless of size or deadline.

        ``keys`` names the groups to release (default: every queued group);
        they come out in queue order.  ``reason`` is recorded on the released
        batches; the server flushes for an explicit drain (``"flush"``),
        because a worker is idle (``"idle"``), or to ride a compatible
        mega-batch (``"co_release"``).
        """

        if keys is None:
            keys = list(self._queues)
        else:
            keys = [key for key in self._queues if key in keys]
        return [self._make_batch(key, self._queues.pop(key), reason) for key in keys]

    @staticmethod
    def _make_batch(
        key: tuple, entries: list[tuple[SolveRequest, float]], reason: str
    ) -> Batch:
        return Batch(
            group_key=key,
            requests=[request for request, _ in entries],
            enqueued_at=[stamp for _, stamp in entries],
            reason=reason,
        )
