"""Per-kernel profiling of compiled execution plans.

A compiled plan (:class:`~repro.engine.runtime.ExecutionPlan` or a bucketed
specialization) is a flat list of numpy kernel closures.  With profiling
enabled, the plan executor times every step and feeds this profiler, which
accumulates **per op**: call count, wall seconds, and output-buffer bytes
moved.  The aggregate answers "which kernels is this compiled program
actually spending its time in" — the `top kernels` report — without touching
the kernels themselves, so profiled execution computes the exact same
floating-point operations in the same order and stays bitwise identical to
unprofiled execution (asserted in ``tests/obs/test_obs_profile.py``).

The profiler also counts discrete compilation events (traces, plan builds,
plan-cache evictions, bucket specializations) via :meth:`count`, so one
object tells the whole story of a compiled module: what was compiled, what
was cached, and where the runtime went.

Profiling is opt-in per compiled artifact (``compile_module(...,
profile=True)``, ``CompiledValueAndGrad(..., profile=True)``) and costs one
clock pair per kernel step when on; when off the executor takes the exact
pre-existing loop with no per-step branching.
"""

from __future__ import annotations

import threading

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Thread-safe accumulator of per-kernel runtime statistics."""

    def __init__(self):
        self._lock = threading.Lock()
        #: op name -> [calls, seconds, bytes]
        self._ops: dict[str, list] = {}
        #: discrete event name -> count (plan builds, evictions, ...)
        self._events: dict[str, int] = {}

    # -- recording (hot path: called once per executed kernel step) --------------

    def record(self, op: str, seconds: float, nbytes: int) -> None:
        with self._lock:
            entry = self._ops.get(op)
            if entry is None:
                entry = self._ops[op] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += nbytes

    def count(self, event: str, amount: int = 1) -> None:
        """Count a discrete event (``plan_build``, ``plan_eviction``, ...)."""

        with self._lock:
            self._events[event] = self._events.get(event, 0) + amount

    # -- reads --------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return sum(entry[1] for entry in self._ops.values())

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(entry[0] for entry in self._ops.values())

    def events(self) -> dict:
        with self._lock:
            return dict(self._events)

    def top_kernels(self, n: int = 10) -> list[dict]:
        """The ``n`` ops with the largest accumulated wall time, descending."""

        with self._lock:
            rows = [
                {
                    "op": op,
                    "calls": entry[0],
                    "seconds": entry[1],
                    "bytes": entry[2],
                }
                for op, entry in self._ops.items()
            ]
        total = sum(row["seconds"] for row in rows) or 1.0
        rows.sort(key=lambda row: row["seconds"], reverse=True)
        for row in rows:
            row["fraction"] = row["seconds"] / total
        return rows[:n]

    def as_dict(self) -> dict:
        return {
            "kernels": self.top_kernels(n=len(self._ops) or 1),
            "events": self.events(),
            "total_seconds": self.total_seconds,
            "total_calls": self.total_calls,
        }

    def merge(self, other: "KernelProfiler") -> None:
        snapshot_ops, snapshot_events = other._snapshot_raw()
        with self._lock:
            for op, (calls, seconds, nbytes) in snapshot_ops.items():
                entry = self._ops.get(op)
                if entry is None:
                    self._ops[op] = [calls, seconds, nbytes]
                else:
                    entry[0] += calls
                    entry[1] += seconds
                    entry[2] += nbytes
            for event, count in snapshot_events.items():
                self._events[event] = self._events.get(event, 0) + count

    def _snapshot_raw(self):
        with self._lock:
            return (
                {op: list(entry) for op, entry in self._ops.items()},
                dict(self._events),
            )

    def clear(self) -> None:
        with self._lock:
            self._ops.clear()
            self._events.clear()

    def report(self, n: int = 10) -> str:
        """Human-readable top-kernels table."""

        rows = self.top_kernels(n)
        lines = ["=== top kernels ==="]
        lines.append(f"{'op':<16s} {'calls':>8s} {'seconds':>10s} {'share':>7s} {'MB':>10s}")
        for row in rows:
            lines.append(
                f"{row['op']:<16s} {row['calls']:>8d} {row['seconds']:>10.6f} "
                f"{row['fraction']:>6.1%} {row['bytes'] / 1e6:>10.2f}"
            )
        events = self.events()
        if events:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
            lines.append(f"events: {rendered}")
        return "\n".join(lines)
