"""Workload-independent pieces of the benchmark harness.

Seeded streams and arrival schedules, percentile and throughput reductions,
open- and closed-loop load drivers, the call recorder behind the timing
proxies, and the span-list / layer-table reductions of a traced run.

Nothing here imports ``repro``: the drivers talk to anything with a
``submit(item) -> future`` callable whose future offers
``add_done_callback`` and ``exception``, so the self-tests can put a fake
server behind them.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

#: a percentile is only reported with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one named input stream of one seed."""

    return np.random.default_rng([zlib.crc32(label.encode()), int(seed)])


def poisson_schedule(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from window start) of ``count`` Poisson arrivals.

    A Poisson process conditioned on ``count`` arrivals in ``count / rate``
    seconds: sorted uniform draws.  The gaps are as irregular as a free
    Poisson stream's, but every seed offers the same load over the same span.
    """

    return np.sort(rng.uniform(0.0, count / rate, size=count))


def stratified_mask(rng: np.random.Generator, count: int, share: float,
                    block: int = 20) -> np.ndarray:
    """Boolean mask with ``share`` true in every block of ``block`` positions."""

    pattern = np.arange(block) < round(share * block)
    blocks = -(-count // block)
    return np.concatenate([rng.permutation(pattern) for _ in range(blocks)])[:count]


def zipf_ranks(rng: np.random.Generator, exponent: float, size: int, count: int) -> np.ndarray:
    """``count`` draws from ``range(size)`` with P(k) proportional to (k+1)^-exponent."""

    weights = np.arange(1, size + 1, dtype=float) ** -exponent
    return rng.choice(size, size=count, p=weights / weights.sum())


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """``q``-th percentile, refused unless >= 10 samples lie beyond it."""

    n = len(samples)
    if n * min(q, 100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has fewer than {MIN_TAIL_SAMPLES} samples beyond it"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail_percentile(n: int, cap: int = 95) -> int:
    """Highest whole percentile <= ``cap`` that ``n`` samples support."""

    if n < 2 * MIN_TAIL_SAMPLES:
        raise TooFewSamples(f"{n} samples support no percentile")
    return min(cap, int(100.0 - 100.0 * MIN_TAIL_SAMPLES / n))


def median_rate(counts, durations) -> float:
    """Median of per-segment rates: one slow segment does not move it."""

    rates = np.asarray(counts, dtype=float) / np.asarray(durations, dtype=float)
    return float(np.median(rates))


def segment_rate(done_times, start: float, end: float, segments: int = 4) -> float:
    """Completions per second, as the median over equal slices of the window."""

    edges = np.linspace(start, end, segments + 1)
    counts, _ = np.histogram(np.asarray(done_times, dtype=float), bins=edges)
    return median_rate(counts, np.diff(edges))


# ---------------------------------------------------------------------------
# Load drivers
# ---------------------------------------------------------------------------


class LoadLog:
    """Per-request timestamps of one driven window (``perf_counter`` seconds).

    ``due`` is when the request should have been sent (equal to ``sent`` in a
    closed loop), ``returned`` when the submit call came back, ``done`` when
    its future resolved.  ``ok`` is false for a request that raised at
    submit, was rejected, or resolved with an error.
    """

    def __init__(self, capacity: int):
        self.due = np.full(capacity, np.nan)
        self.sent = np.full(capacity, np.nan)
        self.returned = np.full(capacity, np.nan)
        self.done = np.full(capacity, np.nan)
        self.ok = np.zeros(capacity, dtype=bool)
        self.count = 0
        self.start = self.end = 0.0
        self._resolved = threading.Semaphore(0)

    def on_done(self, index: int, future) -> None:
        self.done[index] = time.perf_counter()
        self.ok[index] = future.exception() is None
        self._resolved.release()

    def send(self, index: int, submit, item, due: float, on_done=None) -> None:
        self.due[index] = due
        self.sent[index] = time.perf_counter()
        self.count = index + 1
        try:
            future = submit(item)
        except Exception:
            self.returned[index] = self.done[index] = time.perf_counter()
            self._resolved.release()
            if on_done is not None:
                on_done()
            return
        self.returned[index] = time.perf_counter()

        def resolved(fut, index=index):
            self.on_done(index, fut)
            if on_done is not None:
                on_done()

        future.add_done_callback(resolved)

    def wait_all(self, timeout: float) -> bool:
        """Block until every sent request resolved; false on timeout."""

        deadline = time.perf_counter() + timeout
        for _ in range(self.count):
            if not self._resolved.acquire(timeout=max(0.0, deadline - time.perf_counter())):
                return False
        return True

    def trim(self) -> "LoadLog":
        for name in ("due", "sent", "returned", "done", "ok"):
            setattr(self, name, getattr(self, name)[: self.count])
        return self

    # -- derived ----------------------------------------------------------------

    @property
    def latency_ms(self) -> np.ndarray:
        """Latency from due time of the requests that succeeded."""

        return (self.done[self.ok] - self.due[self.ok]) * 1e3

    @property
    def submit_us(self) -> np.ndarray:
        return (self.returned - self.sent) * 1e6

    @property
    def generator_lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    @property
    def failed(self) -> int:
        return int(self.count - np.count_nonzero(self.ok))


def run_open_loop(submit, items, due_offsets, drain_timeout: float = 120.0) -> LoadLog:
    """Send ``items`` on a fixed schedule, whatever the server does.

    A request is sent at its due time or, when the generator is behind, as
    soon as the previous submit call returns; either way its latency counts
    from the *due* time, so a stall is charged to every request that was due
    during it (no coordinated omission).
    """

    log = LoadLog(len(items))
    log.start = time.perf_counter()
    for index, (item, offset) in enumerate(zip(items, due_offsets)):
        due = log.start + float(offset)
        while (wait := due - time.perf_counter()) > 0:
            time.sleep(wait)
        log.send(index, submit, item, due)
    log.wait_all(drain_timeout)
    log.end = time.perf_counter()
    return log.trim()


def run_closed_loop(
    submit, items, in_flight: int, seconds: float, drain_timeout: float = 120.0
) -> LoadLog:
    """Keep ``in_flight`` requests outstanding for ``seconds``.

    The next request is sent when one resolves.  The window ends at the
    deadline (or when ``items`` run out); requests still in flight then are
    waited for and keep their latency, but throughput is taken over the
    window only.
    """

    log = LoadLog(len(items))
    slots = threading.Semaphore(in_flight)
    log.start = time.perf_counter()
    deadline = log.start + seconds
    for index, item in enumerate(items):
        slots.acquire()
        now = time.perf_counter()
        if now >= deadline:
            break
        log.send(index, submit, item, now, on_done=slots.release)
    log.end = min(deadline, time.perf_counter())
    log.wait_all(drain_timeout)
    return log.trim()


# ---------------------------------------------------------------------------
# Call recorder (behind the timing proxies of a traced run)
# ---------------------------------------------------------------------------


class Recorder:
    """Durations and row counts of proxied calls, keyed by call name.

    ``span`` is ``repro.obs.span`` in a traced run, so every proxied call is
    also a span in the program's own trace tree (and inherits its parent and
    request id from there).
    """

    def __init__(self, span=None):
        self._span = span if span is not None else (lambda name, **attrs: nullcontext())
        self._lock = threading.Lock()
        self._calls: dict[str, list] = defaultdict(list)

    @contextmanager
    def timed(self, name: str, rows: int = 1):
        with self._span(name, rows=rows):
            tic = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - tic
                with self._lock:
                    self._calls[name].append((elapsed, rows))

    def reset(self) -> None:
        with self._lock:
            self._calls.clear()

    def snapshot(self) -> "CallStats":
        with self._lock:
            return CallStats({name: list(calls) for name, calls in self._calls.items()})


@dataclass
class CallStats:
    """Frozen copy of a :class:`Recorder` taken at the end of the window."""

    calls: dict = field(default_factory=dict)

    def count(self, name: str) -> int:
        return len(self.calls.get(name, ()))

    def seconds(self, name: str) -> float:
        return float(sum(elapsed for elapsed, _ in self.calls.get(name, ())))

    def rows(self, name: str) -> int:
        return int(sum(rows for _, rows in self.calls.get(name, ())))

    def p50_us(self, name: str) -> float:
        calls = self.calls.get(name)
        if not calls:
            return 0.0
        return float(np.median([elapsed for elapsed, _ in calls])) * 1e6


def wrap_method(obj, name: str, recorder: Recorder, span_name: str) -> None:
    """Time a bound method by shadowing it on the instance."""

    inner = getattr(obj, name)

    def timed(*args, **kwargs):
        with recorder.timed(span_name):
            return inner(*args, **kwargs)

    setattr(obj, name, timed)


# ---------------------------------------------------------------------------
# Span list and layer table
# ---------------------------------------------------------------------------


def flatten_spans(roots, epoch: float) -> list[dict]:
    """Span trees -> flat list with parent index and inherited request id."""

    spans: list[dict] = []

    def visit(node, parent: int | None, request_id):
        request_id = node.attrs.get("request_id", request_id)
        index = len(spans)
        end = node.end if node.end is not None else node.start
        covered = sum(
            (c.end if c.end is not None else c.start) - c.start for c in node.children
        )
        spans.append({
            "name": node.name,
            "start": node.start - epoch,
            "end": end - epoch,
            "parent": parent,
            "request_id": request_id,
            "thread": node.thread_id,
            "self_s": max(0.0, (end - node.start) - covered),
        })
        for child in node.children:
            visit(child, index, request_id)

    for root in roots:
        visit(root, None, None)
    return spans


def layer_table(spans: list[dict], wall: float, driver_thread: int, layer_of) -> list[dict]:
    """Self time per span name, as busy seconds and share of window wall.

    The last row, ``unattributed``, is the part of the window the driving
    thread spent outside every span.  With worker threads the shares are of
    one wall clock and can sum past 1.
    """

    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    driver_covered = 0.0
    for s in spans:
        busy[s["name"]] += s["self_s"]
        counts[s["name"]] += 1
        if s["parent"] is None and s["thread"] == driver_thread:
            driver_covered += s["end"] - s["start"]
    rows = [
        {"span": name, "layer": layer_of(name), "count": counts[name],
         "busy_s": busy[name], "share": busy[name] / wall}
        for name in sorted(busy, key=busy.get, reverse=True)
    ]
    idle = max(0.0, wall - driver_covered)
    rows.append({"span": "unattributed", "layer": "-", "count": 0,
                 "busy_s": idle, "share": idle / wall})
    return rows
