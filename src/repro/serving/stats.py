"""Serving statistics: latency percentiles, cache effect, batching effect.

The headline numbers a serving layer must report:

* **latency** — per-request submit-to-completion time (p50/p99/mean),
* **cache hit rate** — fraction of requests answered without any solve
  (cache hits and store replays at submit, plus duplicates the store
  attached to an in-flight solve),
* **solver runs saved** — how many fused predictor runs batching + caching
  avoided compared to one run per request (the Figure 8 effect at the
  request level).

Since the :mod:`repro.obs` unification, :class:`ServingStats` is a facade
over a :class:`~repro.obs.metrics.MetricsRegistry`: counts are
:class:`~repro.obs.metrics.Counter` metrics and the latency / batch-size /
queue-wait distributions are *bounded* :class:`~repro.obs.metrics.Histogram`
rings — a long-lived server no longer grows per-request Python lists without
bound.  The public surface (attribute counters, ``as_dict`` keys,
``report()``) is unchanged; ``as_dict`` additionally carries the raw
registry snapshot under ``"obs"`` (exportable with
:func:`repro.obs.to_json` / :func:`repro.obs.to_prometheus`).
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry

__all__ = ["ServingStats"]


class ServingStats:
    """Counters of one server instance, with a formatted report.

    The instance is also *callable*: ``server.stats()`` returns the snapshot
    dict of :meth:`as_dict`.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` to record into; a
        private one is created when omitted.  Passing a shared registry lets
        several servers (or a server plus its trainer) export one snapshot.
    window:
        Ring window of the bounded latency/batch-size/queue-wait histograms
        — the memory ceiling replacing the old unbounded lists.
    """

    def __init__(self, registry: MetricsRegistry | None = None, window: int = 4096):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter("serving.requests")
        self._cache_hits = self.registry.counter("serving.cache_hits")
        self._dedup_hits = self.registry.counter("serving.dedup_hits")
        self._fused_runs = self.registry.counter("serving.fused_runs")
        self._lattice_runs = self.registry.counter("serving.lattice_runs")
        self._solved_requests = self.registry.counter("serving.solved_requests")
        self._batch_sizes = self.registry.histogram("serving.batch_size", window=window)
        self._latencies = self.registry.histogram(
            "serving.latency_seconds", window=window
        )
        self._queue_waits = self.registry.histogram(
            "serving.queue_wait_seconds", window=window
        )
        self._mega_runs = self.registry.counter("serving.mega_runs")
        self._mega_calls = self.registry.counter("serving.mega_calls")
        self._mega_rows = self.registry.histogram("serving.mega_rows", window=window)
        self._mega_occupancy = self.registry.histogram(
            "serving.mega_occupancy", window=window
        )
        self._retries = self.registry.counter("serving.retries")
        self._rejections = self.registry.counter("serving.rejections")
        self._timeouts = self.registry.counter("serving.timeouts")
        self._failures = self.registry.counter("serving.failures")
        self._store_hits = self.registry.counter("serving.store_hits")
        self._breaker_rejections = self.registry.counter(
            "serving.breaker_rejections"
        )
        self._memory_sheds = self.registry.counter("serving.memory_sheds")
        self._requeued = self.registry.counter("serving.requeues")

    def __call__(self) -> dict:
        return self.as_dict()

    # -- recording ----------------------------------------------------------------

    def record_submit(self) -> None:
        self._requests.inc()

    def record_cache_hit(self) -> None:
        self._cache_hits.inc()

    def record_dedup_hit(self) -> None:
        self._dedup_hits.inc()

    def record_fused_run(self, num_unique: int) -> None:
        self._fused_runs.inc()
        self._solved_requests.inc(num_unique)
        self._batch_sizes.observe(num_unique)

    def record_lattice_run(self) -> None:
        """One lattice run that answered, however many batches it carried."""

        self._lattice_runs.inc()

    def record_latency(self, seconds: float) -> None:
        self._latencies.observe(float(seconds))

    def record_queue_wait(self, seconds: float) -> None:
        self._queue_waits.observe(float(seconds))

    def record_mega_run(self, num_batches: int) -> None:
        """One cross-request mega-batch execution fusing ``num_batches`` batches."""

        self._mega_runs.inc()

    def record_mega_call(self, rows: int, sessions: int) -> None:
        """One fused solver call carrying ``rows`` rows from ``sessions`` batches.

        ``sessions`` is the mega-batch *occupancy*: how many request batches
        contributed rows to this call (1 would mean no cross-request fusion
        happened on the call).
        """

        self._mega_calls.inc()
        self._mega_rows.observe(float(rows))
        self._mega_occupancy.observe(float(sessions))

    def record_retry(self) -> None:
        self._retries.inc()

    def record_rejection(self) -> None:
        self._rejections.inc()

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def record_failure(self) -> None:
        self._failures.inc()

    def record_breaker_rejection(self) -> None:
        """One submission rejected fast by an open circuit breaker."""

        self._breaker_rejections.inc()
        self._rejections.inc()

    def record_memory_shed(self) -> None:
        """One submission shed by memory-pressure admission control."""

        self._memory_sheds.inc()
        self._rejections.inc()

    def record_requeue(self, num_requests: int = 1) -> None:
        """Requests requeued after their worker died or hung."""

        self._requeued.inc(num_requests)

    def record_flight(self, reason: str) -> None:
        """One tail-sampled flight record retained for ``reason``."""

        self.registry.counter(
            "serving.flight_records", labels={"reason": reason}
        ).inc()

    def record_store_hit(self) -> None:
        # A store replay answers the request without a solve, exactly like a
        # cache hit; it counts in both so cache_hit_rate stays meaningful.
        self._store_hits.inc()
        self._cache_hits.inc()

    # -- counter facade (same attribute names as the pre-registry class) ----------

    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def cache_hits(self) -> int:
        return self._cache_hits.value

    @property
    def dedup_hits(self) -> int:
        """Submissions the store attached to an in-flight solve of their BVP."""

        return self._dedup_hits.value

    @property
    def fused_runs(self) -> int:
        return self._fused_runs.value

    @property
    def lattice_runs(self) -> int:
        """Solver lattice runs that answered; ``fused_runs`` counts their batches."""

        return self._lattice_runs.value

    @property
    def solved_requests(self) -> int:
        return self._solved_requests.value

    @property
    def retries(self) -> int:
        return self._retries.value

    @property
    def rejections(self) -> int:
        return self._rejections.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def failures(self) -> int:
        return self._failures.value

    @property
    def store_hits(self) -> int:
        return self._store_hits.value

    @property
    def breaker_rejections(self) -> int:
        return self._breaker_rejections.value

    @property
    def memory_sheds(self) -> int:
        return self._memory_sheds.value

    @property
    def requeues(self) -> int:
        return self._requeued.value

    @property
    def mega_runs(self) -> int:
        return self._mega_runs.value

    @property
    def mega_calls(self) -> int:
        return self._mega_calls.value

    @property
    def mean_mega_occupancy(self) -> float:
        """Mean request batches fused per mega solver call (0 when unused)."""

        return self._mega_occupancy.mean

    @property
    def mean_mega_rows(self) -> float:
        """Mean subdomain rows per mega solver call (0 when unused)."""

        return self._mega_rows.mean

    @property
    def batch_sizes(self) -> list:
        """Recent fused batch sizes (bounded window, oldest first)."""

        return [int(v) for v in self._batch_sizes.values()]

    @property
    def latencies(self) -> list:
        """Recent request latencies in seconds (bounded window, oldest first)."""

        return [float(v) for v in self._latencies.values()]

    # -- derived ------------------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Requests answered without a solve of their own.

        Cache hits and store replays, plus duplicates the store attached to
        an in-flight solve (``dedup_hits``).
        """

        requests = self.requests
        if requests == 0:
            return 0.0
        return (self.cache_hits + self.dedup_hits) / requests

    @property
    def completed_requests(self) -> int:
        """Requests answered so far (from the cache, the store or a solve)."""

        return self.cache_hits + self.dedup_hits + self.solved_requests

    @property
    def solver_runs_saved(self) -> int:
        """Predictor runs avoided versus one run per *completed* request.

        Counted over completed requests only, so queued-but-unserved
        requests are not reported as savings mid-run.
        """

        return self.completed_requests - self.fused_runs

    @property
    def mean_batch_size(self) -> float:
        # Exact over the full stream (histogram count/sum never wrap).
        return self._batch_sizes.mean

    def latency_percentile(self, percentile: float) -> float:
        return self._latencies.percentile(percentile)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "fused_runs": self.fused_runs,
            "lattice_runs": self.lattice_runs,
            "solved_requests": self.solved_requests,
            "solver_runs_saved": self.solver_runs_saved,
            "retries": self.retries,
            "rejections": self.rejections,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "store_hits": self.store_hits,
            "breaker_rejections": self.breaker_rejections,
            "memory_sheds": self.memory_sheds,
            "requeues": self.requeues,
            "mega_runs": self.mega_runs,
            "mega_calls": self.mega_calls,
            "mean_mega_occupancy": self.mean_mega_occupancy,
            "mean_mega_rows": self.mean_mega_rows,
            "mean_batch_size": self.mean_batch_size,
            "latency_mean": self._latencies.mean,
            "latency_p50": self.latency_percentile(50),
            "latency_p99": self.latency_percentile(99),
            "obs": self.registry.snapshot(),
        }

    def report(self) -> str:
        """Human-readable multi-line summary."""

        d = self.as_dict()
        lines = [
            "=== serving stats ===",
            f"requests          : {d['requests']}",
            f"cache hits        : {d['cache_hits']} (+{d['dedup_hits']} attached in flight)",
            f"cache hit rate    : {d['cache_hit_rate']:.1%}",
            f"fused solver runs : {d['fused_runs']} (mean batch {d['mean_batch_size']:.1f})",
            f"solver runs saved : {d['solver_runs_saved']}",
            f"mega-batch runs   : {d['mega_runs']} "
            f"(occupancy {d['mean_mega_occupancy']:.1f} batches/call, "
            f"{d['mean_mega_rows']:.0f} rows/call)",
            f"retries/timeouts  : {d['retries']} / {d['timeouts']} "
            f"({d['failures']} failed, {d['rejections']} shed)",
            f"robustness        : {d['requeues']} requeued, "
            f"{d['breaker_rejections']} breaker-rejected, "
            f"{d['memory_sheds']} memory-shed",
            f"latency mean/p50/p99 : "
            f"{d['latency_mean']*1e3:.2f} / {d['latency_p50']*1e3:.2f} / "
            f"{d['latency_p99']*1e3:.2f} ms",
        ]
        return "\n".join(lines)
