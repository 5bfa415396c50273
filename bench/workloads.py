"""The six workloads: set-up, timed window, correctness check, metrics.

Each ``run_*`` function receives a :class:`Context`, builds its inputs from
``ctx.seed``, calls ``ctx.begin_window()`` right before its first timed
operation (which closes ``setup_s``), and returns a :class:`Outcome`.  In a
traced run the library objects are built with the timing subclasses below
and ``repro.obs`` tracing is on; in an untraced run they are the plain
library classes.

What the seed drives: request boundary data, geometry choice, duplicate
pattern, arrival schedule, and the boundary of the large Mosaic Flow domain.
What it does not drive: the SDNet served by the inference workloads, the
data ``train_sdnet`` trains on, and the verification sets.  Those are built
from ``MODEL_SEED`` / ``VERIFY_SEED`` so that ``solution_mae`` and the
iteration counts repeat exactly from seed to seed and any drift in them is a
change in the program, not in the input.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
from repro import obs
from repro.data import GaussianProcessSampler, generate_dataset
from repro.domains import (
    CompositeDomain,
    CompositeMosaicGeometry,
    composite_reference_solution,
)
from repro.fd import solve_laplace_from_loop
from repro.models import SDNet
from repro.mosaic import (
    FDSubdomainSolver,
    MosaicFlowPredictor,
    MosaicGeometry,
    SDNetSubdomainSolver,
)
from repro.mosaic.distributed import DistributedMosaicFlowPredictor
from repro.obs import FlightRecorder
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import (
    BatchPolicy,
    RequestJournal,
    RequestStore,
    Server,
    SolutionCache,
    SolveRequest,
)
from repro.training import Trainer, TrainingConfig

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ROOT / "test-artifacts" / "bench"

MODEL_SEED = 0
VERIFY_SEED = 20230
SUBDOMAIN_POINTS = 9
SUBDOMAIN_EXTENT = 0.5
TOL = 1e-6
MAX_ITERATIONS = 40
LATENCY_LIMIT_MS = 100.0
ASYNC_WORKERS = 2
#: the open loop holds one or two requests at a time: a second worker adds no
#: capacity there, only a third busy thread on two cores (p95 36 -> 30 ms)
OPEN_WORKERS = 1
IN_FLIGHT = 16

#: sizes per second of requested window (``--seconds``); the ISSUE's sizes
#: (560 open-loop requests, 40 epochs, 100 iterations) are ``--seconds 28``
OPEN_RATE = 20.0
CLOSED_STREAM_PER_S = 600
CLOSED_SLICES_PER_S = 2
#: two requests per geometry: a burst then lasts about a second, and the
#: median over bursts has twenty of them to find the speed the machine holds
#: most of the window (the FD backend costs the same per row either way)
BURST_SIZE = 8
BURSTS_PER_S = 1.0
MOSAIC_ITERATIONS_PER_S = 4
MOSAIC_SEGMENTS = 4
TRAIN_EPOCHS_PER_S = 6


class SetupDone(Exception):
    """Raised by ``begin_window`` in a set-up-only run."""


@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    layer_table: list = field(default_factory=list)


class Context:
    """Per-run state shared by the workload functions."""

    def __init__(self, seed: int, seconds: float, traced: bool, setup_only: bool,
                 spawned_at: float):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.setup_only = setup_only
        self.spawned_at = spawned_at
        self.setup_s: float | None = None
        self.tracer = None
        self.recorder = None
        self.window_start = self.window_end = 0.0
        self.calls = harness.CallStats()
        self.spans: list = []
        if traced:
            self.tracer = obs.enable_tracing(obs.Tracer(max_roots=10_000_000))
            self.recorder = harness.Recorder(span=obs.span)

    def begin_window(self) -> None:
        if self.setup_s is None:
            self.setup_s = time.time() - self.spawned_at
        if self.setup_only:
            raise SetupDone
        if self.traced:
            self.recorder.reset()
            self.tracer.clear()
        self.window_start = time.perf_counter()

    def end_window(self) -> float:
        """Close the timed window; returns its wall seconds."""

        self.window_end = time.perf_counter()
        if self.traced:
            self.calls = self.recorder.snapshot()
            self.spans = harness.flatten_spans(self.tracer.roots, self.window_start)
        return self.window_end - self.window_start

    def layer_table(self) -> list[dict]:
        return harness.layer_table(
            self.spans, self.window_end - self.window_start,
            threading.get_ident(), layer_of,
        )


def layer_of(span_name: str) -> str:
    """Module under ``src/repro`` that a span's self time is charged to."""

    for prefix, layer in (
        ("bench.solver.", "mosaic.solvers"),
        ("bench.store.", "serving.store"),
        ("bench.cache.", "serving.cache"),
        ("bench.journal.", "serving.journal"),
        ("bench.mosaic.", "mosaic.predictor"),
        ("bench.train.", "training"),
        ("bench.", "serving"),
        ("serving.", "serving"),
        ("fused.", "serving.fused"),
        ("mfp.", "mosaic.distributed"),
        ("train.", "training"),
        ("ddp.", "training.ddp"),
    ):
        if span_name.startswith(prefix):
            return layer
    # Undotted names are the sections of utils.timer.Timings.measure, which
    # only the Mosaic Flow predictors use.
    return span_name.split(".")[0] if "." in span_name else "mosaic"


# ---------------------------------------------------------------------------
# Timing subclasses injected through public constructor arguments
# ---------------------------------------------------------------------------
# Subclasses, not wrappers: the server decides mega-batch fusion and engine
# compilation by isinstance checks on the solver, and takes a journal object
# only if it is a RequestJournal.


class _TimedPredict:
    def predict(self, boundaries, points):
        with self._recorder.timed("bench.solver.predict", rows=len(boundaries)):
            return super().predict(boundaries, points)


class TimedSDNetSolver(_TimedPredict, SDNetSubdomainSolver):
    def __init__(self, model, recorder):
        super().__init__(model)
        self._recorder = recorder


class TimedFDSolver(_TimedPredict, FDSubdomainSolver):
    def __init__(self, grid, recorder):
        super().__init__(grid, method="direct")
        self._recorder = recorder


class TimedStore(RequestStore):
    def __init__(self, recorder):
        super().__init__()
        self._recorder = recorder

    def claim(self, request, waiter):
        with self._recorder.timed("bench.store.claim"):
            return super().claim(request, waiter)

    def fulfill(self, request, result):
        with self._recorder.timed("bench.store.fulfill"):
            return super().fulfill(request, result)


class TimedCache(SolutionCache):
    def __init__(self, recorder):
        super().__init__()
        self._recorder = recorder

    def get(self, request):
        with self._recorder.timed("bench.cache.get"):
            return super().get(request)


class TimedJournal(RequestJournal):
    def __init__(self, path, recorder):
        super().__init__(path)
        self._recorder = recorder

    def _append(self, kind, key, data):
        with self._recorder.timed("bench.journal.append"):
            return super()._append(kind, key, data)


def sdnet_factory(ctx: Context, model):
    if ctx.traced:
        return lambda geometry: TimedSDNetSolver(model, ctx.recorder)
    return lambda geometry: SDNetSubdomainSolver(model)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def make_sdnet(boundary_size: int) -> SDNet:
    return SDNet(boundary_size=boundary_size, hidden_size=24, trunk_layers=2,
                 embedding_channels=(2,), rng=MODEL_SEED)


def subdomain_dataset(num_samples: int):
    return generate_dataset(
        num_samples=num_samples, resolution=SUBDOMAIN_POINTS,
        extent=(SUBDOMAIN_EXTENT, SUBDOMAIN_EXTENT), seed=MODEL_SEED,
    )


def trained_sdnet() -> SDNet:
    """The SDNet every inference workload serves (seed-independent)."""

    dataset = subdomain_dataset(256)
    train, val = dataset.split(validation_fraction=0.125, seed=MODEL_SEED)
    model = make_sdnet(dataset.grid.boundary_size)
    config = TrainingConfig(
        epochs=6, batch_size=8, data_points_per_domain=32,
        collocation_points_per_domain=16, max_lr=3e-3, seed=MODEL_SEED,
    )
    Trainer(model, config, train, val).fit()
    return model


class RequestMix:
    """The four-geometry request mix of ``benchmarks/test_megabatch_throughput``.

    Boundary data is a seeded random combination of ``HARMONIC_FUNCTIONS``
    sampled along each geometry's boundary loop.
    """

    def __init__(self):
        self.geometries = (
            MosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, steps_x=4, steps_y=4),
            MosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, steps_x=6, steps_y=4),
            MosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, steps_x=4, steps_y=6),
            CompositeMosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT,
                                    CompositeDomain.l_shape(6, 6, 3, 3)),
        )
        names = sorted(HARMONIC_FUNCTIONS)
        self.basis = [
            np.stack([g.boundary_from_function(HARMONIC_FUNCTIONS[n]) for n in names])
            for g in self.geometries
        ]

    def draw(self, rng: np.random.Generator, count: int) -> list[tuple[int, np.ndarray]]:
        """``count`` fresh BVPs as ``(geometry index, boundary loop)``.

        The geometries take equal shares in a seeded order: a request's cost
        depends on its geometry and not on its data, so an unbalanced draw
        would show up as run-to-run noise in every timing.
        """

        which = rng.permutation(np.arange(count) % len(self.geometries))
        weights = rng.normal(size=(count, self.basis[0].shape[0]))
        return [(int(g), weights[i] @ self.basis[g]) for i, g in enumerate(which)]

    def stream(self, rng, count: int, duplicate_share: float,
               hot: list | None = None, zipf: float = 1.3) -> list[tuple[int, np.ndarray]]:
        """BVP stream with exact duplicates.

        Without ``hot`` a duplicate repeats a uniformly chosen earlier
        element of the stream; with it, a Zipf-ranked element of the hot set.
        Which positions hold duplicates is seeded, but every block of 20
        holds the same number: a duplicate costs far less than a fresh solve,
        so a free Bernoulli draw would move throughput by the draw alone.
        """

        fresh = self.draw(rng, count)
        is_dup = harness.stratified_mask(rng, count, duplicate_share)
        if hot is not None:
            ranks = harness.zipf_ranks(rng, zipf, len(hot), count)
            return [hot[ranks[i]] if is_dup[i] else fresh[i] for i in range(count)]
        picks = rng.random(count)
        out: list = []
        for i in range(count):
            out.append(out[int(picks[i] * i)] if is_dup[i] and i else fresh[i])
        return out

    def requests(self, bvps) -> list[SolveRequest]:
        return [
            SolveRequest.create(self.geometries[g], loop, tol=TOL,
                                max_iterations=MAX_ITERATIONS)
            for g, loop in bvps
        ]


def serve_all(server: Server, requests) -> list:
    """Serve ``requests`` to completion (untimed); results in request order."""

    if server.running:
        futures = [server.submit_async(r) for r in requests]
        served = [f.result(timeout=120.0) for f in futures]
        server.drain()
        return served
    ids = [server.submit(r) for r in requests]
    results = server.drain()
    return [results[i] for i in ids]


def warm_up(server: Server, mix: RequestMix, seed: int, per_geometry: int = 8) -> None:
    """Requests on every geometry so lazy solvers, pools and traces exist."""

    rng = harness.stream_rng(seed, "warmup")
    serve_all(server, mix.requests(mix.draw(rng, per_geometry * len(mix.geometries))))


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def verify_served(server: Server, mix: RequestMix, make_solver) -> tuple[int, int, float]:
    """Serve the fixed verification set; returns (attempted, failed, mae).

    Each served solution must equal, bit for bit and in iteration count, a
    standalone ``MosaicFlowPredictor.run`` on the same request; the mean
    absolute error against the finite-difference reference is
    ``solution_mae``.
    """

    requests = mix.requests(mix.draw(harness.stream_rng(VERIFY_SEED, "verify"), 16))
    served = serve_all(server, requests)
    failed = 0
    errors = []
    for request, result in zip(requests, served):
        geometry = request.geometry
        alone = MosaicFlowPredictor(
            geometry, make_solver(geometry), init_mode=request.init_mode
        ).run(request.boundary_loop, max_iterations=request.max_iterations,
              tol=request.tol, check_interval=request.check_interval)
        if (result.solution.tobytes() != alone.solution.tobytes()
                or result.iterations != alone.iterations):
            failed += 1
        reference = composite_reference_solution(geometry, request.boundary_loop)
        mask = geometry.valid_mask()
        errors.append(np.mean(np.abs(result.solution - reference)[mask]))
    return len(requests), failed, float(np.mean(errors))


# ---------------------------------------------------------------------------
# Serving metrics
# ---------------------------------------------------------------------------


def latency_metrics(latency_ms: np.ndarray) -> tuple[dict, list]:
    """p50 and the tail percentile of request latencies, with sample counts."""

    n = len(latency_ms)
    tail = harness.tail_percentile(n)
    notes = [f"latency percentiles over {n} samples"]
    if tail != 95:
        notes.append(
            f"latency_p95_ms is p{tail}: the highest percentile {n} samples "
            f"support with {harness.MIN_TAIL_SAMPLES} beyond it"
        )
    return {
        "latency_p50_ms": harness.percentile(latency_ms, 50),
        "latency_p95_ms": harness.percentile(latency_ms, tail),
    }, notes


def stats_mark(server: Server) -> dict:
    """Counters and histogram (count, sum) pairs of ``server.stats`` now."""

    stats, registry = server.stats, server.stats.registry
    mark = {name: getattr(stats, name) for name in (
        "fused_runs", "retries", "rejections", "timeouts", "requeues",
    )}
    for name in ("batch_size", "mega_rows", "mega_occupancy"):
        histogram = registry.histogram(f"serving.{name}")
        mark[name] = (histogram.count, histogram.sum)
    return mark


def serving_layers(ctx: Context, server: Server, before: dict, log: harness.LoadLog,
                   wall: float, results: dict) -> dict:
    """Per-layer metrics of a serving window (traced run)."""

    after = stats_mark(server)
    calls = ctx.calls

    def mean(name):
        count = after[name][0] - before[name][0]
        return (after[name][1] - before[name][1]) / count if count else 0.0

    predict = "bench.solver.predict"
    rows, solver_calls = calls.rows(predict), calls.count(predict)
    store, cache, journal = server.store, server.cache, server.store.journal
    layers = {
        "serving.submit_us_p50": float(np.median(log.submit_us)),
        "serving.queue_wait_ms_p50": 1e3 * server.stats.registry.histogram(
            "serving.queue_wait_seconds").percentile(50),
        "serving.batch_size_mean": mean("batch_size"),
        "serving.mega_rows_mean": mean("mega_rows"),
        "serving.mega_occupancy_mean": mean("mega_occupancy"),
        "serving.solver_busy_share": calls.seconds(predict) / wall,
        "serving.store_claim_us_p50": calls.p50_us("bench.store.claim"),
        "serving.store_fulfill_us_p50": calls.p50_us("bench.store.fulfill"),
        "serving.store_replay_share": store.replays / log.count,
        "serving.store_attach_share": store.attached / log.count,
        "serving.cache_get_us_p50": calls.p50_us("bench.cache.get"),
        "serving.cache_hit_share": cache.hit_rate if cache is not None else 0.0,
        "serving.journal_append_us_p50": calls.p50_us("bench.journal.append"),
        "serving.fused_runs": after["fused_runs"] - before["fused_runs"],
        "serving.solver_calls": solver_calls,
        "serving.solver_rows": rows,
        "serving.iterations_mean": float(np.mean([r.iterations for r in results.values()])),
        "mosaic.predict_us_per_row": 1e6 * calls.seconds(predict) / rows if rows else 0.0,
        "mosaic.rows_per_call_mean": rows / solver_calls if solver_calls else 0.0,
        "harness.sent": log.count,
        "harness.succeeded": log.count - log.failed,
        "harness.failed": log.failed,
    }
    for name in ("retries", "rejections", "timeouts", "requeues"):
        layers[f"serving.{name}"] = after[name] - before[name]
    if journal is not None:
        journal_stats = journal.stats()
        layers["serving.journal_bytes_per_request"] = journal_stats["size_bytes"] / log.count
        layers["serving.journal_syncs"] = journal_stats["syncs"]
    return layers


def serving_outcome(ctx: Context, server: Server, mix: RequestMix, make_solver,
                    log: harness.LoadLog, before: dict, wall: float,
                    throughput: float, results: dict) -> Outcome:
    """Shared tail of the serving workloads: metrics, then the correctness check."""

    outcome = Outcome()
    outcome.end_to_end, outcome.notes = latency_metrics(log.latency_ms)
    outcome.end_to_end["throughput_per_s"] = throughput
    if ctx.traced:
        outcome.per_layer = serving_layers(ctx, server, before, log, wall, results)
        outcome.layer_table = ctx.layer_table()
    attempted, mismatched, mae = verify_served(server, mix, make_solver)
    outcome.end_to_end["solution_mae"] = mae
    outcome.attempted = log.count + attempted
    # A request that resolved without error but whose result never arrived
    # (possible on the drain path) is a failure too.
    outcome.failed = log.failed + mismatched + max(0, log.count - log.failed - len(results))
    if mismatched:
        outcome.notes.append(f"{mismatched} served solutions differ from the standalone run")
    return outcome


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_serve_sdnet_open(ctx: Context) -> Outcome:
    model = trained_sdnet()
    mix = RequestMix()
    count = max(int(round(OPEN_RATE * ctx.seconds)), 2 * harness.MIN_TAIL_SAMPLES)
    rng = harness.stream_rng(ctx.seed, "serve_sdnet_open")
    requests = mix.requests(mix.stream(rng, count, duplicate_share=0.10))
    schedule = harness.poisson_schedule(rng, OPEN_RATE, count)
    make_solver = sdnet_factory(ctx, model)
    server = Server(
        solver_factory=make_solver, policy=BatchPolicy(16, 0.005),
        async_workers=OPEN_WORKERS,
        store=TimedStore(ctx.recorder) if ctx.traced else None,
    )
    with server:
        warm_up(server, mix, ctx.seed)
        before = stats_mark(server)
        ctx.begin_window()
        log = harness.run_open_loop(server.submit_async, requests, schedule)
        wall = ctx.end_window()
        outcome = serving_outcome(
            ctx, server, mix, make_solver, log, before, wall,
            # Not the segment median: per-slice counts of an arrival process
            # are input noise, and the whole window offers a fixed load.
            throughput=(log.count - log.failed) / (log.end - log.start),
            results=server.drain(),
        )
    late = int(np.count_nonzero(log.latency_ms > LATENCY_LIMIT_MS)) + log.failed
    lag_p95 = float(np.percentile(log.generator_lag_ms, 95))
    outcome.end_to_end["slo_miss_share"] = late / log.count
    outcome.per_layer["harness.generator_lag_p95_ms"] = lag_p95
    if lag_p95 > 10.0:
        outcome.notes.append(f"INVALID: generator lag p95 {lag_p95:.1f} ms > 10 ms")
    return outcome


def closed_loop_workload(ctx: Context, server: Server, mix: RequestMix, make_solver,
                         requests) -> Outcome:
    with server:
        warm_up(server, mix, ctx.seed)
        before = stats_mark(server)
        ctx.begin_window()
        log = harness.run_closed_loop(server.submit_async, requests, IN_FLIGHT, ctx.seconds)
        wall = ctx.end_window()
        if log.count == len(requests):
            raise RuntimeError("request stream ran out before the window ended")
        return serving_outcome(
            ctx, server, mix, make_solver, log, before, wall,
            # Half-second slices: the median over them sits in the speed the
            # machine holds most of the window, and outvotes the ramp of the
            # first two seconds (slots fill with slow requests).
            throughput=harness.segment_rate(
                log.done[log.ok], log.start, log.end,
                max(10, int(CLOSED_SLICES_PER_S * ctx.seconds))),
            results=server.drain(),
        )


def run_serve_sdnet_closed(ctx: Context) -> Outcome:
    model = trained_sdnet()
    mix = RequestMix()
    rng = harness.stream_rng(ctx.seed, "serve_sdnet_closed")
    count = int(CLOSED_STREAM_PER_S * ctx.seconds)
    requests = mix.requests(mix.stream(rng, count, duplicate_share=0.10))
    make_solver = sdnet_factory(ctx, model)
    server = Server(
        solver_factory=make_solver, engine=True, async_workers=ASYNC_WORKERS,
        store=TimedStore(ctx.recorder) if ctx.traced else None,
    )
    return closed_loop_workload(ctx, server, mix, make_solver, requests)


def run_serve_dup_durable(ctx: Context) -> Outcome:
    model = trained_sdnet()
    mix = RequestMix()
    rng = harness.stream_rng(ctx.seed, "serve_dup_durable")
    count = int(CLOSED_STREAM_PER_S * ctx.seconds)
    hot = mix.draw(rng, 32)
    requests = mix.requests(mix.stream(rng, count, duplicate_share=0.80, hot=hot))
    make_solver = sdnet_factory(ctx, model)
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="journal-", dir=ARTIFACTS))
    try:
        path = scratch / "requests.journal"
        server = Server(
            solver_factory=make_solver, async_workers=ASYNC_WORKERS,
            cache=TimedCache(ctx.recorder) if ctx.traced else SolutionCache(),
            journal=TimedJournal(path, ctx.recorder) if ctx.traced else path,
            store=TimedStore(ctx.recorder) if ctx.traced else None,
            supervisor=True, flight=FlightRecorder(),
        )
        try:
            return closed_loop_workload(ctx, server, mix, make_solver, requests)
        finally:
            server.store.journal.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_serve_fd_burst(ctx: Context) -> Outcome:
    mix = RequestMix()
    bursts = max(4, int(round(BURSTS_PER_S * ctx.seconds)))
    rng = harness.stream_rng(ctx.seed, "serve_fd_burst")
    # Drawn burst by burst, so that every burst holds each geometry equally.
    requests = mix.requests(
        [bvp for _ in range(bursts) for bvp in mix.draw(rng, BURST_SIZE)])
    if ctx.traced:
        def make_solver(geometry):
            return TimedFDSolver(geometry.subdomain_grid(), ctx.recorder)
        server = Server(solver_factory=make_solver, store=TimedStore(ctx.recorder))
    else:
        from repro.serving import default_solver_factory as make_solver
        server = Server()
    # Two per geometry: the FD backend has nothing lazy beyond its solvers,
    # and each warm-up request costs a tenth of a second of set-up.
    warm_up(server, mix, ctx.seed, per_geometry=2)
    before = stats_mark(server)
    span = ctx.recorder.timed if ctx.traced else (lambda name: nullcontext())

    def submit(request):
        # The synchronous API: ``submit`` returns an id, ``future`` its handle.
        return server.future(server.submit(request))

    log = harness.LoadLog(len(requests))
    results: dict = {}
    burst_seconds = []
    ctx.begin_window()
    log.start = time.perf_counter()
    for b in range(bursts):
        tic = time.perf_counter()
        for index in range(b * BURST_SIZE, (b + 1) * BURST_SIZE):
            with span("bench.submit"):
                log.send(index, submit, requests[index], time.perf_counter())
        with span("bench.drain"):
            results.update(server.drain())
        burst_seconds.append(time.perf_counter() - tic)
    log.end = time.perf_counter()
    log.trim()
    wall = ctx.end_window()

    outcome = serving_outcome(
        ctx, server, mix, make_solver, log, before, wall,
        throughput=harness.median_rate([BURST_SIZE] * bursts, burst_seconds),
        results=results,
    )
    if ctx.traced:
        outcome.per_layer["fd.solves"] = outcome.per_layer["serving.solver_rows"]
        outcome.per_layer["serving.unattributed_share"] = outcome.layer_table[-1]["share"]
    return outcome


def gp_boundary(grid, seed: int) -> np.ndarray:
    """A Gaussian-process boundary loop on ``grid``, corners made consistent."""

    loop = GaussianProcessSampler(
        boundary_size=grid.boundary_size, perimeter=2.0 * sum(grid.extent), seed=seed,
    ).sample_one()
    return grid.extract_boundary(grid.insert_boundary(loop))


def run_mosaic_4096x(ctx: Context) -> Outcome:
    model = trained_sdnet()
    iterations = int(MOSAIC_ITERATIONS_PER_S * ctx.seconds)
    geometry = MosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, steps_x=128, steps_y=128)
    grid = geometry.global_grid()
    loop = gp_boundary(grid, int(harness.stream_rng(ctx.seed, "mosaic_4096x").integers(2**31)))
    if ctx.traced:
        tic = time.perf_counter()
        solve_laplace_from_loop(grid, loop, method="direct")
        reference_solve_s = time.perf_counter() - tic

    def make_solver(_geometry=None):
        if ctx.traced:
            return TimedSDNetSolver(model, ctx.recorder)
        return SDNetSubdomainSolver(model)

    predictor = MosaicFlowPredictor(geometry, make_solver())
    distributed = DistributedMosaicFlowPredictor(geometry, make_solver)
    # One untimed iteration each, so first-call allocation is not in the window.
    predictor.run(loop, max_iterations=1, tol=0.0, assemble=False)
    if ctx.traced:
        harness.wrap_method(predictor, "run", ctx.recorder, "bench.mosaic.run")

    # Phases alternate in segments, A B A B ..., so that both see the same
    # states of the machine, and the rate is the median over segments: one
    # run() call per phase is one sample, which reads 10 to 15 iterations/s
    # with the state of the vCPU it lands on.
    per_segment = max(1, iterations // MOSAIC_SEGMENTS)
    iterations = per_segment * MOSAIC_SEGMENTS
    singles, rank_runs, seconds_a, seconds_b = [], [], [], []
    ctx.begin_window()
    for _ in range(MOSAIC_SEGMENTS):
        tic = time.perf_counter()
        singles.append(predictor.run(loop, max_iterations=per_segment, tol=0.0))
        seconds_a.append(time.perf_counter() - tic)
        tic = time.perf_counter()
        rank_runs.append(distributed.run(2, loop, max_iterations=per_segment, tol=0.0))
        seconds_b.append(time.perf_counter() - tic)
    ctx.end_window()
    seconds_a, seconds_b = np.array(seconds_a), np.array(seconds_b)
    single, ranks = singles[-1], rank_runs[-1]

    outcome = Outcome(attempted=2 * iterations)
    throughput = harness.median_rate(
        [2 * per_segment] * MOSAIC_SEGMENTS, seconds_a + seconds_b)
    outcome.end_to_end = {
        "throughput_per_s": throughput,
        # No request stream: for the driver, which wants every metric from
        # every workload, the time one operation takes stands in.
        "latency_p50_ms": 1e3 / throughput,
        "scaling_efficiency_w2": float(np.median(seconds_a / (2.0 * seconds_b))),
    }
    phase_gap = float(np.mean(np.abs(ranks[0].solution - single.solution)))
    if (any(r.iterations != per_segment for r in singles)
            or any(r[0].iterations != per_segment for r in rank_runs)
            or not phase_gap < 1e-3):
        outcome.failed += iterations
        outcome.notes.append(f"phase B differs from phase A by {phase_gap:.3g} MAE")

    if ctx.traced:
        calls = ctx.calls
        predict = "bench.solver.predict"
        rows = calls.rows(predict)

        def phase_a(name):
            return sum(r.timings[name] for r in singles)

        def slowest_rank(name):
            return sum(max(r.timings.get(name, 0.0) for r in run) for run in rank_runs)

        def rank_sum(name):
            return sum(r.comm_stats[name] for run in rank_runs for r in run)

        outcome.per_layer = {
            "fd.reference_solve_s": reference_solve_s,
            "mosaic.predict_us_per_row": 1e6 * calls.seconds(predict) / rows,
            "mosaic.rows_per_call_mean": rows / calls.count(predict),
            "mosaic.inference_s": phase_a("inference"),
            "mosaic.boundaries_io_s": phase_a("boundaries_io"),
            "mosaic.convergence_check_s": phase_a("convergence_check"),
            "mosaic.assembly_s": phase_a("assembly"),
            "mosaic.dist_w2_inference_s": slowest_rank("inference"),
            "mosaic.dist_w2_wall_s": float(seconds_b.sum()),
            "distributed.sendrecv_s_w2": slowest_rank("sendrecv"),
            "distributed.allreduce_s_w2": slowest_rank("convergence_check"),
            "distributed.send_bytes_w2": rank_sum("send_bytes"),
            "distributed.messages_w2": rank_sum("sends"),
        }
        outcome.layer_table = ctx.layer_table()
        four = DistributedMosaicFlowPredictor(
            geometry, lambda: SDNetSubdomainSolver(model)
        ).run(4, loop, max_iterations=10, tol=0.0)
        outcome.per_layer["distributed.halo_bytes_per_iteration_w4"] = sum(
            r.halo_bytes_per_iteration for r in four)
        outcome.per_layer["distributed.messages_w4"] = sum(
            r.comm_stats["sends"] for r in four)

    # Untimed accuracy check: with the exact subdomain solver the predictor
    # is classical Schwarz and must reach the direct solve of the same BVP.
    small = MosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, steps_x=8, steps_y=8)
    small_grid = small.global_grid()
    small_loop = gp_boundary(small_grid, VERIFY_SEED)
    exact = MosaicFlowPredictor(
        small, FDSubdomainSolver(small.subdomain_grid(), method="direct")
    ).run(small_loop, max_iterations=400, tol=1e-5)
    reference = solve_laplace_from_loop(small_grid, small_loop, method="direct")
    mae = float(np.mean(np.abs(exact.solution - reference)))
    outcome.end_to_end["solution_mae"] = mae
    outcome.attempted += 1
    if not (exact.converged and mae < 1e-3):
        outcome.failed += 1
        outcome.notes.append(f"FD-backed 8x8 solve: converged={exact.converged}, MAE {mae:.3g}")
    return outcome


def run_train_sdnet(ctx: Context) -> Outcome:
    epochs = int(TRAIN_EPOCHS_PER_S * ctx.seconds)
    dataset = subdomain_dataset(512)
    train, val = dataset.split(validation_fraction=0.125, seed=MODEL_SEED)
    model = make_sdnet(dataset.grid.boundary_size)
    config = TrainingConfig(
        epochs=epochs, batch_size=16, data_points_per_domain=32,
        collocation_points_per_domain=16, engine=True, seed=MODEL_SEED,
    )
    trainer = Trainer(model, config, train, val)
    boundaries, x, u = val.full_grid_batch(np.arange(len(val)))
    untrained_mae = _model_mae(model, boundaries, x, u)
    if ctx.traced:
        harness.wrap_method(trainer, "train_step", ctx.recorder, "bench.train.step")
        harness.wrap_method(trainer, "compute_gradients", ctx.recorder,
                            "bench.train.compute_gradients")
        harness.wrap_method(trainer, "apply_gradients", ctx.recorder,
                            "bench.train.apply_gradients")

    ctx.begin_window()
    history = trainer.fit()
    ctx.end_window()

    samples_per_epoch = (len(train) // config.batch_size) * config.batch_size
    throughput = harness.median_rate([samples_per_epoch] * epochs, history.epoch_times)
    mae = _model_mae(model, boundaries, x, u)
    outcome = Outcome(attempted=samples_per_epoch * epochs)
    outcome.end_to_end = {
        "throughput_per_s": throughput,
        "latency_p50_ms": 1e3 / throughput,
        "solution_mae": mae,
    }
    if not (np.isfinite(mae) and mae < untrained_mae):
        outcome.failed = outcome.attempted
        outcome.notes.append(f"validation MAE {mae:.3g} not below untrained {untrained_mae:.3g}")
    if ctx.traced:
        calls = ctx.calls
        outcome.per_layer = {
            "training.step_ms_p50": calls.p50_us("bench.train.step") / 1e3,
            "training.compute_gradients_ms_p50":
                calls.p50_us("bench.train.compute_gradients") / 1e3,
            "training.apply_gradients_ms_p50":
                calls.p50_us("bench.train.apply_gradients") / 1e3,
            "training.epoch_s_mean": float(np.mean(history.epoch_times)),
            "training.val_mse_final": history.validation_mse[-1],
        }
        outcome.layer_table = ctx.layer_table()
        from repro.training.ddp import DataParallelTrainer

        ddp = DataParallelTrainer(
            lambda: make_sdnet(dataset.grid.boundary_size), config, train, val
        ).run(2, epochs=2)
        outcome.per_layer["training.ddp_w2_epoch_s"] = float(
            np.mean(ddp[0].history.epoch_times))
    return outcome


def _model_mae(model, boundaries, x, u) -> float:
    from repro.autodiff import no_grad
    from repro.autodiff.tensor import Tensor

    with no_grad():
        prediction = model(Tensor(boundaries), Tensor(x)).data
    return float(np.mean(np.abs(prediction - u)))


WORKLOADS = {
    "serve_sdnet_open": run_serve_sdnet_open,
    "serve_sdnet_closed": run_serve_sdnet_closed,
    "serve_fd_burst": run_serve_fd_burst,
    "serve_dup_durable": run_serve_dup_durable,
    "mosaic_4096x": run_mosaic_4096x,
    "train_sdnet": run_train_sdnet,
}
