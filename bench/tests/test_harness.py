"""Self-tests of the benchmark harness (no model training, a few seconds).

They check the instrument, not the program: that inputs are a function of
the seed, that reductions refuse what the sample cannot support, that the
open loop charges a stall to the requests that were due during it, and that
the timing subclasses neither change results nor miscount.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


# -- seeded inputs -------------------------------------------------------------


def _open_loop_inputs(seed: int) -> str:
    mix = workloads.RequestMix()
    rng = harness.stream_rng(seed, "serve_sdnet_open")
    bvps = mix.stream(rng, 200, duplicate_share=0.10)
    schedule = harness.poisson_schedule(rng, workloads.OPEN_RATE, 200)
    sha = hashlib.sha256()
    for geometry, loop in bvps:
        sha.update(bytes([geometry]) + loop.tobytes())
    sha.update(schedule.tobytes())
    return sha.hexdigest()


def test_same_seed_same_stream_and_schedule():
    assert _open_loop_inputs(7) == _open_loop_inputs(7)
    assert _open_loop_inputs(7) != _open_loop_inputs(8)


def test_streams_of_one_seed_are_independent():
    a = harness.stream_rng(3, "serve_sdnet_open").random(4)
    b = harness.stream_rng(3, "serve_sdnet_closed").random(4)
    assert not np.array_equal(a, b)


def test_duplicate_stream_shape():
    mix = workloads.RequestMix()
    rng = harness.stream_rng(0, "dup")
    hot = mix.draw(rng, 32)
    bvps = mix.stream(rng, 2000, duplicate_share=0.80, hot=hot)
    hot_ids = {id(loop) for _, loop in hot}
    share = sum(id(loop) in hot_ids for _, loop in bvps) / len(bvps)
    assert 0.75 < share < 0.85
    keys = {loop.tobytes() for _, loop in bvps}
    assert len(keys) < workloads.RequestStore().capacity   # eviction is out of scope


# -- reductions ----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(range(200), 95) == pytest.approx(189.05)
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(range(199), 95)
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(range(19), 50)
    assert harness.tail_percentile(560) == 95
    assert harness.tail_percentile(96) == 89
    harness.percentile(range(96), harness.tail_percentile(96))
    with pytest.raises(harness.TooFewSamples):
        harness.tail_percentile(19)


def test_segment_median_ignores_one_slow_segment():
    # 100 completions/s for 4 s, except that nothing completes in the third second.
    done = np.concatenate([np.arange(0, 2, 0.01), np.arange(3, 4, 0.01)])
    assert harness.segment_rate(done, 0.0, 4.0, segments=4) == pytest.approx(100.0)
    assert len(done) / 4.0 == pytest.approx(75.0)   # what ops/wall would have said
    assert harness.median_rate([16, 16, 16, 16], [2.0, 2.0, 8.0, 2.0]) == 8.0


# -- load drivers --------------------------------------------------------------


class FakeFuture:
    def __init__(self):
        self._callbacks = []
        self._done = False

    def add_done_callback(self, fn):
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def exception(self):
        return None

    def resolve(self):
        self._done = True
        for fn in self._callbacks:
            fn(self)


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    """No coordinated omission: one 200 ms stall makes ~20 requests late."""

    def submit(index):
        if index == 10:
            time.sleep(0.2)             # the server blocks its caller once
        future = FakeFuture()
        future.resolve()                # and otherwise answers at once
        return future

    due = np.arange(60) * 0.01
    log = harness.run_open_loop(submit, list(range(60)), due)
    assert log.count == 60 and log.failed == 0
    late = log.latency_ms > 20.0
    # Requests 10..~29 were due while the generator was blocked; measured
    # from their send time only request 10 would look slow.
    assert 15 <= np.count_nonzero(late) <= 25
    assert late[10] and late[20] and not late[5] and not late[50]
    assert np.count_nonzero((log.returned - log.sent) > 0.02) == 1
    assert np.percentile(log.generator_lag_ms, 95) > 10.0


def test_closed_loop_keeps_in_flight_and_stops_at_deadline():
    pending = []
    peak = 0
    lock = threading.Lock()

    def submit(item):
        nonlocal peak
        future = FakeFuture()
        with lock:
            pending.append(future)
            peak = max(peak, len(pending))
        return future

    def serve():
        while not stop.is_set():
            time.sleep(0.002)
            with lock:
                batch, pending[:] = list(pending), []
            for future in batch:
                future.resolve()

    stop = threading.Event()
    server = threading.Thread(target=serve)
    server.start()
    try:
        log = harness.run_closed_loop(submit, list(range(100_000)), 4, 0.3)
    finally:
        stop.set()
        server.join(timeout=5.0)
    assert not server.is_alive()
    assert peak <= 4
    assert 0 < log.count < 100_000 and log.failed == 0
    assert log.end - log.start == pytest.approx(0.3, abs=0.05)
    assert not np.isnan(log.done).any()


def test_failed_submit_counts_as_failed():
    def submit(item):
        raise RuntimeError("refused")

    log = harness.run_open_loop(submit, [0, 1, 2], [0.0, 0.0, 0.0])
    assert log.count == 3 and log.failed == 3 and len(log.latency_ms) == 0


# -- timing subclasses ---------------------------------------------------------


def test_timed_solver_forwards_bitwise_and_counts_exactly():
    geometry = workloads.RequestMix().geometries[0]
    grid = geometry.subdomain_grid()
    points = geometry.center_line_local_coordinates()
    rng = np.random.default_rng(0)
    recorder = harness.Recorder()
    plain = workloads.FDSubdomainSolver(grid, method="direct")
    timed = workloads.TimedFDSolver(grid, recorder)
    for rows in (1, 3, 5):
        boundaries = rng.normal(size=(rows, grid.boundary_size))
        assert (timed.predict(boundaries, points).tobytes()
                == plain.predict(boundaries, points).tobytes())
    calls = recorder.snapshot()
    assert calls.count("bench.solver.predict") == 3
    assert calls.rows("bench.solver.predict") == 9
    assert calls.seconds("bench.solver.predict") > 0.0
    recorder.reset()
    assert recorder.snapshot().count("bench.solver.predict") == 0


def test_timed_store_and_cache_forward_and_count():
    mix = workloads.RequestMix()
    (request,) = mix.requests(mix.draw(np.random.default_rng(1), 1))
    recorder = harness.Recorder()
    store, cache = workloads.TimedStore(recorder), workloads.TimedCache(recorder)
    claim = store.claim(request, waiter=None)
    again = store.claim(request, waiter=None)
    assert claim.owner and not again.owner and store.attached == 1
    assert cache.get(request) is None and cache.misses == 1
    calls = recorder.snapshot()
    assert calls.count("bench.store.claim") == 2 and calls.count("bench.cache.get") == 1


def test_wrap_method_times_calls_made_through_self():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    thing, recorder = Thing(), harness.Recorder()
    harness.wrap_method(thing, "inner", recorder, "inner")
    assert thing.outer() == 42
    assert recorder.snapshot().count("inner") == 1


# -- spans and layer table -----------------------------------------------------


def _span(name, start, end, children=(), thread=1, **attrs):
    return SimpleNamespace(name=name, start=start, end=end, children=list(children),
                           thread_id=thread, attrs=attrs)


def test_layer_table_self_time_and_unattributed():
    roots = [
        _span("serving.submit", 0.0, 4.0, request_id="r1", children=[
            _span("bench.solver.predict", 1.0, 3.0),
        ]),
        _span("serving.batch", 0.0, 10.0, thread=2),      # a worker thread
    ]
    spans = harness.flatten_spans(roots, epoch=0.0)
    assert [s["parent"] for s in spans] == [None, 0, None]
    assert spans[1]["request_id"] == "r1" and spans[2]["request_id"] is None
    table = harness.layer_table(spans, wall=10.0, driver_thread=1,
                                layer_of=workloads.layer_of)
    rows = {row["span"]: row for row in table}
    assert rows["serving.submit"]["busy_s"] == pytest.approx(2.0)      # 4 - 2 covered
    assert rows["bench.solver.predict"]["layer"] == "mosaic.solvers"
    assert rows["unattributed"]["busy_s"] == pytest.approx(6.0)        # driver thread only
    assert table[-1]["span"] == "unattributed"


# -- metric table, BENCHMARK.json, compare -------------------------------------


def test_benchmark_json_matches_the_metric_table_and_the_contract():
    with open(BENCH.parent / "BENCHMARK.json") as handle:
        written = json.load(handle)
    assert written == metrics.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in written["end_to_end"] + written["per_layer"] + written["workloads"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in written["end_to_end"] + written["per_layer"])
    assert 2 <= len(written["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in written["workloads"])
    assert 1 <= len(written["end_to_end"]) <= 16 and 1 <= len(written["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in written["end_to_end"])
    assert {"setup_s"} <= {m["name"] for m in written["end_to_end"]}
    assert set(workloads.WORKLOADS) == set(metrics.ALL)


def _record(**values):
    return {"seed": 0, "runs": [
        {"serve_sdnet_open": {"end_to_end": dict(run), "notes": []}} for run in values["runs"]
    ]}


def test_compare_verdicts():
    by_name = {m["name"]: m for m in metrics.END_TO_END}
    p50, thr = by_name["latency_p50_ms"], by_name["throughput_per_s"]
    over, under = 1.0 + p50["bound"] + 0.01, 1.0 + p50["bound"] - 0.01
    assert compare.verdict(p50, [20.0], [20.0 * under]) == "unchanged"
    assert compare.verdict(p50, [20.0], [20.0 * over]) == "regressed"
    assert compare.verdict(p50, [20.0], [20.0 * (2.0 - over)]) == "improved"
    assert compare.verdict(thr, [100.0], [100.0 * (2.0 - over)]) == "regressed"
    assert compare.verdict(thr, [100.0], [100.0 * over]) == "improved"
    assert compare.verdict(p50, [20.0], []) == "unresolved"
    assert compare.verdict(by_name["failed_share"], [0.0], [0.01]) == "regressed"
    assert compare.verdict(by_name["slo_miss_share"], [0.0], [0.005]) == "unchanged"
    noisy = [10.0, 14.0, 26.0, 30.0]                 # quartile spread wider than the bound
    assert compare.verdict(p50, noisy, [29.0, 29.5, 31.0, 28.0]) == "unresolved"
    assert compare.verdict(p50, noisy, [31.0, 32.0, 33.0, 31.5]) == "regressed"

    a = _record(runs=[{"latency_p50_ms": 20.0, "failed_share": 0.0}])
    b = _record(runs=[{"latency_p50_ms": 40.0, "failed_share": 0.0}])
    rows, bad = compare.compare(a, b)
    assert bad and {r["verdict"] for r in rows if r["metric"] == "latency_p50_ms"} == {"regressed"}
    rows, bad = compare.compare(a, a)
    assert not bad and {r["verdict"] for r in rows} == {"unchanged"}
    b["runs"][0]["serve_sdnet_open"]["notes"] = ["INVALID: generator lag"]
    rows, _ = compare.compare(a, b)
    assert {r["verdict"] for r in rows} == {"unresolved"}
