"""Solution cache (LRU + quantization) and dynamic batcher policies."""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.mosaic import MosaicGeometry
from repro.serving import (
    BatchPolicy,
    CachedSolution,
    DynamicBatcher,
    Server,
    SolutionCache,
    SolveRequest,
)


def _request(geometry, value=0.0, **kwargs):
    size = geometry.global_grid().boundary_size
    return SolveRequest.create(geometry, np.full(size, value), **kwargs)


def _entry(value=1.0):
    return CachedSolution(solution=np.full((3, 3), value), iterations=7, converged=True)


class _StallingEntries(OrderedDict):
    """Entries whose first lookup of ``key`` stalls after finding it.

    The stall lasts until an eviction (a racing ``put``) or 0.5 s, which
    puts that eviction between the lookup and the LRU refresh of a ``get``
    whenever the cache lets it in there.
    """

    def __init__(self, entries, key):
        super().__init__(entries)
        self.key, self.arrived, self.evicted = key, threading.Event(), threading.Event()

    def get(self, key, default=None):
        entry = super().get(key, default)
        if key == self.key and not self.arrived.is_set():
            self.arrived.set()
            self.evicted.wait(0.5)
        return entry

    def popitem(self, last=True):
        item = super().popitem(last)
        self.evicted.set()
        return item


class TestSolutionCache:
    def test_miss_then_hit(self, small_geometry):
        cache = SolutionCache(capacity=4)
        request = _request(small_geometry, 0.5)
        assert cache.get(request) is None
        cache.put(request, _entry())
        hit = cache.get(_request(small_geometry, 0.5))
        assert hit is not None and hit.iterations == 7
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_near_duplicate_hits_through_quantization(self, small_geometry):
        cache = SolutionCache(capacity=4, decimals=6)
        cache.put(_request(small_geometry, 0.5), _entry())
        assert cache.get(_request(small_geometry, 0.5 + 1e-9)) is not None
        assert cache.get(_request(small_geometry, 0.5 + 1e-3)) is None

    def test_key_separates_solve_parameters(self, small_geometry):
        cache = SolutionCache(capacity=8)
        cache.put(_request(small_geometry, 0.5, tol=1e-6), _entry())
        assert cache.get(_request(small_geometry, 0.5, tol=1e-9)) is None
        assert cache.get(_request(small_geometry, 0.5, max_iterations=7)) is None
        assert cache.get(_request(small_geometry, 0.5, init_mode="zero")) is None
        other = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=4, steps_y=4)
        assert cache.get(_request(other, 0.5, tol=1e-6)) is not None  # equal geometry

    def test_lru_eviction_order(self, small_geometry):
        cache = SolutionCache(capacity=2)
        first = _request(small_geometry, 1.0)
        second = _request(small_geometry, 2.0)
        cache.put(first, _entry(1))
        cache.put(second, _entry(2))
        cache.get(first)                      # refresh: second is now LRU
        cache.put(_request(small_geometry, 3.0), _entry(3))
        assert cache.evictions == 1
        assert cache.get(_request(small_geometry, 2.0)) is None
        assert cache.get(_request(small_geometry, 1.0)) is not None

    def test_put_evicting_mid_get_waits_for_the_get(self, small_geometry):
        cache = SolutionCache(capacity=1)
        first = _request(small_geometry, 1.0)
        cache.put(first, _entry(1))
        entries = _StallingEntries(cache._entries, cache.key_for(first))
        cache._entries = entries
        hits, errors = [], []

        def lookup():
            try:
                hits.append(cache.get(_request(small_geometry, 1.0)))
            except Exception as exc:
                errors.append(exc)

        reader = threading.Thread(target=lookup)
        reader.start()
        assert entries.arrived.wait(5.0)
        # The racing put evicts the entry the stalled get has just found.
        cache.put(_request(small_geometry, 2.0), _entry(2))
        reader.join(5.0)
        assert errors == []
        assert hits[0].iterations == 7 and cache.hits == 1
        assert len(cache) == 1 and cache.evictions == 1
        assert cache.get(_request(small_geometry, 2.0)) is not None

    def test_concurrent_gets_and_puts_lose_no_update(self, small_geometry):
        cache = SolutionCache(capacity=3)
        requests = [_request(small_geometry, float(v)) for v in range(6)]
        gets, errors = 400, []

        def hammer(offset):
            try:
                for step in range(gets):
                    request = requests[(offset + step) % len(requests)]
                    if cache.get(request) is None:
                        cache.put(request, _entry(offset))
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits + cache.misses == 6 * gets
        assert len(cache) == 3 and cache.evictions <= cache.misses - 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SolutionCache(capacity=0)
        with pytest.raises(ValueError):
            SolutionCache(decimals=-1)


class TestDynamicBatcher:
    def test_releases_on_full_batch(self, small_geometry, fake_clock):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=3, max_wait_seconds=100.0), clock=fake_clock
        )
        released = []
        for value in range(5):
            released += batcher.enqueue(_request(small_geometry, value))
        assert len(released) == 1 and len(released[0]) == 3
        assert batcher.queue_depth == 2

    def test_releases_on_deadline(self, small_geometry, fake_clock):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=100, max_wait_seconds=1.0), clock=fake_clock
        )
        batcher.enqueue(_request(small_geometry, 1.0))
        fake_clock.advance(0.5)
        batcher.enqueue(_request(small_geometry, 2.0))
        assert batcher.poll() == []
        fake_clock.advance(0.6)  # oldest has now waited 1.1s
        released = batcher.poll()
        assert len(released) == 1 and len(released[0]) == 2
        assert batcher.queue_depth == 0

    def test_groups_by_geometry(self, small_geometry, fake_clock):
        other = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=2, max_wait_seconds=100.0), clock=fake_clock
        )
        batcher.enqueue(_request(small_geometry, 1.0))
        batcher.enqueue(_request(other, 1.0))
        assert batcher.num_groups == 2
        released = batcher.enqueue(_request(small_geometry, 2.0))
        assert len(released) == 1
        assert all(r.geometry == small_geometry for r in released[0].requests)

    def test_flush_releases_everything(self, small_geometry, fake_clock):
        other = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=10, max_wait_seconds=100.0), clock=fake_clock
        )
        for value in range(3):
            batcher.enqueue(_request(small_geometry, value))
        batcher.enqueue(_request(other, 0.0))
        released = batcher.flush()
        assert sorted(len(b) for b in released) == [1, 3]
        assert batcher.queue_depth == 0 and batcher.num_groups == 0

    def test_flush_keys_releases_named_groups_in_queue_order(self, small_geometry, fake_clock):
        geometries = [
            MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=steps, steps_y=4)
            for steps in (4, 6, 8)
        ]
        batcher = DynamicBatcher(
            BatchPolicy(max_batch_size=10, max_wait_seconds=100.0), clock=fake_clock
        )
        for geometry in geometries:
            batcher.enqueue(_request(geometry, 0.0))
            batcher.enqueue(_request(geometry, 1.0))
        first, second, third = batcher.groups()
        released = batcher.flush("co_release", keys={third, first})
        assert [batch.group_key for batch in released] == [first, third]
        assert [len(batch) for batch in released] == [2, 2]
        assert all(batch.reason == "co_release" for batch in released)
        assert batcher.groups() == [second] and batcher.queue_depth == 2
        assert batcher.flush(keys=set()) == []
        assert batcher.groups() == [second]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_seconds=-1.0)


class TestSharedCache:
    def test_submit_survives_an_eviction_between_lookup_and_refresh(
        self, small_geometry, harmonic_loops, fake_clock
    ):
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=SolutionCache(capacity=1), clock=fake_clock,
        )
        loop, other = harmonic_loops(2, seed=21)
        server.submit(SolveRequest.create(small_geometry, loop, max_iterations=30))
        server.drain()
        # Distinct store key, same cache key: answered by the cache lookup.
        twin = loop + 1e-13
        entries = _StallingEntries(
            server.cache._entries,
            server.cache.key_for(SolveRequest.create(small_geometry, twin, max_iterations=30)),
        )
        server.cache._entries = entries
        futures, errors = [], []

        def submit():
            try:
                futures.append(server.submit_async(
                    SolveRequest.create(small_geometry, twin, max_iterations=30)))
            except Exception as exc:
                errors.append(exc)

        submitter = threading.Thread(target=submit)
        submitter.start()
        assert entries.arrived.wait(5.0)
        # What a solve worker's postprocess does when another request lands.
        server.cache.put(
            SolveRequest.create(small_geometry, other, max_iterations=30), _entry(2))
        submitter.join(5.0)
        assert errors == []
        assert futures[0].result(timeout=5.0).cache_hit
        again = server.submit_async(SolveRequest.create(small_geometry, twin, max_iterations=30))
        server.drain()
        assert again.done() and again.result().cache_hit
        assert np.array_equal(again.result().solution, futures[0].result().solution)
        assert server.store.in_flight == 0
