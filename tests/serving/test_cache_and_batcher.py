"""Solution cache (LRU + quantization) and dynamic batcher policies."""

import numpy as np
import pytest

from repro.mosaic import MosaicGeometry
from repro.serving import (
    BatchPolicy,
    CachedSolution,
    DynamicBatcher,
    SolutionCache,
    SolveRequest,
)


def _request(geometry, value=0.0, **kwargs):
    size = geometry.global_grid().boundary_size
    return SolveRequest.create(geometry, np.full(size, value), **kwargs)


def _entry(value=1.0):
    return CachedSolution(solution=np.full((3, 3), value), iterations=7, converged=True)


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
