"""Memory accountant: gauges, global enable/disable, instrumented-site balance."""

import numpy as np

from repro.obs import (
    MemoryAccountant,
    disable_memory_accounting,
    enable_memory_accounting,
    get_accountant,
)
from repro.obs import memory as obs_memory
from repro.obs.metrics import MetricsRegistry


class TestAccountant:
    def test_live_peak_and_allocated(self):
        acct = MemoryAccountant()
        acct.add("a", 100)
        acct.add("a", 50)
        acct.sub("a", 120)
        assert acct.live_bytes("a") == 30
        assert acct.peak_bytes("a") == 150
        assert acct.allocated_bytes("a") == 150
        assert acct.event_count() == 3

    def test_totals_sum_over_owners(self):
        acct = MemoryAccountant()
        acct.add("a", 100)
        acct.add("b", 200)
        acct.sub("b", 50)
        assert acct.live_bytes() == 250
        assert acct.peak_bytes() == 300
        assert acct.owners() == ["a", "b"]

    def test_sub_clamps_at_zero(self):
        # Bytes charged while accounting was off must not drive gauges
        # negative when they are later released with accounting on.
        acct = MemoryAccountant()
        acct.sub("a", 500)
        assert acct.live_bytes("a") == 0

    def test_bytes_per_request(self):
        acct = MemoryAccountant()
        acct.add("a", 1000)
        assert acct.bytes_per_request(4) == 250.0
        assert acct.bytes_per_request(0) == 0.0

    def test_snapshot_shape(self):
        acct = MemoryAccountant()
        acct.add("x", 10)
        snap = acct.snapshot()
        assert snap["total_live_bytes"] == 10
        assert snap["owners"]["x"]["allocs"] == 1
        assert set(snap["owners"]["x"]) == {
            "live_bytes", "peak_bytes", "allocated_bytes", "freed_bytes",
            "allocs", "frees",
        }

    def test_publish_uses_owner_labels(self):
        acct = MemoryAccountant()
        acct.add("engine.plans", 64)
        registry = MetricsRegistry()
        acct.publish(registry)
        snap = registry.snapshot()
        entry = snap['memory.live_bytes{owner=engine.plans}']
        assert entry["value"] == 64
        assert entry["labels"] == {"owner": "engine.plans"}

    def test_report_renders(self):
        acct = MemoryAccountant()
        acct.add("a", 1)
        assert "memory accounting" in acct.report()
        assert "a" in acct.report()


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert get_accountant() is None
        obs_memory.add("a", 100)  # must be a no-op, not an error
        obs_memory.sub("a", 100)

    def test_enable_routes_module_functions(self):
        acct = enable_memory_accounting()
        assert get_accountant() is acct
        obs_memory.add("a", 7)
        assert acct.live_bytes("a") == 7
        disable_memory_accounting()
        obs_memory.add("a", 7)
        assert acct.live_bytes("a") == 7  # unchanged once disabled


class TestInstrumentedSites:
    """The built-in add/sub sites must balance: live bytes return to zero."""

    @staticmethod
    def _plan():
        from repro.engine.runtime import ExecutionPlan
        from repro.engine.trace import trace
        from repro.nn import MLP

        mlp = MLP([3, 8, 1], rng=np.random.default_rng(0))
        return ExecutionPlan(trace(mlp, np.zeros((4, 3))))

    def test_engine_plan_cache_balances(self):
        from repro.engine.runtime import PlanCache

        acct = enable_memory_accounting()
        cache = PlanCache(max_bytes=None)
        cache.put("k", self._plan())  # buffers are charged at construction
        assert acct.live_bytes(obs_memory.ENGINE_PLAN_BUFFERS) > 0
        cache.clear()
        assert acct.live_bytes(obs_memory.ENGINE_PLAN_BUFFERS) == 0

    def test_plan_cache_eviction_releases(self):
        from repro.engine.runtime import PlanCache

        acct = enable_memory_accounting()
        cache = PlanCache(max_bytes=1)  # evicts everything but the newest
        for key in ("a", "b", "c"):
            cache.put(key, self._plan())
        assert len(cache) == 1
        assert acct.live_bytes(obs_memory.ENGINE_PLAN_BUFFERS) == cache.bytes_in_use
        cache.clear()
        assert acct.live_bytes(obs_memory.ENGINE_PLAN_BUFFERS) == 0

    def test_solution_cache_balances(self, small_geometry):
        from repro.serving.api import SolveRequest
        from repro.serving.cache import CachedSolution, SolutionCache

        acct = enable_memory_accounting()
        cache = SolutionCache(capacity=2)
        n = small_geometry.global_boundary_size
        rng = np.random.default_rng(0)
        for i in range(4):  # 2 evictions
            request = SolveRequest.create(
                small_geometry, rng.normal(size=n), request_id=f"r{i}"
            )
            entry = CachedSolution(
                solution=np.zeros((5, 5)), iterations=1, converged=True
            )
            cache.put(request, entry)
        assert acct.live_bytes(obs_memory.SOLUTION_CACHE) == 2 * entry.nbytes
        cache.clear()
        assert acct.live_bytes(obs_memory.SOLUTION_CACHE) == 0
