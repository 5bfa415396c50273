"""Serving composite-domain requests through the existing batched path.

Mirrors the rectangular parity guarantee of PR 1: a composite-domain request
submitted through ``Server.submit()`` (canonicalization, batching, worker
pool, fused runner) produces bit-for-bit the same solution as a standalone
``MosaicFlowPredictor.run`` on the same composite geometry.
"""

import numpy as np
import pytest

from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor
from repro.serving import (
    BatchPolicy,
    RequestValidationError,
    Server,
    SolutionCache,
    SolveRequest,
)


def _harmonic_mix(weights):
    def fn(x, y):
        return weights[0] * (x * x - y * y) + weights[1] * x * y + weights[2] * x

    return fn


@pytest.fixture(scope="module")
def l_geometry():
    return CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))


def _solver(geometry):
    return FDSubdomainSolver(geometry.subdomain_grid(), method="direct")


class TestCompositeRequests:
    def test_create_validates_composite_loop_length(self, l_geometry):
        with pytest.raises(RequestValidationError, match="boundary loop"):
            SolveRequest.create(l_geometry, np.zeros(7))
        request = SolveRequest.from_function(l_geometry, _harmonic_mix((1.0, 0.5, 0.0)))
        assert request.boundary_loop.shape == (l_geometry.global_boundary_size,)
        assert request.geometry is l_geometry

    def test_linear_init_rejected_for_composite(self, l_geometry):
        loop = np.zeros(l_geometry.global_boundary_size)
        with pytest.raises(RequestValidationError, match="linear"):
            SolveRequest.create(l_geometry, loop, init_mode="linear")

    def test_group_key_separates_shapes(self, l_geometry):
        other = CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 2))
        a = SolveRequest.create(l_geometry, np.zeros(l_geometry.global_boundary_size))
        b = SolveRequest.create(other, np.zeros(other.global_boundary_size))
        assert a.group_key != b.group_key


class TestCompositeServingParity:
    def test_submit_matches_standalone_predictor_bitwise(self, l_geometry, fake_clock):
        weights = [(1.0, 0.3, 0.0), (0.2, -1.0, 0.5), (-0.7, 0.1, 1.0)]
        server = Server(
            policy=BatchPolicy(max_batch_size=8, max_wait_seconds=1e9),
            cache=SolutionCache(capacity=16),
            clock=fake_clock,
        )
        requests = [
            SolveRequest.create(
                l_geometry,
                l_geometry.boundary_from_function(_harmonic_mix(w)),
                tol=1e-7,
                max_iterations=200,
            )
            for w in weights
        ]
        ids = [server.submit(r) for r in requests]
        results = server.drain()
        assert sorted(results) == sorted(ids)

        for request, request_id in zip(requests, ids):
            reference = MosaicFlowPredictor(l_geometry, _solver(l_geometry)).run(
                request.boundary_loop, max_iterations=200, tol=1e-7
            )
            served = results[request_id]
            assert served.iterations == reference.iterations
            assert served.converged == reference.converged
            np.testing.assert_array_equal(served.solution, reference.solution)

    def test_cache_hits_on_repeated_composite_request(self, l_geometry, fake_clock):
        server = Server(
            policy=BatchPolicy(max_batch_size=1, max_wait_seconds=1e9),
            cache=SolutionCache(capacity=16),
            clock=fake_clock,
        )
        loop = l_geometry.boundary_from_function(_harmonic_mix((1.0, 0.0, 0.0)))
        first = server.submit(SolveRequest.create(l_geometry, loop, max_iterations=60))
        again = server.submit(SolveRequest.create(l_geometry, loop, max_iterations=60))
        results = server.drain()
        assert server.stats.cache_hits == 1
        assert results[again].cache_hit
        np.testing.assert_array_equal(results[first].solution, results[again].solution)

    def test_mixed_rectangular_and_composite_groups(self, small_geometry, l_geometry,
                                                    fake_clock):
        server = Server(
            policy=BatchPolicy(max_batch_size=4, max_wait_seconds=1e9),
            cache=SolutionCache(capacity=16),
            clock=fake_clock,
        )
        ids = []
        for geometry in (small_geometry, l_geometry, small_geometry, l_geometry):
            ids.append(
                server.submit(
                    SolveRequest.from_function(
                        geometry, _harmonic_mix((1.0, 0.2, 0.1)), max_iterations=60
                    )
                )
            )
        results = server.drain()
        assert len(results) == 4
        assert server.stats.fused_runs == 2  # one per geometry group
