"""Request validation and canonicalization."""

import numpy as np
import pytest

from repro.mosaic import MosaicGeometry
from repro.pde import HARMONIC_FUNCTIONS
from repro.serving import RequestValidationError, SolveRequest


class TestValidation:
    def test_canonicalizes_boundary_to_float64(self, small_geometry):
        size = small_geometry.global_grid().boundary_size
        request = SolveRequest.create(small_geometry, list(range(size)))
        assert request.boundary_loop.dtype == np.float64
        assert request.boundary_loop.flags["C_CONTIGUOUS"]
        assert request.boundary_loop.shape == (size,)

    def test_rejects_wrong_length(self, small_geometry):
        with pytest.raises(RequestValidationError, match="length"):
            SolveRequest.create(small_geometry, np.zeros(5))

    def test_rejects_non_finite(self, small_geometry):
        size = small_geometry.global_grid().boundary_size
        loop = np.zeros(size)
        loop[3] = np.nan
        with pytest.raises(RequestValidationError, match="finite"):
            SolveRequest.create(small_geometry, loop)

    def test_rejects_bad_parameters(self, small_geometry):
        size = small_geometry.global_grid().boundary_size
        loop = np.zeros(size)
        with pytest.raises(RequestValidationError):
            SolveRequest.create(small_geometry, loop, tol=-1.0)
        with pytest.raises(RequestValidationError):
            SolveRequest.create(small_geometry, loop, max_iterations=0)
        with pytest.raises(RequestValidationError):
            SolveRequest.create(small_geometry, loop, init_mode="random")
        with pytest.raises(RequestValidationError):
            SolveRequest.create(small_geometry, loop, check_interval=0)
        with pytest.raises(RequestValidationError):
            SolveRequest.create("not a geometry", loop)

    def test_boundary_is_a_frozen_private_copy(self, small_geometry):
        size = small_geometry.global_grid().boundary_size
        caller_buffer = np.linspace(0.0, 1.0, size)
        request = SolveRequest.create(small_geometry, caller_buffer)
        caller_buffer *= 2.0  # caller reuses its buffer after submitting
        assert np.allclose(request.boundary_loop, np.linspace(0.0, 1.0, size))
        with pytest.raises(ValueError):
            request.boundary_loop[0] = 7.0  # canonical form is read-only

    def test_unique_request_ids(self, small_geometry):
        size = small_geometry.global_grid().boundary_size
        a = SolveRequest.create(small_geometry, np.zeros(size))
        b = SolveRequest.create(small_geometry, np.zeros(size))
        assert a.request_id != b.request_id

    def test_from_function_samples_boundary(self, small_geometry):
        request = SolveRequest.from_function(
            small_geometry, HARMONIC_FUNCTIONS["linear"]
        )
        grid = small_geometry.global_grid()
        expected = grid.boundary_from_function(HARMONIC_FUNCTIONS["linear"])
        assert np.allclose(request.boundary_loop, expected)


class TestPackageExports:
    def test_serving_names_reexported_at_top_level(self):
        import repro
        import repro.serving as serving

        assert repro.Server is serving.Server
        assert repro.SolveRequest is serving.SolveRequest
        assert repro.serving is serving
        with pytest.raises(AttributeError):
            repro.not_a_real_name

    def test_every_serving_module_defines_all(self):
        import importlib

        for module in ("api", "batcher", "cache", "compute",
                       "server", "stats"):
            mod = importlib.import_module(f"repro.serving.{module}")
            assert mod.__all__, module
            for name in mod.__all__:
                assert hasattr(mod, name)


class TestGrouping:
    def test_group_key_ignores_tolerance_and_budget(self, small_geometry):
        size = small_geometry.global_grid().boundary_size
        a = SolveRequest.create(small_geometry, np.zeros(size), tol=1e-4, max_iterations=10)
        b = SolveRequest.create(small_geometry, np.ones(size), tol=1e-9, max_iterations=500)
        assert a.group_key == b.group_key

    def test_group_key_separates_geometries_and_modes(self, small_geometry):
        other = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
        size_a = small_geometry.global_grid().boundary_size
        size_b = other.global_grid().boundary_size
        a = SolveRequest.create(small_geometry, np.zeros(size_a))
        b = SolveRequest.create(other, np.zeros(size_b))
        c = SolveRequest.create(small_geometry, np.zeros(size_a), init_mode="zero")
        assert a.group_key != b.group_key
        assert a.group_key != c.group_key
