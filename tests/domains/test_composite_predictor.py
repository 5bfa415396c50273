"""End-to-end Mosaic Flow solves on composite domains.

The acceptance bar of the composite extension: an L-shaped domain solved by
the *unchanged* ``MosaicFlowPredictor`` agrees with the masked FD reference
solve to the same MAE tolerance class as the rectangular Fig.-1 benchmark,
and a rectangular ``CompositeDomain`` reproduces rectangular results exactly
(bit for bit).
"""

import numpy as np
import pytest

from repro.domains import (
    CompositeDomain,
    CompositeMosaicGeometry,
    composite_reference_solution,
)
from repro.mosaic import FDSubdomainSolver, MosaicFlowPredictor, MosaicGeometry
from repro.mosaic.core import ASSEMBLY_CHUNK, LatticeRun, Session
from repro.mosaic.predictor import initialize_lattice_field


def _harmonic(x, y):
    return x * x - y * y + 0.3 * x * y


def _solver(geometry):
    return FDSubdomainSolver(geometry.subdomain_grid(), method="direct")


@pytest.fixture(scope="module")
def l_geometry():
    return CompositeMosaicGeometry(9, 0.5, CompositeDomain.l_shape(6, 6, 3, 3))


@pytest.fixture(scope="module")
def l_run(l_geometry):
    loop = l_geometry.boundary_from_function(_harmonic)
    result = MosaicFlowPredictor(l_geometry, _solver(l_geometry)).run(
        loop, max_iterations=400, tol=1e-9
    )
    return loop, result


class TestLShapeEndToEnd:
    def test_converges_to_masked_reference(self, l_geometry, l_run):
        loop, result = l_run
        assert result.converged
        reference = composite_reference_solution(l_geometry, loop)
        valid = l_geometry.valid_mask()
        mae = float(np.mean(np.abs(result.solution[valid] - reference[valid])))
        # same tolerance class as the rectangular Fig.-1 benchmark (the FD
        # subdomain solver makes the predictor a Schwarz iteration, so the
        # error is iteration error only)
        assert mae < 1e-6

    def test_outside_domain_stays_zero(self, l_geometry, l_run):
        _, result = l_run
        invalid = ~l_geometry.valid_mask()
        assert (result.solution[invalid] == 0).all()
        assert (result.lattice_field[invalid] == 0).all()

    def test_dirichlet_data_exact(self, l_geometry, l_run):
        loop, result = l_run
        rows, cols = l_geometry.global_boundary_indices()
        np.testing.assert_array_equal(result.solution[rows, cols], loop)

    def test_maximum_principle_inside_domain(self, l_geometry, l_run):
        loop, result = l_run
        valid = l_geometry.valid_mask()
        assert result.solution[valid].min() >= loop.min() - 1e-8
        assert result.solution[valid].max() <= loop.max() + 1e-8

    def test_other_shapes_converge(self):
        for domain in (
            CompositeDomain.plus_shape(2, 2),
            CompositeDomain.t_shape(6, 2, 2, 2),
            CompositeDomain.from_rects([(0, 0, 2, 4), (1, 2, 3, 4)]),  # staircase
        ):
            geometry = CompositeMosaicGeometry(9, 0.5, domain)
            loop = geometry.boundary_from_function(_harmonic)
            result = MosaicFlowPredictor(geometry, _solver(geometry)).run(
                loop, max_iterations=400, tol=1e-8
            )
            assert result.converged
            reference = composite_reference_solution(geometry, loop)
            valid = geometry.valid_mask()
            mae = float(np.mean(np.abs(result.solution[valid] - reference[valid])))
            assert mae < 1e-5


class TestRectangularBitwiseParity:
    def test_run_matches_mosaic_geometry_exactly(self):
        box = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                             steps_x=4, steps_y=4)
        composite = CompositeMosaicGeometry(9, 0.5, CompositeDomain.rectangle(4, 4))
        loop = box.global_grid().boundary_from_function(_harmonic)
        np.testing.assert_array_equal(loop, composite.boundary_from_function(_harmonic))

        for init_mode in ("mean", "zero", "linear"):
            reference = MosaicFlowPredictor(
                box, _solver(box), init_mode=init_mode
            ).run(loop, max_iterations=80, tol=1e-7)
            result = MosaicFlowPredictor(
                composite, _solver(composite), init_mode=init_mode
            ).run(loop, max_iterations=80, tol=1e-7)
            assert result.iterations == reference.iterations
            assert result.converged == reference.converged
            np.testing.assert_array_equal(result.lattice_field, reference.lattice_field)
            np.testing.assert_array_equal(result.solution, reference.solution)

    def test_initialization_matches_exactly(self):
        box = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5,
                             steps_x=6, steps_y=4)
        composite = CompositeMosaicGeometry(9, 0.5, CompositeDomain.rectangle(6, 4))
        loop = box.global_grid().boundary_from_function(_harmonic)
        for mode in ("mean", "zero", "linear"):
            np.testing.assert_array_equal(
                initialize_lattice_field(box, loop, mode),
                initialize_lattice_field(composite, loop, mode),
            )


class TestCompositeInitialization:
    def test_linear_mode_rejected_off_rectangle(self, l_geometry):
        loop = l_geometry.boundary_from_function(_harmonic)
        with pytest.raises(ValueError, match="rectangular"):
            initialize_lattice_field(l_geometry, loop, "linear")

    def test_mean_fill_restricted_to_interior(self, l_geometry):
        loop = l_geometry.boundary_from_function(_harmonic)
        field = initialize_lattice_field(l_geometry, loop, "mean")
        assert (field[~l_geometry.valid_mask()] == 0).all()
        interior = l_geometry.interior_mask()
        np.testing.assert_allclose(field[interior], float(loop.mean()))



def _loops(geometry, requests):
    base = geometry.boundary_from_function(_harmonic)
    return np.stack([(1.0 + 0.5 * k) * base - 0.25 * k for k in range(requests)])


def _per_anchor_assembly(geometry, solver, field, loop):
    """Algorithm 2, lines 10-12, one anchor at a time: the assembly oracle."""

    m = geometry.subdomain_points
    loop_rows, loop_cols = geometry.boundary_loop_local_indices()
    inner_rows, inner_cols = geometry.interior_local_indices()
    points = geometry.interior_local_coordinates()
    total, counts = np.zeros(field.shape), np.zeros(field.shape)
    for anchor in geometry.anchors():
        row0, col0 = geometry.anchor_window(anchor)
        window = (slice(row0, row0 + m), slice(col0, col0 + m))
        boundary = field[window][loop_rows, loop_cols]
        total[window][inner_rows, inner_cols] += solver.predict(boundary[None, :], points)[0]
        counts[window][inner_rows, inner_cols] += 1
        # the loop lists each subdomain corner twice, and both samples count
        np.add.at(total[window], (loop_rows, loop_cols), boundary)
        np.add.at(counts[window], (loop_rows, loop_cols), 1)
    average = np.zeros(field.shape)
    average[counts > 0] = total[counts > 0] / counts[counts > 0]
    rows, cols = geometry.global_boundary_indices()
    average[rows, cols] = loop
    return average


def _run(sessions, solver):
    run = LatticeRun(sessions)
    predict = lambda boundaries, points, _sessions: solver.predict(boundaries, points)  # noqa: E731
    run.iterate(predict)
    return run.outcomes(predict)


SHAPES = {
    "l": CompositeDomain.l_shape(6, 6, 3, 3),
    "plus": CompositeDomain.plus_shape(2, 2),
    "t": CompositeDomain.t_shape(6, 2, 2, 2),
    "staircase": CompositeDomain.from_rects([(0, 0, 2, 4), (1, 2, 3, 4)]),
    "rectangle": CompositeDomain.rectangle(5, 3),
}


class TestDenseAssembly:
    """``LatticeRun.outcomes`` is the one dense assembly, composite domains included."""

    @pytest.mark.parametrize("requests", [1, 3])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_per_anchor_assembly(self, shape, requests):
        geometry = CompositeMosaicGeometry(9, 0.5, SHAPES[shape])
        solver = _solver(geometry)
        loops = _loops(geometry, requests)
        # different budgets: requests retire at different iterations
        session = Session(geometry, loops, tols=0.0, budgets=[3, 8, 13][:requests])
        (outcomes,) = _run([session], solver)
        assert [o.iterations for o in outcomes] == [3, 8, 13][:requests]
        for outcome, loop in zip(outcomes, loops):
            expected = _per_anchor_assembly(geometry, solver, outcome.lattice_field, loop)
            np.testing.assert_allclose(outcome.solution, expected, atol=1e-12, rtol=0)
            assert (outcome.solution[~geometry.valid_mask()] == 0).all()

    @pytest.mark.parametrize("requests", [1, 2])
    @pytest.mark.parametrize(
        "domain",
        [CompositeDomain.rectangle(24, 24), CompositeDomain.l_shape(30, 30, 15, 15)],
        ids=["rectangle", "l"],
    )
    def test_matches_per_anchor_assembly_across_chunks(self, domain, requests):
        geometry = CompositeMosaicGeometry(5, 0.5, domain)
        # more than two solver calls' worth of anchors per request
        assert len(geometry.anchors()) > 2 * ASSEMBLY_CHUNK
        solver = _solver(geometry)
        loops = _loops(geometry, requests)
        (outcomes,) = _run([Session(geometry, loops, tols=0.0, budgets=4)], solver)
        for outcome, loop in zip(outcomes, loops):
            expected = _per_anchor_assembly(geometry, solver, outcome.lattice_field, loop)
            np.testing.assert_allclose(outcome.solution, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("first", ["l", "plus", "rectangle"])
    def test_fused_sessions_assemble_like_separate_runs(self, first):
        order = [first] + [name for name in ("l", "plus", "rectangle") if name != first]
        geometries = [CompositeMosaicGeometry(9, 0.5, SHAPES[name]) for name in order]
        solver = _solver(geometries[0])
        sessions = [
            Session(geometry, _loops(geometry, 2), tols=1e-9, budgets=[5, 40])
            for geometry in geometries
        ]
        fused = _run(sessions, solver)
        for session, outcomes in zip(sessions, fused):
            (alone,) = _run([session], solver)
            for outcome, reference in zip(outcomes, alone):
                assert outcome.iterations == reference.iterations
                np.testing.assert_array_equal(outcome.lattice_field, reference.lattice_field)
                np.testing.assert_array_equal(outcome.solution, reference.solution)
