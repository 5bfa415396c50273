"""Single-layer probes of a traced run.

Short timed loops over one layer each, on fixed inputs that do not depend on
the workload: the same probe reads the same in every workload's traced run,
so a change in one of them is a change in that layer.  They run after the
timed window and the correctness check.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autodiff import no_grad
from repro.autodiff.tensor import Tensor
from repro.data.dataset import BatchIterator
from repro.domains import CompositeDomain, CompositeMosaicGeometry
from repro.engine import compile_module
from repro.fd import Grid2D, solve_laplace_from_loop
from repro.fd.discretize import assemble_poisson
from repro.mosaic import MosaicGeometry
from repro.training import Trainer, TrainingConfig

from workloads import (
    MODEL_SEED,
    SUBDOMAIN_EXTENT,
    SUBDOMAIN_POINTS,
    make_sdnet,
    subdomain_dataset,
)

FORWARD_ROWS = 32
FORWARD_CALLS = 200


def _median_seconds(fn, repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - tic)
    return float(np.median(samples))


def layer_probes() -> dict:
    """Per-layer probe metrics, by name."""

    rng = np.random.default_rng(MODEL_SEED)
    layers = {}

    # fd: one subdomain solve (assemble + factorise + solve) and assembly alone
    grid = Grid2D(SUBDOMAIN_POINTS, SUBDOMAIN_POINTS,
                  extent=(SUBDOMAIN_EXTENT, SUBDOMAIN_EXTENT))
    loop = rng.normal(size=grid.boundary_size)
    boundary_field = grid.insert_boundary(loop)
    layers["fd.subdomain_solve_us"] = 1e6 * _median_seconds(
        lambda: solve_laplace_from_loop(grid, loop, method="direct"), 200)
    layers["fd.assemble_us"] = 1e6 * _median_seconds(
        lambda: assemble_poisson(grid, 0.0, boundary_field), 200)

    # models / engine: SDNet forward at 32 rows x centre-line query points
    model = make_sdnet(grid.boundary_size)
    points = MosaicGeometry(
        SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, steps_x=4, steps_y=4
    ).center_line_local_coordinates()
    g = Tensor(rng.normal(size=(FORWARD_ROWS, grid.boundary_size)))
    x = Tensor(np.broadcast_to(points, (FORWARD_ROWS,) + points.shape).copy())
    with no_grad():
        eager = _median_seconds(lambda: model(g, x), FORWARD_CALLS)
        compiled_module = compile_module(model)
        tic = time.perf_counter()
        compiled_module(g, x)
        layers["engine.compile_s"] = time.perf_counter() - tic
        compiled = _median_seconds(lambda: compiled_module(g, x), FORWARD_CALLS)
    layers["models.eager_forward_us_b32"] = 1e6 * eager
    layers["engine.compiled_forward_us_b32"] = 1e6 * compiled
    layers["engine.forward_speedup_b32"] = eager / compiled
    layers["engine.plan_bytes"] = compiled_module.stats.plan_bytes

    # autodiff / engine.jet: loss forward + backward at the training batch
    tic = time.perf_counter()
    dataset = subdomain_dataset(256)
    layers["data.generate_dataset_s"] = time.perf_counter() - tic
    batch = next(iter(BatchIterator(
        dataset, batch_size=16, data_points_per_domain=32,
        collocation_points_per_domain=16, seed=MODEL_SEED,
    )))
    for name, engine in (("engine.jet_step_ms", True), ("autodiff.eager_step_ms", False)):
        trainer = Trainer(model, TrainingConfig(
            batch_size=16, data_points_per_domain=32,
            collocation_points_per_domain=16, engine=engine), dataset)
        layers[name] = 1e3 * _median_seconds(
            lambda: trainer.compute_gradients(batch), 20)

    # domains: building the L-shape geometry and sampling its boundary loop
    domain = CompositeDomain.l_shape(6, 6, 3, 3)

    def build():
        geometry = CompositeMosaicGeometry(SUBDOMAIN_POINTS, SUBDOMAIN_EXTENT, domain)
        geometry.boundary_from_function(lambda px, py: px + py)
        return geometry

    layers["domains.l_shape_build_ms"] = 1e3 * _median_seconds(build, 20)
    geometry = build()
    layers["domains.l_shape_anchor_share"] = (
        len(geometry.anchors()) / len(geometry.box.anchors()))

    return layers
