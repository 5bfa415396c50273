"""Compiled vs eager Taylor-mode physics loss (PR 5 tentpole acceptance).

Three measurements back the jet-compiler acceptance criteria:

* ``test_physics_loss_step_speedup`` — ``laplace_residual_loss`` forward
  **plus** parameter backward at training batch sizes, eager tape vs the
  compiled jet program (``PinnLoss(engine=True)``).  The compiled path must
  be at least 2x faster (geometric mean over the training sizes) while
  producing bitwise-identical loss values and gradients, which the run
  asserts per batch size before timing.
* ``test_bucketed_plans_reused_across_batch_sizes`` — ragged collocation
  batches (>= 3 distinct sizes in one power-of-two bucket) must share one
  template: exactly three probe traces, no per-shape re-tracing.
* the JSON artifact records the per-size timings plus the residual-only
  (no-backward) compiled speedup for the Laplacian ablation path.

Timing JSON is written to ``test-artifacts/engine/`` and uploaded by the CI
engine-smoke job.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.autodiff import Tensor, grad
from repro.pde.losses import PinnLoss, laplace_residual_loss
from repro.utils import seeded_rng

from _bench_utils import print_table

ARTIFACT_DIR = Path(__file__).parents[1] / "test-artifacts" / "engine"

#: collocation batch sizes around the harness training configuration
#: (benchmarks/conftest.py trains with batch_size=8 on the scaled-down
#: subdomain, like every other benchmark in the suite): half, one and two
#: training batches
TRAINING_BATCH_SIZES = (4, 8, 16)
COLLOCATION_POINTS = 16


def _time_call(fn, repeats: int = 30) -> float:
    """Best-of-``repeats`` wall time (robust to scheduler noise)."""

    fn()  # warm-up (traces / plan builds / autodiff caches)
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def _write_artifact(name: str, payload: dict) -> None:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    with open(ARTIFACT_DIR / name, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def test_physics_loss_step_speedup(bench_trained_sdnet):
    model = bench_trained_sdnet
    params = model.parameters()
    eager_loss = PinnLoss()
    engine_loss = PinnLoss(engine=True)
    rng = seeded_rng(2026)

    rows, timings = [], {}
    for batch in TRAINING_BATCH_SIZES:
        g = rng.normal(size=(batch, model.boundary_size))
        x = rng.uniform(size=(batch, COLLOCATION_POINTS, 2)) * 0.5

        # parity gate: the compiled step must be bitwise before it is timed
        value_e, grads_e = eager_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        value_c, grads_c = engine_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        assert value_e == value_c, f"loss value drifted at batch {batch}"
        for index, (a, b) in enumerate(zip(grads_e, grads_c)):
            assert a.tobytes() == b.tobytes(), (
                f"parameter gradient {index} drifted at batch {batch}"
            )

        eager_s = _time_call(
            lambda: eager_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        )
        compiled_s = _time_call(
            lambda: engine_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        )
        speedup = eager_s / compiled_s
        timings[batch] = {
            "eager_seconds": eager_s,
            "compiled_seconds": compiled_s,
            "speedup": speedup,
        }
        rows.append(
            [batch, f"{eager_s * 1e3:.2f}ms", f"{compiled_s * 1e3:.2f}ms",
             f"{speedup:.2f}x", "yes"]
        )
    print_table(
        "Jet engine: eager vs compiled physics loss (forward+backward)",
        ["batch", "eager", "compiled", "speedup", "bitwise"],
        rows,
    )

    # residual-only path (no parameter backward): the Laplacian ablation
    # benchmark's workload, reported for the artifact
    from repro.engine import compile_value_and_grad  # noqa: F401  (documented entry)
    g = rng.normal(size=(16, model.boundary_size))
    x = rng.uniform(size=(16, COLLOCATION_POINTS, 2)) * 0.5

    def eager_residual():
        loss = laplace_residual_loss(model, Tensor(g), Tensor(x), method="taylor")
        grad(1.0 * loss, params)

    residual_eager = _time_call(eager_residual)

    speedups = [timings[b]["speedup"] for b in TRAINING_BATCH_SIZES]
    geomean = float(np.exp(np.mean(np.log(speedups))))
    _write_artifact(
        "taylor_engine.json",
        {
            "batch_timings": {str(k): v for k, v in timings.items()},
            "training_batch_sizes": list(TRAINING_BATCH_SIZES),
            "collocation_points": COLLOCATION_POINTS,
            "geomean_speedup": geomean,
            "eager_reference_seconds": residual_eager,
        },
    )
    assert geomean >= 2.0, (
        f"compiled physics loss is only {geomean:.2f}x faster than eager at "
        f"training batch sizes {TRAINING_BATCH_SIZES} (need >= 2x)"
    )


def test_bucketed_plans_reused_across_batch_sizes(bench_trained_sdnet):
    """Ragged collocation batches reuse one bucket template (no retracing)."""

    model = bench_trained_sdnet
    engine_loss = PinnLoss(engine=True)
    rng = seeded_rng(7)
    batch_sizes = (17, 23, 29, 32)  # one capacity-32 bucket
    for batch in batch_sizes:
        g = rng.normal(size=(batch, model.boundary_size))
        x = rng.uniform(size=(batch, COLLOCATION_POINTS, 2)) * 0.5
        value_c, grads_c = engine_loss.pde_term_and_grads(model, Tensor(g), Tensor(x))
        value_e, grads_e = PinnLoss().pde_term_and_grads(model, Tensor(g), Tensor(x))
        assert value_c == value_e
        for a, b in zip(grads_c, grads_e):
            assert a.tobytes() == b.tobytes()
    program = engine_loss._program_for(model, "pde")
    stats = program.stats
    assert stats.bucket_templates == 1
    assert stats.traces == 3, "bucketed plans must not re-trace per batch size"
    assert stats.calls == len(batch_sizes)
    _write_artifact(
        "taylor_engine_bucketing.json",
        {"batch_sizes": list(batch_sizes), **stats.as_dict()},
    )
