"""Compiled loss-and-gradient (jet) programs: the engine in the training loop.

PR 3's :class:`~repro.engine.runtime.CompiledModule` compiles *inference*
forward passes.  The training hot path is different: the physics loss
evaluates second directional derivatives of the network (the Taylor-mode
Laplacian) at thousands of collocation points, then differentiates the
result with respect to the parameters.  Eagerly that means building a tape
over the jet propagation and walking it backwards, paying per-op Python
dispatch, closure allocation and fresh array allocations twice per step.

The key observation is that the *entire* computation — the stacked
Taylor-jet forward of :func:`~repro.autodiff.taylor.taylor_seed_directions`
**and** the reverse sweep of :func:`repro.autodiff.grad` — is expressed in
the primitive operations of :mod:`repro.autodiff.ops`: every VJP is written
in terms of other primitives.  So a single :func:`~repro.engine.trace.trace_program`
call with gradient recording enabled records the forward *and* the
hand-derived backward into one static graph, whose outputs are the loss
value and every parameter gradient.  That graph then goes through the
training pass pipeline (:data:`~repro.engine.passes.TRAINING_PASSES`:
mutation-safe constant folding, Faà di Bruno jet fusion, VJP-chain fusion,
DCE) and executes through preallocated plans — bitwise identical to the
eager tape, with no tape.

:class:`CompiledValueAndGrad` manages the resulting programs across input
shapes: collocation batches vary per step, so plans are **bucketed** over
the batch dimension (:mod:`repro.engine.bucketing`) — one template per
power-of-two capacity, specialized by view to any smaller batch — with a
per-thread byte-budgeted :class:`~repro.engine.runtime.PlanCache` on top.
In-place parameter updates (every optimizer in :mod:`repro.optim`) flow
into the compiled program through aliasing constants, so no re-tracing
happens between training steps.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import functional
from ..autodiff.tensor import DEFAULT_DTYPE, Tensor, enable_grad
from ..nn.module import Module
from .bucketing import bucket_capacity
from .graph import Graph
from .passes import TRAINING_PASSES, optimize
from .runtime import CompiledProgram, EngineStats
from .trace import TraceError, trace_program

__all__ = ["JetStats", "CompiledValueAndGrad", "compile_value_and_grad"]

#: the counters of a :class:`CompiledValueAndGrad` are the engine's
JetStats = EngineStats


class CompiledValueAndGrad(CompiledProgram):
    """Compile ``fn`` plus its parameter gradients into one static program.

    Parameters
    ----------
    fn:
        ``fn(*tensors) -> Tensor`` returning a scalar loss, built from
        :mod:`repro.autodiff.ops` primitives (e.g. a closure over
        ``laplace_residual_loss``).  Value-dependent Python control flow is
        baked in at trace time, exactly as for :func:`~repro.engine.trace.trace`.
    module:
        The module owning the trainable parameters.  Gradients are returned
        for ``module.parameters()``, in that order; captured parameter
        constants alias the parameter storage so in-place optimizer updates
        flow into the program without re-tracing (call :meth:`retrace`
        after wholesale parameter *replacement*).
    grad_transform:
        Optional ``Tensor -> Tensor`` applied to the loss before the
        reverse sweep (e.g. PDE-loss weighting); the returned *value* is
        always the untransformed loss.
    passes:
        Pass pipeline; defaults to the mutation-safe
        :data:`~repro.engine.passes.TRAINING_PASSES`.
    bucketing:
        Reuse plans across batch sizes through power-of-two bucketed
        templates (axis 0 of every input is treated as the batch).  Shapes
        the template machinery cannot unify fall back to exact-shape plans
        automatically.
    max_plan_bytes:
        Per-thread plan-cache memory budget (see
        :class:`~repro.engine.runtime.PlanCache`).
    validate:
        Check each newly built plan bitwise against an eager evaluation the
        first time every (plan, batch-size) pair runs.
    profile:
        Opt into per-kernel profiling: every executed plan step is timed and
        attributed to its op in :attr:`profiler`
        (:class:`~repro.obs.profile.KernelProfiler`), together with
        plan-build/specialization/eviction events.  Results stay bitwise
        identical; see :meth:`kernel_report`.

    Calling the object returns ``(loss, grads)`` with ``loss`` a 0-d numpy
    array and ``grads`` a list of arrays aligned with
    ``module.parameters()`` — bitwise identical to the eager tape.
    """

    def __init__(
        self,
        fn,
        module: Module,
        grad_transform=None,
        passes=None,
        bucketing: bool = True,
        max_plan_bytes: int | None = None,
        validate: bool = False,
        copy_outputs: bool = True,
        profile: bool = False,
    ):
        super().__init__(
            TRAINING_PASSES if passes is None else passes,
            max_plan_bytes, validate, copy_outputs, profile,
        )
        self.fn = fn
        self.module = module
        self.grad_transform = grad_transform
        self.bucketing = bool(bucketing)
        self.params = module.parameters()

    # -- the traced program ------------------------------------------------------

    def _program(self, *inputs):
        value = self.fn(*inputs)
        if not isinstance(value, Tensor):
            raise TraceError(
                f"loss callable returned {type(value).__name__}; expected Tensor"
            )
        target = value if self.grad_transform is None else self.grad_transform(value)
        grads = functional.grad(target, self.params, create_graph=False)
        return (value, *grads)

    def _trace(self, arrays) -> Graph:
        graph = trace_program(self._program, arrays, params=self.module, grad=True)
        return optimize(graph, self.passes)

    # -- eager reference (validation and tests) ----------------------------------

    def eager(self, *inputs):
        """Run the identical program eagerly; returns ``(loss, grads)``."""

        tensors = [
            x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))
            for x in inputs
        ]
        with enable_grad():
            outputs = self._program(*tensors)
        return outputs[0].data, [g.data for g in outputs[1:]]

    _divergence = "compiled loss program diverges from the eager tape"

    def _capacity(self, rows: int) -> int | None:
        return bucket_capacity(rows) if self.bucketing else None

    def _eager_outputs(self, arrays) -> list[np.ndarray]:
        loss, grads = self.eager(*arrays)
        return [loss, *grads]

    # -- execution ---------------------------------------------------------------

    def __call__(self, *inputs):
        outputs = self._run(self._as_arrays(inputs))
        if self.copy_outputs:
            outputs = [out.copy() for out in outputs]
        self._counters.count(calls=1)
        return outputs[0], outputs[1:]

    # -- management --------------------------------------------------------------

    def retrace(self) -> None:
        """Drop every template, graph and plan (after parameter replacement)."""

        with self._lock:
            # Re-snapshot the parameter list: wholesale replacement of
            # Parameter objects would otherwise leave gradients taken with
            # respect to the old, unreferenced tensors (all zeros).
            self.params = self.module.parameters()
            self._drop_traces()


def compile_value_and_grad(fn, module: Module, **options) -> CompiledValueAndGrad:
    """Convenience constructor for :class:`CompiledValueAndGrad`."""

    return CompiledValueAndGrad(fn, module, **options)
