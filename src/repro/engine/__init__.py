"""repro.engine — a trace-and-fuse inference compiler for model hot paths.

Every Mosaic Flow solve executes thousands of gradient-free SDNet forward
passes through the tape-building :mod:`repro.autodiff` layer, paying per-op
Python dispatch, graph bookkeeping and fresh allocations it never needs.
This package separates a *traced, optimized execution graph* from the eager
training path, the way production inference stacks do:

1. :mod:`.trace` records one symbolic forward pass of any
   :class:`~repro.nn.module.Module` into a static operator graph
   (:mod:`.graph`),
2. :mod:`.passes` runs compiler passes over it — dead-code elimination,
   constant folding of frozen weights, lowering of one-axis gathers, and
   fusion of elementwise chains (``affine -> activation``) into single
   vectorized numpy kernels (:mod:`.kernels`),
3. :mod:`.runtime` executes the result through shape-specialized plans with
   preallocated buffers, so steady-state inference is allocation-free.

The resulting :class:`CompiledModule` exposes the same ``__call__`` contract
as the source module with **bitwise-identical outputs** (fusion removes
dispatch, never reorders floating-point math).  It is the only inference
path of the neural subdomain solver: every
:class:`~repro.mosaic.solvers.SDNetSubdomainSolver` — under the predictors,
the distributed ranks and the server alike — executes one
compiled program per ``(model, point set)``, whose bucketed plan
(:mod:`.bucketing`) serves every row count of the solver's chunks from one
set of per-thread buffers.

The engine also covers the *training* hot path: :mod:`.jet` traces the
Taylor-mode physics loss **and** its parameter reverse sweep into one
static program (every VJP is itself built from primitives, so the backward
records like any forward), optimizes it with the mutation-safe
:data:`~repro.engine.passes.TRAINING_PASSES` pipeline (Faà di Bruno jet
fusion, view-only folding of trainable parameters), and executes it through
**bucketed batch-dimension plans** (:mod:`.bucketing`) with byte-budgeted
per-thread plan caches — loss values and parameter gradients stay bitwise
equal to the eager tape.  :class:`~repro.pde.losses.PinnLoss` and
:class:`~repro.training.trainer.TrainingConfig` expose it as ``engine=``.
"""

from .bucketing import BucketedPlan, BucketingError, bucket_capacity, build_template
from .graph import Graph, GraphError, Node
from .jet import CompiledValueAndGrad, JetStats, compile_value_and_grad
from .kernels import KernelError, build_step, evaluate_node, step_bytes
from .passes import (
    DEFAULT_PASSES,
    FUSION_RULES,
    TRAINING_PASSES,
    FusionRule,
    eliminate_dead_code,
    fold_constants,
    fold_mutable_constants,
    fuse_elementwise,
    lower_gathers,
    optimize,
)
from .runtime import (
    BUCKET_ROWS,
    CompiledModule,
    ExecutionPlan,
    PlanCache,
    compile_module,
)
from .trace import TraceError, trace, trace_program

__all__ = [
    "BucketedPlan",
    "BucketingError",
    "bucket_capacity",
    "build_template",
    "Graph",
    "GraphError",
    "Node",
    "CompiledValueAndGrad",
    "JetStats",
    "compile_value_and_grad",
    "KernelError",
    "build_step",
    "evaluate_node",
    "step_bytes",
    "DEFAULT_PASSES",
    "FUSION_RULES",
    "TRAINING_PASSES",
    "FusionRule",
    "eliminate_dead_code",
    "fold_constants",
    "fold_mutable_constants",
    "fuse_elementwise",
    "lower_gathers",
    "optimize",
    "BUCKET_ROWS",
    "CompiledModule",
    "ExecutionPlan",
    "PlanCache",
    "compile_module",
    "TraceError",
    "trace",
    "trace_program",
]
