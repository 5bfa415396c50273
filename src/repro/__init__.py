"""repro — reproduction of distributed Mosaic Flow (SC '23).

The package implements, from scratch and on top of numpy only:

* ``repro.autodiff`` — reverse-mode AD with higher-order gradients,
* ``repro.nn`` / ``repro.models`` / ``repro.optim`` — the SDNet physics-
  informed neural PDE solver, its input-concat baseline, and optimizers,
* ``repro.pde`` / ``repro.fd`` — boundary-value problems and the finite
  difference / geometric multigrid substrate used for ground truth,
* ``repro.data`` — Gaussian-process boundary condition generation,
* ``repro.distributed`` — an MPI-like simulated communicator with a
  communication cost model,
* ``repro.training`` — single-device and data-parallel (Algorithm 1)
  training,
* ``repro.mosaic`` — the Mosaic Flow predictor: sequential, batched and
  distributed (Algorithm 2),
* ``repro.schwarz`` — classical Schwarz domain decomposition baselines,
* ``repro.perfmodel`` — GPU and alpha-beta scaling models used to
  regenerate the paper's performance figures,
* ``repro.serving`` — the batched inference service: request validation,
  an async submit/future front-end over an idempotent request store,
  dynamic batching, solution caching and retries/deadlines/quotas in
  front of the Mosaic Flow predictor, with a deterministic fault-injection
  harness,
* ``repro.domains`` — composite (non-rectangular) target domains:
  union-of-rectangles geometries, masked reference solves and load-balanced
  anchor sharding,
* ``repro.engine`` — the trace-and-fuse inference compiler: records one
  forward pass of a model into a static operator graph, optimizes it
  (constant folding, elementwise fusion, dead-code elimination) and runs it
  through preallocated numpy kernels with bitwise parity to eager mode,
* ``repro.obs`` — unified observability: hierarchical span tracing with a
  Chrome-trace exporter, a thread-safe metrics registry (counters, gauges,
  bounded histograms) with JSON/Prometheus export, and opt-in per-kernel
  profiling of compiled engine plans.
"""

__version__ = "0.1.0"

#: serving front-door names re-exported at the package top level
_SERVING_EXPORTS = (
    "Server",
    "SolveRequest",
    "SolveResult",
    "BatchPolicy",
    "SolutionCache",
    "SolveFuture",
    "SolveError",
    "RetryExhaustedError",
    "DeadlineExceededError",
    "QuotaExceededError",
    "RequestStore",
    "TenantQuota",
    "FaultInjector",
    "FaultSchedule",
    "RequestJournal",
    "WorkerSupervisor",
    "BreakerPolicy",
)

#: composite-domain names re-exported at the package top level
_DOMAINS_EXPORTS = (
    "CompositeDomain",
    "CompositeMosaicGeometry",
    "composite_reference_solution",
)

#: inference-engine names re-exported at the package top level
_ENGINE_EXPORTS = (
    "CompiledModule",
    "CompiledValueAndGrad",
    "compile_module",
    "compile_value_and_grad",
)

#: observability names re-exported at the package top level
_OBS_EXPORTS = (
    "span",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "MetricsRegistry",
    "KernelProfiler",
)

__all__ = [
    "__version__", "serving", "domains", "engine", "obs",
    *_SERVING_EXPORTS, *_DOMAINS_EXPORTS, *_ENGINE_EXPORTS, *_OBS_EXPORTS,
]


def __getattr__(name: str):
    """Lazily expose the serving, domains and engine subsystems (PEP 562).

    Keeps ``import repro`` free of subpackage import costs while still
    allowing ``repro.Server`` / ``repro.CompositeDomain`` /
    ``repro.compile_module`` without an explicit subpackage import.
    """

    import importlib

    if name == "serving" or name in _SERVING_EXPORTS:
        serving = importlib.import_module(__name__ + ".serving")
        return serving if name == "serving" else getattr(serving, name)
    if name == "domains" or name in _DOMAINS_EXPORTS:
        domains = importlib.import_module(__name__ + ".domains")
        return domains if name == "domains" else getattr(domains, name)
    if name == "engine" or name in _ENGINE_EXPORTS:
        engine = importlib.import_module(__name__ + ".engine")
        return engine if name == "engine" else getattr(engine, name)
    if name == "obs" or name in _OBS_EXPORTS:
        obs = importlib.import_module(__name__ + ".obs")
        return obs if name == "obs" else getattr(obs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
