"""Compiled-module runtime: row-polymorphic plans over optimized graphs.

:class:`CompiledModule` is the user-facing artifact of the engine.  It keeps
the source :class:`~repro.nn.module.Module` and lazily builds, per set of
*trailing* input shapes:

* one :class:`~repro.engine.bucketing.ProgramTemplate` unified from three
  probe traces (taken on first use, shared across threads under a lock),
  valid for every leading dimension up to ``bucket_rows``, and
* one :class:`~repro.engine.bucketing.BucketedPlan` *per thread* — the plan
  owns capacity-sized buffers and serves each row count through views of
  them, so plans are intentionally not shared between threads (the
  simulated-cluster ranks and the serving worker pool each get their own
  buffers while sharing the traces) and a thread's plan memory does not
  grow with the row counts it meets.

Calls whose inputs share no leading dimension, or exceed the capacity, run
through an :class:`ExecutionPlan` per exact shape signature instead.
Steady-state calls therefore run a flat list of buffered numpy kernels with
no per-op Python graph bookkeeping and no intermediate tensor allocations.

Parity contract
---------------
For every supported module the compiled call computes the *same floating
point operations in the same order* as the eager forward pass: kernels use
``out=`` variants of the identical ufuncs, constant folding replays the
eager expressions once, and fusion only removes dispatch (see
:mod:`repro.engine.passes`).  Outputs are therefore bitwise identical to
eager mode — the property tests in ``tests/engine`` and the ``validate=``
flag enforce it.  The documented exception: a module whose forward performs
value-dependent Python control flow or math outside the
:mod:`repro.autodiff.ops` primitives is outside the traceable subset (the
tracer misses it) — ``validate=True`` catches such modules at trace time.

Parameter mutation does **not** flow into compiled graphs: constant folding
freezes parameter-derived values (the coordinate projection of a fixed point
set, for one).  Every call therefore compares the ``version`` of the module's
own parameters with the values its traces were taken at and re-traces when
``load_state_dict`` or an optimizer step has moved one; code that writes
``param.data`` by hand calls :meth:`~repro.nn.module.Module.parameters_changed`
(or :meth:`CompiledModule.retrace`).  Other modules' updates are not seen.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from collections import OrderedDict

import numpy as np

from ..autodiff.tensor import DEFAULT_DTYPE, Tensor
from ..nn.module import Module
from ..obs import memory as obs_memory
from .bucketing import BucketedPlan, BucketingError, probe_template
from .graph import Graph
from .kernels import build_step, step_bytes
from .passes import optimize
from .trace import TraceError, trace

__all__ = [
    "BUCKET_ROWS",
    "ExecutionPlan",
    "PlanCache",
    "EngineStats",
    "CompiledProgram",
    "CompiledModule",
    "compile_module",
]

#: Default capacity of a :class:`CompiledModule`'s bucketed plans: leading
#: dimensions up to this many rows share one plan per thread.  A trade of plan
#: memory against traces, nothing numerical; a caller with a reason for a
#: particular capacity passes ``bucket_rows``.
BUCKET_ROWS = 32


class ExecutionPlan:
    """A graph bound to preallocated buffers for one input-shape signature.

    Not thread-safe: the plan's kernels write into buffers owned by the
    plan.  :class:`CompiledModule` builds one plan per thread, and the plan
    *enforces* that contract — it binds to the first thread that runs it and
    raises :class:`RuntimeError` when any other thread calls :meth:`run`,
    instead of silently corrupting shared buffers.

    ``profiler`` (a :class:`~repro.obs.profile.KernelProfiler`) opts the plan
    into per-kernel timing: every step is clocked and attributed to its op.
    Profiled runs execute the identical kernels on the identical buffers, so
    outputs stay bitwise equal; without a profiler, ``run`` is the exact
    unclocked loop.
    """

    def __init__(self, graph: Graph, profiler=None):
        self._owner_thread: int | None = None
        slot_of: dict[int, int] = {}
        for position, node in enumerate(graph):
            slot_of[node.id] = position
        self._slots: list = [None] * len(slot_of)
        self._buffers: list[np.ndarray] = []
        self._steps = []
        self._step_info: list[tuple[str, int]] = []
        self._profiler = profiler
        for node in graph:
            if node.is_placeholder:
                continue
            if node.is_constant:
                self._slots[slot_of[node.id]] = node.value
                continue
            src = [slot_of[i] for i in node.inputs]
            self._steps.append(build_step(node, src, slot_of[node.id], self._alloc))
            self._step_info.append((node.op, step_bytes(node)))
        self._input_slots = [slot_of[i] for i in graph.inputs]
        self._output_slots = [slot_of[i] for i in graph.outputs]

    def _alloc(self, shape, dtype) -> np.ndarray:
        buffer = np.empty(shape, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self._buffers.append(buffer)
        obs_memory.add(obs_memory.ENGINE_PLAN_BUFFERS, buffer.nbytes)
        return buffer

    def release_accounting(self) -> None:
        """Return this plan's bytes to the memory accountant (plan dropped).

        ``buffer_bytes`` is read at release time, so plans that grew after
        construction (bucketed specializations) stay balanced.
        """

        obs_memory.sub(obs_memory.ENGINE_PLAN_BUFFERS, self.buffer_bytes)

    @property
    def buffer_bytes(self) -> int:
        """Total bytes of the plan's preallocated intermediate buffers."""

        return sum(int(b.nbytes) for b in self._buffers)

    def _claim_owner(self) -> None:
        # Enforce the one-plan-per-thread contract.  The first runner binds
        # the plan (a benign race: two simultaneous first calls were already
        # corrupting buffers before any check could exist); every later call
        # from another thread is a caller bug surfaced loudly.
        ident = threading.get_ident()
        owner = self._owner_thread
        if owner is None:
            self._owner_thread = ident
        elif owner != ident:
            raise RuntimeError(
                f"{type(self).__name__} is bound to thread {owner} and was "
                f"run from thread {ident}; plans own their buffers and are "
                "not thread-safe — build one plan per thread "
                "(CompiledModule and the jet runtime do this automatically)"
            )

    def run(self, arrays: list[np.ndarray]) -> list[np.ndarray]:
        """Execute the plan; returned arrays may alias plan buffers."""

        self._claim_owner()
        slots = self._slots
        for slot, array in zip(self._input_slots, arrays):
            slots[slot] = array
        profiler = self._profiler
        if profiler is None:
            for step in self._steps:
                step(slots)
        else:
            clock = time.perf_counter
            record = profiler.record
            for step, (op, nbytes) in zip(self._steps, self._step_info):
                tic = clock()
                step(slots)
                record(op, clock() - tic, nbytes)
        return [slots[slot] for slot in self._output_slots]



def _release_accounting(plan) -> int:
    """Credit a retired plan's buffers back to the memory accountant.

    Duck-typed: the cache also holds test doubles and plan variants that
    never registered allocations, which simply lack the hook.  Returns the
    bytes the plan held.
    """

    release = getattr(plan, "release_accounting", None)
    if release is not None:
        release()
    return int(plan.buffer_bytes)


def _retire(entries: OrderedDict, on_release) -> None:
    released = sum(_release_accounting(plan) for plan, _ in entries.values())
    entries.clear()
    if on_release is not None and released:
        on_release(released)


class PlanCache:
    """A byte-accounted LRU of execution plans.

    Per-thread companion of :class:`CompiledProgram`: each thread owns one
    cache, so no locking happens on the hot path.  Every inserted plan is
    charged its preallocated ``buffer_bytes``; once the total exceeds
    ``max_bytes`` the least recently used plans are dropped — except the
    newest entry, which is always kept so a single oversized plan still
    executes (it just prevents hoarding siblings).  ``on_evict(key, nbytes)``
    and ``on_release(nbytes)`` let the owner aggregate counters across
    threads; ``on_release`` fires when :meth:`clear` retires the remaining
    plans **or the cache is dropped without one** — the per-thread holder
    dies with its thread, and the plans' bytes are credited back then.
    """

    def __init__(self, max_bytes: int | None = None, on_evict=None, on_release=None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[object, tuple]" = OrderedDict()
        self._on_evict = on_evict
        self._on_release = on_release
        self.bytes_in_use = 0
        # The finaliser's arguments must not reach this cache (or whatever
        # owns its thread-local slot), else neither would ever die.
        weakref.finalize(self, _retire, self._entries, on_release)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, plan) -> None:
        nbytes = int(plan.buffer_bytes)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.bytes_in_use -= previous[1]
            _release_accounting(previous[0])
        self._entries[key] = (plan, nbytes)
        self.bytes_in_use += nbytes
        if self.max_bytes is None:
            return
        while self.bytes_in_use > self.max_bytes and len(self._entries) > 1:
            old_key, (old_plan, old_bytes) = self._entries.popitem(last=False)
            self.bytes_in_use -= old_bytes
            _release_accounting(old_plan)
            if self._on_evict is not None:
                self._on_evict(old_key, old_bytes)

    def clear(self) -> None:
        _retire(self._entries, self._on_release)
        self.bytes_in_use = 0


@dataclasses.dataclass
class EngineStats:
    """Counters of one compiled program (diagnostics and tests)."""

    calls: int = 0
    #: eager traces taken: three per bucket template (two fit probes and a
    #: verification probe; capacity-2 buckets need only the fit probes) plus
    #: one per exact-shape signature
    traces: int = 0
    #: plans built (bucketed or exact; one per thread per cache key)
    plan_builds: int = 0
    #: bucket templates successfully unified
    bucket_templates: int = 0
    #: programs the template language could not express, left to exact-shape plans
    bucket_fallbacks: int = 0
    #: per-row-count specializations built inside bucketed plans
    specializations: int = 0
    plan_evictions: int = 0
    #: bytes held by live plans of every thread (credited back when a plan is
    #: evicted, its generation is retired or its thread exits)
    plan_bytes: int = 0
    plan_bytes_evicted: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class _PlanCounters:
    """The plan counters of one compiled program, shared with its caches.

    Its own object so that a per-thread :class:`PlanCache` — and the
    finaliser crediting its bytes back when the thread exits — never holds
    the compiled program (or the module behind it) alive.
    """

    def __init__(self, stats: EngineStats, profiler):
        self.stats = stats
        self.profiler = profiler
        self.lock = threading.Lock()

    def count(self, event: str | None = None, **deltas) -> None:
        with self.lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)
        if event is not None and self.profiler is not None:
            self.profiler.count(event)

    def evicted(self, key, nbytes: int) -> None:
        self.count("plan_eviction", plan_evictions=1, plan_bytes_evicted=nbytes,
                   plan_bytes=-nbytes)

    def released(self, nbytes: int) -> None:
        self.count(plan_bytes=-nbytes)


_UNSET = object()


def _common_rows(arrays) -> int | None:
    """The leading dimension every input shares, if there is one."""

    if not arrays or any(a.ndim == 0 for a in arrays):
        return None
    rows = arrays[0].shape[0]
    return rows if all(a.shape[0] == rows for a in arrays) else None


class CompiledProgram:
    """Traces, bucket templates and per-thread plans of one compiled callable.

    The machinery :class:`CompiledModule` (inference) and
    :class:`~repro.engine.jet.CompiledValueAndGrad` (training) share.
    Sub-classes implement ``_trace(arrays) -> Graph`` (recorded *and*
    optimized), ``_eager_outputs(arrays) -> list[ndarray]`` (the reference
    ``validate=True`` compares against) and ``_capacity(rows)`` (the bucket
    serving calls of ``rows`` rows, or ``None``), and call :meth:`_run`.

    Graphs and templates are shared by all threads and built under a lock;
    plans live in one :class:`PlanCache` per thread.  ``profile`` is
    ``True`` for a fresh :class:`~repro.obs.profile.KernelProfiler` or an
    existing one to accumulate into.
    """

    #: what a ``validate=True`` mismatch is reported as
    _divergence = "compiled output diverges from the eager evaluation"
    #: raise when a bucket's probes do not unify instead of falling back to
    #: exact-shape plans
    strict_buckets = False

    def __init__(self, passes, max_plan_bytes, validate, copy_outputs, profile):
        self.passes = passes
        self.max_plan_bytes = max_plan_bytes
        self.validate = bool(validate)
        self.copy_outputs = bool(copy_outputs)
        self.profiler = None
        if profile:
            from ..obs.profile import KernelProfiler

            self.profiler = profile if isinstance(profile, KernelProfiler) else KernelProfiler()
        self.stats = EngineStats()
        self._counters = _PlanCounters(self.stats, self.profiler)
        self._templates: dict = {}
        self._graphs: dict = {}
        self._validated: set = set()
        self._lock = threading.Lock()
        self._generation = 0
        self._tls = threading.local()

    @staticmethod
    def _as_arrays(inputs) -> list[np.ndarray]:
        # Mirror the eager conversion exactly: astensor/Tensor coerce every
        # input to the library default dtype (no copy when already float64).
        return [
            np.asarray(x.data if isinstance(x, Tensor) else x, dtype=DEFAULT_DTYPE)
            for x in inputs
        ]

    # -- traces (shared, under the lock) -------------------------------------------

    def _traced(self, arrays) -> Graph:
        self._counters.count(traces=1)
        return self._trace(arrays)

    def _graph(self, signature: tuple, arrays) -> Graph:
        graph = self._graphs.get(signature)
        if graph is None:
            with self._lock:
                graph = self._graphs.get(signature)
                if graph is None:
                    graph = self._graphs[signature] = self._traced(arrays)
        return graph

    def _template(self, key: tuple, capacity: int, arrays):
        """The bucket template of ``key``; ``None`` when the probes do not unify."""

        template = self._templates.get(key, _UNSET)
        if template is _UNSET:
            with self._lock:
                template = self._templates.get(key, _UNSET)
                if template is _UNSET:
                    try:
                        template = probe_template(self._traced, arrays, capacity)
                        self._counters.count(bucket_templates=1)
                    except (BucketingError, ValueError):
                        # Not expressible as a template, or a leading
                        # dimension that is no batch at all (the resized
                        # probes then fail a shape check); the exact-shape
                        # trace of the real inputs surfaces a genuine error.
                        if self.strict_buckets:
                            raise
                        template = None
                        self._counters.count(bucket_fallbacks=1)
                    self._templates[key] = template
        return template

    # -- plans (per thread) ----------------------------------------------------------

    def _plans(self) -> PlanCache:
        tls = self._tls
        if getattr(tls, "generation", None) != self._generation:
            # Retire this thread's stale-generation plans explicitly so the
            # memory accountant sees their buffers released (other threads'
            # caches retire the same way on their next call, or when the
            # thread exits).
            stale = getattr(tls, "plans", None)
            if stale is not None:
                stale.clear()
            counters = self._counters
            tls.plans = PlanCache(
                self.max_plan_bytes, on_evict=counters.evicted, on_release=counters.released
            )
            tls.generation = self._generation
        return tls.plans

    def _built(self, plans: PlanCache, key, plan):
        plans.put(key, plan)
        self._counters.count("plan_build", plan_builds=1, plan_bytes=plan.buffer_bytes)
        return plan

    def _run(self, arrays) -> list[np.ndarray]:
        """Execute on this thread's plans; the outputs may alias plan buffers.

        Inputs sharing a leading dimension run as that many rows of the
        bucket ``_capacity`` names for them; inputs that share none, a
        ``None`` bucket, or a program the template language cannot express
        take an exact-shape plan.
        """

        signature = tuple(a.shape for a in arrays)
        rows = _common_rows(arrays)
        capacity = self._capacity(rows) if rows else None
        # Before any graph or template is looked up: a retrace that lands in
        # between then leaves this call's plan in the stale generation's
        # cache, never a stale plan in the fresh one.
        plans = self._plans()
        if capacity is not None:
            key = ("bucket", capacity, tuple(s[1:] for s in signature))
            # The probes are the call's inputs resized along axis 0, so a
            # template's inputs are ``(rows, *trailing)`` by construction.
            template = self._template(key, capacity, arrays)
            if template is not None:
                plan = plans.get(key)
                if plan is None:
                    plan = self._built(
                        plans, key, BucketedPlan(template, profiler=self.profiler)
                    )
                if plan.has_specialization(rows):
                    outputs = plan.run(arrays, rows)
                else:
                    before = plan.buffer_bytes
                    outputs = plan.run(arrays, rows)
                    # fill constants materialized by the new specialization
                    # count toward plan memory
                    self._counters.count(
                        specializations=1, plan_bytes=plan.buffer_bytes - before
                    )
                self._check((key, rows), arrays, outputs)
                return outputs
        key = ("exact", signature)
        plan = plans.get(key)
        if plan is None:
            plan = self._built(
                plans, key,
                ExecutionPlan(self._graph(signature, arrays), profiler=self.profiler),
            )
        outputs = plan.run(arrays)
        self._check(key, arrays, outputs)
        return outputs

    def _check(self, tag, arrays, outputs) -> None:
        """``validate=True``: compare each (plan, row count) pair's first run to eager."""

        if not self.validate or tag in self._validated:
            return
        for ours, theirs in zip(outputs, self._eager_outputs(arrays)):
            if ours.shape != theirs.shape or ours.tobytes() != theirs.tobytes():
                raise TraceError(
                    f"{self._divergence}; the traced callable is outside the "
                    "traceable subset (math outside repro.autodiff.ops, or "
                    "value-dependent control flow)"
                )
        self._validated.add(tag)

    # -- management --------------------------------------------------------------

    def retrace(self) -> None:
        """Drop every cached template, graph and plan.

        Plans held by other threads are invalidated lazily through a
        generation counter checked on their next call.
        """

        with self._lock:
            self._drop_traces()

    def _drop_traces(self) -> None:
        # Caller holds the lock.  The generation moves last: a thread that
        # sees the new generation must not find an old template.
        self._templates.clear()
        self._graphs.clear()
        self._validated.clear()
        self._generation += 1

    def kernel_report(self, n: int = 10) -> str:
        """Top-kernels table of the attached profiler (requires ``profile=True``)."""

        if self.profiler is None:
            raise RuntimeError("per-kernel profiling is off; compile with profile=True")
        return self.profiler.report(n)


class CompiledModule(CompiledProgram):
    """Trace-and-fuse compiled wrapper around an :class:`~repro.nn.module.Module`.

    Exposes the same ``__call__`` contract as the source module (tensors in,
    detached :class:`~repro.autodiff.tensor.Tensor` out) with bitwise-equal
    outputs; see the module docstring for the parity contract.

    Parameters
    ----------
    module:
        The source module; kept (unmodified) for re-tracing and checkpointing.
    passes:
        Optimization pipeline; default
        :data:`~repro.engine.passes.DEFAULT_PASSES`.
    copy_outputs:
        When ``True`` (default) outputs are copied out of the plan's buffers,
        making calls safe to interleave freely.  ``False`` returns the
        buffers themselves — fully allocation-free, but the arrays are
        overwritten by the next call of the same trailing shapes on the same
        thread.
    validate:
        When ``True``, the first run of every (plan, row count) pair is
        checked bitwise against an eager forward pass of the same inputs.
    max_plan_bytes:
        Memory budget for each thread's execution-plan cache.  A bucketed
        plan is bounded by construction; exact-shape plans (inputs over
        ``bucket_rows`` rows or without a common leading dimension) own
        buffers sized by their input shapes, and with a budget the least
        recently used plans are evicted (:class:`PlanCache`), counted in
        ``stats.plan_evictions``.  ``None`` (default) keeps every plan.
    profile:
        Opt into per-kernel profiling: every executed plan step is timed and
        attributed to its op in :attr:`profiler`
        (:class:`~repro.obs.profile.KernelProfiler`; pass one to accumulate
        into it), along with plan-cache events.  Results stay bitwise
        identical; see :meth:`kernel_report`.
    bucket_rows:
        Capacity of the bucketed plans (default :data:`BUCKET_ROWS`).
    strict_buckets:
        Raise the probes' error when a bucket's traces do not unify into a
        template, instead of serving those calls from exact-shape plans
        (counted in ``stats.bucket_fallbacks``) — for callers whose memory
        bound depends on the bucketed plan.
    """

    _divergence = "compiled output diverges from the eager forward pass"

    def __init__(
        self,
        module: Module,
        passes=None,
        copy_outputs: bool = True,
        validate: bool = False,
        max_plan_bytes: int | None = None,
        profile=False,
        bucket_rows: int = BUCKET_ROWS,
        strict_buckets: bool = False,
    ):
        super().__init__(passes, max_plan_bytes, validate, copy_outputs, profile)
        self.module = module
        self.bucket_rows = int(bucket_rows)
        self.strict_buckets = bool(strict_buckets)
        self._parameters = tuple(module.parameters())
        self._parameter_version = self._version_now()

    # -- attribute passthrough ---------------------------------------------------

    def __getattr__(self, name: str):
        # Only called on misses: delegate public attributes (boundary_size,
        # config, ...) to the source module so the compiled wrapper can stand
        # in for it structurally, not just callably.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            module = self.__dict__["module"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(module, name)

    # -- compilation -------------------------------------------------------------

    def _capacity(self, rows: int) -> int | None:
        return self.bucket_rows if rows <= self.bucket_rows else None

    def _trace(self, arrays) -> Graph:
        return optimize(trace(self.module, *arrays), self.passes)

    def _eager_outputs(self, arrays) -> list[np.ndarray]:
        from ..autodiff import no_grad

        with no_grad():
            # Wrap inputs exactly as trace() does: a module applying Python
            # operators to raw ndarray inputs would otherwise take numpy's
            # operator path instead of the Tensor one and falsely diverge.
            eager = self.module(*[Tensor(a) for a in arrays])
        return [t.data for t in (eager if isinstance(eager, tuple) else (eager,))]

    # -- execution ---------------------------------------------------------------

    def _version_now(self) -> int:
        # Versions only grow, so the sum moves exactly when one of them does.
        return sum(p.version for p in self._parameters)

    def _execute(self, arrays) -> list[np.ndarray]:
        version = self._version_now()
        if version != self._parameter_version:
            # Folded constants hold the old parameters' values.
            with self._lock:
                if version != self._parameter_version:
                    self._drop_traces()
                    self._parameter_version = version
        return self._run(arrays)

    def predict(self, *inputs) -> np.ndarray:
        """Run the compiled graph and return the raw output array(s)."""

        outputs = self._execute(self._as_arrays(inputs))
        self.stats.calls += 1
        if self.copy_outputs:
            outputs = [out.copy() for out in outputs]
        return tuple(outputs) if len(outputs) > 1 else outputs[0]

    def __call__(self, *inputs):
        """Compiled forward pass; same contract as ``module(*inputs)``."""

        result = self.predict(*inputs)
        if isinstance(result, tuple):
            return tuple(Tensor(out) for out in result)
        return Tensor(result)

    # -- management --------------------------------------------------------------

    def graph_for(self, *example_inputs) -> Graph:
        """The optimized graph for the given inputs' exact shapes (for inspection)."""

        arrays = self._as_arrays(example_inputs)
        return self._graph(tuple(a.shape for a in arrays), arrays)


def compile_module(
    module: Module,
    *example_inputs,
    passes=None,
    copy_outputs: bool = True,
    validate: bool = False,
    max_plan_bytes: int | None = None,
    profile=False,
) -> CompiledModule:
    """Compile ``module`` for inference; optionally pre-trace example inputs.

    Returns a :class:`CompiledModule`; when ``example_inputs`` are given
    their template (or exact graph) is traced and the calling thread's plan
    built now, otherwise on the first call.
    """

    compiled = CompiledModule(
        module, passes=passes, copy_outputs=copy_outputs, validate=validate,
        max_plan_bytes=max_plan_bytes, profile=profile,
    )
    if example_inputs:
        compiled._execute(compiled._as_arrays(example_inputs))
    return compiled
