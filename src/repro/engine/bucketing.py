"""Cross-shape execution plans: bucketed batch dimensions.

The baseline runtime (:class:`~repro.engine.runtime.ExecutionPlan`) is
specialized to one exact input-shape signature: every recorded attribute
(reshape targets, broadcast shapes, concat extents) and every preallocated
buffer bakes the traced batch size in.  Training breaks that model — the
collocation batch varies per step (full batches plus a ragged tail, varying
point budgets), and one trace + one plan *per exact shape* means unbounded
re-tracing and unbounded buffer memory.

This module makes plans polymorphic over the batch dimension instead:

1. A program is traced **twice** per bucket, at the bucket capacity ``C``
   and at a second probe size (:func:`probe_template`; a third trace at
   ``C - 1`` verifies the fit), and the two optimized graphs are unified
   into a :class:`ProgramTemplate`: structurally identical nodes whose
   shapes, integer attributes and slice bounds are fit as **affine
   functions of the batch size** (``dim = base + slope * b``), solved
   exactly from the two probes.  Constants that grow with the batch must be
   uniform along the batch axis — a capacity-sized constant whose prefix
   slice reproduces the small probe — which the direction-stacked Taylor
   seeds of :func:`~repro.autodiff.taylor.taylor_seed_directions` are
   constructed to satisfy.  Anything that cannot be unified raises
   :class:`BucketingError` and the caller falls back to exact-shape plans.
2. A :class:`BucketedPlan` allocates every buffer once at capacity and
   *specializes* to any batch size ``b <= C`` by rebuilding the step
   closures over **views** of the capacity buffers (sliced to the affine
   shapes at ``b``) and over sliced constants.  Specializations hold no
   array storage of their own, so a bucket serving many batch sizes costs
   one set of capacity buffers plus a few closures per size.

Because a specialized step executes the identical kernel on identically
shaped operands as an exact-shape plan would, bucketed execution stays
bitwise equal to eager mode.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..autodiff.tensor import DEFAULT_DTYPE
from ..obs import memory as obs_memory
from .graph import Graph, Node
from .kernels import build_step, step_bytes

__all__ = [
    "BucketingError", "ProgramTemplate", "BucketedPlan", "build_template",
    "probe_template", "bucket_capacity",
]


class BucketingError(RuntimeError):
    """Raised when two probe graphs cannot be unified into one template."""


def bucket_capacity(batch: int) -> int:
    """The bucket a batch size belongs to: the next power of two."""

    if batch < 1:
        raise ValueError("bucket capacity requires a positive batch size")
    capacity = 1
    while capacity < batch:
        capacity <<= 1
    return capacity


# ---------------------------------------------------------------------------
# Affine templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Affine:
    """An integer quantity that is affine in the batch size."""

    base: int
    slope: int

    def __call__(self, b: int) -> int:
        return self.base + self.slope * b


@dataclass(frozen=True)
class _SliceTemplate:
    start: object
    stop: object
    step: object


def _fit_int(va: int, vb: int, ba: int, bb: int) -> "int | _Affine":
    if va == vb:
        return int(va)
    num, den = va - vb, ba - bb
    if num % den:
        raise BucketingError(f"dimension pair ({va}, {vb}) is not affine in the batch")
    slope = num // den
    base = va - slope * ba
    if slope < 0 or base < 0:
        raise BucketingError(
            f"dimension pair ({va}, {vb}) has a negative affine fit "
            f"(base={base}, slope={slope})"
        )
    return _Affine(base, slope)


def _merge_attr(va, vb, ba: int, bb: int):
    """Unify one attribute value pair into a (possibly affine) template."""

    if va is None or vb is None:
        if va is None and vb is None:
            return None
        raise BucketingError("attribute present in only one probe")
    if isinstance(va, bool) or isinstance(vb, bool):
        if va is vb:
            return va
        raise BucketingError("boolean attribute differs between probes")
    if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
        if (
            isinstance(va, np.ndarray)
            and isinstance(vb, np.ndarray)
            and va.dtype == vb.dtype
            and np.array_equal(va, vb)
        ):
            return va
        raise BucketingError("array attribute differs between probes")
    if isinstance(va, (int, np.integer)) and isinstance(vb, (int, np.integer)):
        return _fit_int(int(va), int(vb), ba, bb)
    if isinstance(va, slice) and isinstance(vb, slice):
        return _SliceTemplate(
            _merge_attr(va.start, vb.start, ba, bb),
            _merge_attr(va.stop, vb.stop, ba, bb),
            _merge_attr(va.step, vb.step, ba, bb),
        )
    if isinstance(va, (tuple, list)) and isinstance(vb, (tuple, list)):
        if type(va) is not type(vb) or len(va) != len(vb):
            raise BucketingError("sequence attribute differs in kind or length")
        return type(va)(_merge_attr(x, y, ba, bb) for x, y in zip(va, vb))
    if isinstance(va, dict) and isinstance(vb, dict):
        if set(va) != set(vb):
            raise BucketingError("dict attribute keys differ between probes")
        return {k: _merge_attr(va[k], vb[k], ba, bb) for k in va}
    if va == vb:
        return va
    raise BucketingError(f"attribute pair ({va!r}, {vb!r}) cannot be unified")


def _materialize(template, b: int):
    """Instantiate an attribute template at a concrete batch size."""

    if isinstance(template, _Affine):
        return template(b)
    if isinstance(template, _SliceTemplate):
        return slice(
            _materialize(template.start, b),
            _materialize(template.stop, b),
            _materialize(template.step, b),
        )
    if isinstance(template, tuple):
        return tuple(_materialize(t, b) for t in template)
    if isinstance(template, list):
        return [_materialize(t, b) for t in template]
    if isinstance(template, dict):
        return {k: _materialize(t, b) for k, t in template.items()}
    return template


def _shape_at(shape_template: tuple, b: int) -> tuple:
    return tuple(d(b) if isinstance(d, _Affine) else d for d in shape_template)


# ---------------------------------------------------------------------------
# Constant templates
# ---------------------------------------------------------------------------
#
# Specs: ("static", array)              — batch-independent (may alias params)
#        ("slice", array, axis, dim)    — capacity array, prefix-sliced on axis
#        ("fill", shape_tmpl, law, dt)  — uniform array whose fill value (and
#                                         shape) follow a law of the batch
#
# The fill laws cover how batch-dependent scalars actually arise in traced
# programs: counts are affine in the batch (``b * q``), and mean-style
# cotangent seeds are their reciprocals (``1 / (b * q)``), which makes the
# reciprocal affine.  Both laws are verified bitwise against the two probes
# before being accepted.


def _scalar_laws(fa: float, fb: float, ba: int, bb: int, dtype):
    """Candidate fill-value laws fitting the two probes bitwise.

    Two probes determine a line (or a reciprocal line) exactly, so *both*
    laws usually fit — the caller must disambiguate against a third probe
    (:func:`verify_template`); only the constant law is unambiguous.
    """

    if fa == fb:
        return [("const", fa, 0.0)]
    laws = []
    slope = (fa - fb) / (ba - bb)
    base = fa - slope * ba
    if (
        np.asarray(base + slope * ba, dtype=dtype) == np.asarray(fa, dtype=dtype)
        and np.asarray(base + slope * bb, dtype=dtype) == np.asarray(fb, dtype=dtype)
    ):
        laws.append(("affine", base, slope))
    if fa != 0.0 and fb != 0.0:
        ra, rb = 1.0 / fa, 1.0 / fb
        slope = (ra - rb) / (ba - bb)
        base = ra - slope * ba
        if (
            np.asarray(1.0 / (base + slope * ba), dtype=dtype) == np.asarray(fa, dtype=dtype)
            and np.asarray(1.0 / (base + slope * bb), dtype=dtype) == np.asarray(fb, dtype=dtype)
        ):
            laws.append(("recip", base, slope))
    return laws


def _law_value(law, b: int) -> float:
    kind, base, slope = law
    if kind == "const":
        return base
    if kind == "affine":
        return base + slope * b
    return 1.0 / (base + slope * b)


def _uniform_fill(array: np.ndarray):
    """The single fill value of a uniform array, or ``None``.

    Uniformity is checked bytewise (``-0.0`` and ``0.0`` compare equal but
    are different fills).
    """

    if array.size == 0:
        return None
    first = array.reshape(-1)[0]
    filled = np.full(array.shape, first, dtype=array.dtype)
    return float(first) if filled.tobytes() == array.tobytes() else None


def _merge_constant(cap_node: Node, small_node: Node, shape_tmpl, ba: int, bb: int):
    va, vb = cap_node.value, small_node.value
    if va is None or vb is None:
        raise BucketingError("constant node without a captured value")
    if va.dtype != vb.dtype:
        raise BucketingError("constant dtype differs between probes")
    if va.shape == vb.shape and (va is vb or np.array_equal(va, vb)):
        return ("static", va)
    if va.ndim != vb.ndim:
        raise BucketingError("constant rank differs between probes")
    # Uniform fills (mean divisors, cotangent seeds, zero pads) follow a
    # scalar law of the batch regardless of whether their shape scales.
    fa = float(va) if va.ndim == 0 else _uniform_fill(va)
    fb = float(vb) if vb.ndim == 0 else _uniform_fill(vb)
    if fa is not None and fb is not None:
        laws = _scalar_laws(fa, fb, ba, bb, va.dtype)
        if laws:
            return ("fill*", shape_tmpl, laws, va.dtype)
    differing = [axis for axis in range(va.ndim) if va.shape[axis] != vb.shape[axis]]
    if len(differing) != 1:
        raise BucketingError("constant differs along more than one axis")
    axis = differing[0]
    dim = shape_tmpl[axis]
    if not isinstance(dim, _Affine):
        raise BucketingError("constant extent is not affine in the batch")
    index = tuple(
        slice(0, vb.shape[axis]) if ax == axis else slice(None)
        for ax in range(va.ndim)
    )
    if not np.array_equal(va[index], vb):
        raise BucketingError(
            "constant is not uniform along its batch axis (prefix slice of the "
            "capacity value does not reproduce the smaller probe)"
        )
    return ("slice", va, axis, dim)


def _constant_at(spec, b: int) -> np.ndarray:
    kind = spec[0]
    if kind == "static":
        return spec[1]
    if kind == "slice":
        _, value, axis, dim = spec
        extent = dim(b)
        index = tuple(
            slice(0, extent) if ax == axis else slice(None)
            for ax in range(value.ndim)
        )
        return value[index]
    if kind == "fill*":  # pragma: no cover - finalized before execution
        raise BucketingError("ambiguous fill constant was never disambiguated")
    _, shape_tmpl, law, dtype = spec
    shape = _shape_at(shape_tmpl, b)
    value = _law_value(law, b)
    if not shape:
        return np.asarray(value, dtype=dtype)
    return np.full(shape, np.asarray(value, dtype=dtype), dtype=dtype)


# ---------------------------------------------------------------------------
# Program templates
# ---------------------------------------------------------------------------


@dataclass
class _NodeTemplate:
    op: str
    inputs: tuple
    attrs_template: dict
    shape_template: tuple
    dtype: object
    const_spec: tuple | None = None


class ProgramTemplate:
    """Two probe graphs unified into one batch-polymorphic program."""

    def __init__(self, capacity: int, nodes: dict, order: list,
                 inputs: list, outputs: list):
        self.capacity = capacity
        self.nodes: dict[int, _NodeTemplate] = nodes
        self.order: list[int] = order          # execution order of node ids
        self.inputs: list[int] = inputs
        self.outputs: list[int] = outputs


def _attrs_equal(a, b) -> bool:
    """Deep equality of attribute values (arrays compared elementwise)."""

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(
            _attrs_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, slice) and isinstance(b, slice):
        return (
            _attrs_equal(a.start, b.start)
            and _attrs_equal(a.stop, b.stop)
            and _attrs_equal(a.step, b.step)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_attrs_equal(a[k], b[k]) for k in a)
    return a == b


def _finalize_constant(tmpl: _NodeTemplate, check_node: Node | None, b_check: int | None):
    """Resolve ambiguous fill laws and verify the spec against probe three.

    A fill law fitted on two probes is underdetermined (any two points lie
    on both an affine and a reciprocal-affine curve); the third probe picks
    the law that actually governs the program.  Without a third probe
    (capacity-2 buckets, which only ever serve their probe sizes) the first
    candidate is kept.
    """

    spec = tmpl.const_spec
    if spec[0] == "fill*":
        _, shape_tmpl, laws, dtype = spec
        candidates = [("fill", shape_tmpl, law, dtype) for law in laws]
    else:
        candidates = [spec]
    if check_node is None:
        tmpl.const_spec = candidates[0]
        return
    expected = check_node.value
    for candidate in candidates:
        value = _constant_at(candidate, b_check)
        if (
            value.shape == expected.shape
            and value.dtype == expected.dtype
            and value.tobytes() == expected.tobytes()
        ):
            tmpl.const_spec = candidate
            return
    raise BucketingError(
        "no constant law reproduces the verification probe bitwise"
    )


def build_template(
    graph_cap: Graph, cap_batch: int, graph_small: Graph, small_batch: int,
    check: "tuple[Graph, int] | None" = None,
) -> ProgramTemplate:
    """Unify two optimized probe graphs into a :class:`ProgramTemplate`.

    ``check`` is a third probe ``(graph, batch)`` used to *verify* every
    affine fit and to disambiguate fill-constant laws: two probes determine
    the fits, the third confirms them.  Callers should always pass one when
    the bucket serves batch sizes other than the two probes.

    Raises :class:`BucketingError` when the graphs differ structurally, any
    shape/attribute/constant cannot be expressed in the template language,
    or the verification probe is not reproduced bitwise.
    """

    if cap_batch == small_batch:
        raise BucketingError("probe batch sizes must differ")
    graph_check, b_check = check if check is not None else (None, None)
    nodes_a, nodes_b = graph_cap.nodes(), graph_small.nodes()
    nodes_c = graph_check.nodes() if graph_check is not None else None
    if len(nodes_a) != len(nodes_b) or (
        nodes_c is not None and len(nodes_c) != len(nodes_a)
    ):
        raise BucketingError("probe graphs differ in node count")
    if graph_cap.inputs != graph_small.inputs or graph_cap.outputs != graph_small.outputs:
        raise BucketingError("probe graphs differ in inputs/outputs")
    if graph_check is not None and (
        graph_check.inputs != graph_cap.inputs
        or graph_check.outputs != graph_cap.outputs
    ):
        raise BucketingError("verification probe differs in inputs/outputs")

    templates: dict[int, _NodeTemplate] = {}
    order: list[int] = []
    for position, (a, b) in enumerate(zip(nodes_a, nodes_b)):
        c = nodes_c[position] if nodes_c is not None else None
        if a.id != b.id or a.op != b.op or a.inputs != b.inputs:
            raise BucketingError(
                f"probe graphs diverge at node {a.id} ({a.op} vs {b.op})"
            )
        if c is not None and (c.id != a.id or c.op != a.op or c.inputs != a.inputs):
            raise BucketingError(
                f"verification probe diverges at node {a.id} ({a.op} vs {c.op})"
            )
        if len(a.shape) != len(b.shape):
            raise BucketingError(f"node {a.id} rank differs between probes")
        shape_tmpl = tuple(
            _fit_int(da, db, cap_batch, small_batch)
            for da, db in zip(a.shape, b.shape)
        )
        if c is not None and _shape_at(shape_tmpl, b_check) != c.shape:
            raise BucketingError(
                f"node {a.id} shape is not affine in the batch "
                "(verification probe mismatch)"
            )
        const_spec = None
        if a.is_constant:
            const_spec = _merge_constant(a, b, shape_tmpl, cap_batch, small_batch)
            attrs_tmpl = {}
        else:
            attrs_tmpl = _merge_attr(a.attrs, b.attrs, cap_batch, small_batch)
            if c is not None and not _attrs_equal(
                _materialize(attrs_tmpl, b_check), c.attrs
            ):
                raise BucketingError(
                    f"node {a.id} attributes are not affine in the batch "
                    "(verification probe mismatch)"
                )
        tmpl = _NodeTemplate(
            op=a.op, inputs=a.inputs, attrs_template=attrs_tmpl,
            shape_template=shape_tmpl, dtype=a.dtype, const_spec=const_spec,
        )
        if const_spec is not None:
            _finalize_constant(tmpl, c, b_check)
        templates[a.id] = tmpl
        order.append(a.id)
    return ProgramTemplate(
        capacity=cap_batch, nodes=templates, order=order,
        inputs=list(graph_cap.inputs), outputs=list(graph_cap.outputs),
    )


def probe_template(trace, arrays: "list[np.ndarray]", capacity: int) -> ProgramTemplate:
    """Trace a program at three batch sizes and unify the traces.

    ``trace(arrays) -> Graph`` records and optimizes the program; ``arrays``
    are the inputs of a real call, whose rows are repeated cyclically (or
    cut) to the probe sizes: ``capacity`` and ``capacity // 2`` determine
    every affine fit, ``capacity - 1`` verifies them and picks between the
    fill-constant laws two probes cannot tell apart.  A capacity-2 bucket
    only ever serves its two probe sizes and skips the third trace.
    """

    def probe(rows: int) -> Graph:
        return trace([np.resize(a, (rows,) + a.shape[1:]) for a in arrays])

    small = capacity // 2
    if small < 1:
        raise BucketingError("a capacity-1 bucket has no second probe size")
    graph_cap, graph_small = probe(capacity), probe(small)
    check = (probe(capacity - 1), capacity - 1) if capacity - 1 > small else None
    return build_template(graph_cap, capacity, graph_small, small, check=check)


# ---------------------------------------------------------------------------
# Bucketed plans
# ---------------------------------------------------------------------------


class _Specialization:
    """One batch size of a bucketed plan: step closures over shared buffers.

    ``profiler`` (a :class:`~repro.obs.profile.KernelProfiler`) opts the
    specialization into per-kernel timing, mirroring
    :meth:`~repro.engine.runtime.ExecutionPlan.run`: identical kernels on
    identical views either way, so outputs stay bitwise equal.
    """

    def __init__(self, slots: list, steps: list, input_slots: list,
                 output_slots: list, step_info: list | None = None,
                 profiler=None):
        self._slots = slots
        self._steps = steps
        self._input_slots = input_slots
        self._output_slots = output_slots
        self._step_info = step_info if step_info is not None else []
        self._profiler = profiler

    def run(self, arrays: "list[np.ndarray]") -> "list[np.ndarray]":
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


class BucketedPlan:
    """A :class:`ProgramTemplate` bound to capacity buffers.

    Buffers are allocated once, at the bucket capacity; every batch size in
    the bucket executes through views of those buffers.  Like
    :class:`~repro.engine.runtime.ExecutionPlan`, a bucketed plan owns its
    buffers and is therefore **not thread-safe** — callers build one per
    thread.  The contract is enforced: the plan binds to the first thread
    that runs it and any other thread's :meth:`run` raises
    :class:`RuntimeError` instead of silently corrupting shared buffers.
    """

    def __init__(self, template: ProgramTemplate, profiler=None):
        self.template = template
        self._profiler = profiler
        self._owner_thread: int | None = None
        # node id -> buffers allocated for that node at capacity, in the
        # order the node's kernel requested them (main output + scratch).
        self._node_buffers: dict[int, list[np.ndarray]] = {}
        # bytes of materialized fill constants, which each specialization
        # allocates fresh (slice/static constants are views and cost nothing)
        self._constant_bytes = 0
        self._specs: dict[int, _Specialization] = {}
        self._specs[template.capacity] = self._build(template.capacity)

    @property
    def buffer_bytes(self) -> int:
        return self._constant_bytes + sum(
            int(buffer.nbytes)
            for buffers in self._node_buffers.values()
            for buffer in buffers
        )

    @property
    def specialization_count(self) -> int:
        return len(self._specs)

    def release_accounting(self) -> None:
        """Return this plan's bytes to the memory accountant (plan dropped).

        Read at release time so lazily-built specializations (which grow
        ``buffer_bytes`` after cache insertion) stay balanced.
        """

        obs_memory.sub(obs_memory.ENGINE_PLAN_BUFFERS, self.buffer_bytes)

    def has_specialization(self, b: int) -> bool:
        return b in self._specs

    def _build(self, b: int) -> _Specialization:
        template = self.template
        at_capacity = b == template.capacity
        slot_of = {node_id: pos for pos, node_id in enumerate(template.order)}
        slots: list = [None] * len(template.order)
        steps = []
        step_info: list = []
        for node_id in template.order:
            tmpl = template.nodes[node_id]
            position = slot_of[node_id]
            if tmpl.op == "placeholder":
                continue
            if tmpl.const_spec is not None:
                constant = _constant_at(tmpl.const_spec, b)
                if tmpl.const_spec[0] == "fill":
                    self._constant_bytes += int(constant.nbytes)
                    obs_memory.add(obs_memory.ENGINE_PLAN_BUFFERS, constant.nbytes)
                slots[position] = constant
                continue
            shape_b = _shape_at(tmpl.shape_template, b)
            node = Node(
                id=node_id, op=tmpl.op, inputs=tmpl.inputs,
                attrs=_materialize(tmpl.attrs_template, b),
                shape=shape_b, dtype=tmpl.dtype,
            )
            if at_capacity:
                buffers = self._node_buffers.setdefault(node_id, [])

                def alloc(shape, dtype, buffers=buffers):
                    buffer = np.empty(
                        shape, dtype=dtype if dtype is not None else DEFAULT_DTYPE
                    )
                    buffers.append(buffer)
                    obs_memory.add(obs_memory.ENGINE_PLAN_BUFFERS, buffer.nbytes)
                    return buffer

            else:
                counter = iter(self._node_buffers.get(node_id, ()))

                def alloc(shape, dtype, counter=counter):
                    capacity_buffer = next(counter)
                    if tuple(shape) == capacity_buffer.shape:
                        return capacity_buffer
                    return capacity_buffer[tuple(slice(0, s) for s in shape)]

            src = [slot_of[i] for i in tmpl.inputs]
            steps.append(build_step(node, src, position, alloc))
            step_info.append((node.op, step_bytes(node)))
        if self._profiler is not None:
            self._profiler.count("bucket_specialization")
        return _Specialization(
            slots, steps,
            [slot_of[i] for i in template.inputs],
            [slot_of[i] for i in template.outputs],
            step_info=step_info, profiler=self._profiler,
        )

    def run(self, arrays: "list[np.ndarray]", b: int) -> "list[np.ndarray]":
        """Execute at batch size ``b``; arrays may alias plan buffers."""

        ident = threading.get_ident()
        owner = self._owner_thread
        if owner is None:
            self._owner_thread = ident
        elif owner != ident:
            raise RuntimeError(
                f"BucketedPlan is bound to thread {owner} and was run from "
                f"thread {ident}; bucketed plans own capacity buffers shared "
                "by every specialization and are not thread-safe — build one "
                "plan per thread (the jet runtime does this automatically)"
            )
        spec = self._specs.get(b)
        if spec is None:
            if not 0 <= b <= self.template.capacity:
                raise BucketingError(
                    f"batch {b} outside bucket capacity {self.template.capacity}"
                )
            spec = self._build(b)
            self._specs[b] = spec
        return spec.run(arrays)
