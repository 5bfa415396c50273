"""Tracing front-end: record one eager forward pass as a static graph.

The eager stack funnels every tensor operation through the primitive
functions of :mod:`repro.autodiff.ops` — module code calls ``ops.matmul``
etc., and the ``Tensor`` operator overloads are lambdas that resolve the
``ops`` module globals *at call time*.  The tracer exploits this single
choke point: while a trace is active it swaps each primitive for a thin
wrapper that first runs the original computation and then records the call
(output tensor, operand tensors, non-tensor attributes) into a
:class:`~repro.engine.graph.Graph`.

Properties of this design:

* **Composite ops decompose for free.**  Only genuine primitives are
  patched; ``ops.mean``/``ops.sqrt``/``ops.stack``/``ops.swapaxes`` call
  patched primitives internally, so the graph always contains primitive
  nodes and never double-records.
* **Thread safety.**  The wrappers dispatch through a *thread-local*
  active-tracer slot: concurrent traces on different threads record into
  their own graphs, and eager calls on threads with no active tracer run
  the original primitive with one attribute lookup of overhead.  The patch
  itself is installed/removed under a lock with reference counting, so the
  steady state (no live tracer anywhere) has zero overhead.
* **Shape specialization.**  Recorded attributes (reshape targets, gather
  index arrays, broadcast shapes) are concrete, so a trace is valid exactly
  for the input shapes it was taken with — the runtime re-traces per shape
  signature (see :class:`~repro.engine.runtime.CompiledModule`).

Tracing runs under ``no_grad`` — inference graphs never need the autodiff
tape — and value-dependent Python control flow in the traced module is baked
in at trace time (the standard tracing-JIT caveat; the models in this
reproduction only branch on shapes, which the signature cache accounts for).
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

from ..autodiff import ops
from ..autodiff.tensor import DEFAULT_DTYPE, Tensor, astensor, enable_grad, no_grad
from ..nn.module import Module
from .graph import Graph

__all__ = ["TraceError", "trace", "trace_program"]


class TraceError(RuntimeError):
    """Raised when a forward pass cannot be recorded as a static graph."""


# ---------------------------------------------------------------------------
# Primitive signatures
# ---------------------------------------------------------------------------
#
# For every patched primitive: the ordered argument spec, each entry either
# ("t", name) for a tensor operand or ("a", name, default) for a non-tensor
# attribute.  ``concatenate`` takes a *list* of tensors and is special-cased.

_T = "t"
_A = "a"

_PRIMITIVE_SPECS: dict[str, tuple] = {
    # elementwise binary
    "add": ((_T, "a"), (_T, "b")),
    "sub": ((_T, "a"), (_T, "b")),
    "mul": ((_T, "a"), (_T, "b")),
    "div": ((_T, "a"), (_T, "b")),
    # elementwise unary
    "neg": ((_T, "a"),),
    "exp": ((_T, "a"),),
    "log": ((_T, "a"),),
    "tanh": ((_T, "a"),),
    "erf": ((_T, "a"),),
    "sin": ((_T, "a"),),
    "cos": ((_T, "a"),),
    "abs": ((_T, "a"),),
    "maximum_zero": ((_T, "a"),),
    "pow": ((_T, "a"), (_A, "exponent", None)),
    "clip": ((_T, "a"), (_A, "low", None), (_A, "high", None)),
    "where_mask": ((_A, "mask", None), (_T, "a"), (_T, "b")),
    # linear algebra / reductions
    "matmul": ((_T, "a"), (_T, "b")),
    "sum": ((_T, "a"), (_A, "axis", None), (_A, "keepdims", False)),
    # shape manipulation
    "reshape": ((_T, "a"), (_A, "shape", None)),
    "transpose": ((_T, "a"), (_A, "axes", None)),
    "broadcast_to": ((_T, "a"), (_A, "shape", None)),
    "pad": ((_T, "a"), (_A, "pad_width", None)),
    # indexing
    "getitem": ((_T, "a"), (_A, "index", None)),
    "scatter_add": ((_T, "g"), (_A, "index", None), (_A, "shape", None)),
}


def _bind(spec: tuple, args: tuple, kwargs: dict):
    """Split a primitive call's arguments into (tensor operands, attrs)."""

    tensors, attrs = [], {}
    for position, entry in enumerate(spec):
        if position < len(args):
            value = args[position]
        else:
            name = entry[1]
            if name in kwargs:
                value = kwargs[name]
            elif entry[0] == _A:
                value = entry[2]
            else:  # pragma: no cover - primitives always receive operands
                raise TraceError(f"missing tensor operand {name!r}")
        if entry[0] == _T:
            tensors.append(value)
        else:
            attrs[entry[1]] = value
    return tensors, attrs


# ---------------------------------------------------------------------------
# Patch management (process-global, reference counted, thread-local dispatch)
# ---------------------------------------------------------------------------

_PATCH_LOCK = threading.Lock()
_INSTALL_COUNT = 0


def _fresh_patch_lock() -> None:
    # In a forked child: the parent thread that held the lock does not exist.
    global _PATCH_LOCK
    _PATCH_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_patch_lock)
_ORIGINALS: dict[str, object] = {}
_TLS = threading.local()


def _current_tracer():
    return getattr(_TLS, "tracer", None)


def _make_wrapper(name: str, original, spec):
    if name == "concatenate":

        def wrapper(tensors, axis: int = 0):
            out = original(tensors, axis=axis)
            tracer = _current_tracer()
            if tracer is not None:
                # Record the normalized axis and per-operand extents so the
                # buffered kernel can precompute its copy slices.
                norm_axis = axis % out.data.ndim
                sizes = tuple(
                    np.shape(t.data if isinstance(t, Tensor) else t)[norm_axis]
                    for t in tensors
                )
                tracer.record(
                    name, out, list(tensors), {"axis": norm_axis, "sizes": sizes}
                )
            return out

    else:

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            tracer = _current_tracer()
            if tracer is not None:
                tensors, attrs = _bind(spec, args, kwargs)
                tracer.record(name, out, tensors, attrs)
            return out

    wrapper.__name__ = name
    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _install_patch() -> None:
    global _INSTALL_COUNT
    with _PATCH_LOCK:
        if _INSTALL_COUNT == 0:
            for name in list(_PRIMITIVE_SPECS) + ["concatenate"]:
                original = getattr(ops, name)
                _ORIGINALS[name] = original
                setattr(
                    ops, name, _make_wrapper(name, original, _PRIMITIVE_SPECS.get(name))
                )
        _INSTALL_COUNT += 1


def _remove_patch() -> None:
    global _INSTALL_COUNT
    with _PATCH_LOCK:
        _INSTALL_COUNT -= 1
        if _INSTALL_COUNT == 0:
            for name, original in _ORIGINALS.items():
                setattr(ops, name, original)
            _ORIGINALS.clear()


@contextlib.contextmanager
def _active(tracer: "_Tracer"):
    if _current_tracer() is not None:
        raise TraceError("traces cannot nest on one thread")
    _install_patch()
    _TLS.tracer = tracer
    try:
        yield
    finally:
        _TLS.tracer = None
        _remove_patch()


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


class _Tracer:
    """Builds a :class:`Graph` from the primitive calls of one forward pass."""

    def __init__(self, graph: Graph, param_names: dict[int, str]):
        self.graph = graph
        self.param_names = param_names
        # id(Tensor) -> node id; keepalive pins the tensors so CPython cannot
        # recycle an id mid-trace.
        self._tensor_nodes: dict[int, int] = {}
        self._keepalive: list[Tensor] = []

    # -- node lookup / creation -------------------------------------------------

    def register(self, tensor: Tensor, node_id: int) -> None:
        self._tensor_nodes[id(tensor)] = node_id
        self._keepalive.append(tensor)

    def node_for(self, value) -> int:
        """Node id of an operand, lifting unseen values to constants.

        Eager primitives convert non-tensor operands with
        ``astensor``/``np.asarray(..., float64)``; the lifted constant stores
        the *same* converted array so the compiled call replays identical
        operand values.  Tensors that are module parameters keep a reference
        to the parameter's storage (no copy) and record its qualified name.
        """

        if isinstance(value, Tensor):
            node_id = self._tensor_nodes.get(id(value))
            if node_id is not None:
                return node_id
            data = value.data
            param = self.param_names.get(id(value))
        else:
            data = np.asarray(value, dtype=DEFAULT_DTYPE)
            param = None
        node = self.graph.add_node(
            "constant", shape=data.shape, dtype=data.dtype, value=data, param=param
        )
        if isinstance(value, Tensor):
            self.register(value, node.id)
        return node.id

    # -- recording --------------------------------------------------------------

    def record(self, op: str, out: Tensor, tensor_args: list, attrs: dict) -> None:
        inputs = [self.node_for(t) for t in tensor_args]
        if op == "getitem" and _index_contains_tensor(attrs.get("index")):
            raise TraceError(
                "getitem with Tensor-valued indices cannot be traced; "
                "index with numpy arrays or slices"
            )
        node = self.graph.add_node(
            op, inputs=inputs, attrs=attrs, shape=out.shape, dtype=out.dtype
        )
        self.register(out, node.id)


def _index_contains_tensor(index) -> bool:
    entries = index if isinstance(index, tuple) else (index,)
    return any(isinstance(entry, Tensor) for entry in entries)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def trace(module: Module, *example_inputs) -> Graph:
    """Record one forward pass of ``module`` as a static operator graph.

    Parameters
    ----------
    module:
        Any :class:`~repro.nn.module.Module` (SDNet, MLP, the concat
        baseline, ...).  Its ``forward`` is executed once, eagerly, under
        ``no_grad``.
    example_inputs:
        Call arguments (arrays or tensors).  The resulting graph is
        specialized to these input *shapes*; re-trace for new shapes.

    Returns
    -------
    A validated :class:`~repro.engine.graph.Graph` whose placeholders match
    ``example_inputs`` in order and whose outputs are the traced call's
    results.

    Raises
    ------
    TraceError
        If the forward pass produces something that is not a ``Tensor`` (or
        tuple of tensors), or performs an operation the tracer cannot record.
    """

    return trace_program(module, example_inputs, params=module)


def trace_program(fn, example_inputs, params=None, grad: bool = False) -> Graph:
    """Record one call of an arbitrary callable as a static operator graph.

    This is the general entry point behind :func:`trace`: ``fn`` may be any
    Python callable over tensors — a module, a closure computing a loss, or
    a function that *itself runs a reverse-mode sweep*.  Because the VJPs of
    every primitive in :mod:`repro.autodiff.ops` are expressed in terms of
    other primitives, running :func:`repro.autodiff.grad` inside ``fn``
    records the entire backward pass into the same graph, which is how the
    engine compiles training-time loss-and-gradient programs (see
    :mod:`repro.engine.jet`).

    Parameters
    ----------
    fn:
        Callable invoked as ``fn(*inputs)``; must return a ``Tensor`` or a
        tuple of tensors.
    example_inputs:
        Sequence of call arguments (arrays or tensors).  The graph is
        specialized to these input *shapes*.
    params:
        A :class:`~repro.nn.module.Module` whose parameters should be
        labeled in the graph, or a mapping ``name -> Tensor``.  Captured
        parameter constants alias the parameter storage, so in-place
        parameter updates flow into the compiled graph.
    grad:
        When ``True`` the call runs with gradient recording *enabled* so a
        reverse sweep inside ``fn`` has a tape to walk; the default replays
        the inference behaviour of :func:`trace` (``no_grad``).
    """

    inputs = [astensor(x) for x in example_inputs]
    graph = Graph()
    param_names: dict[int, str] = {}
    if isinstance(params, Module):
        param_names = {id(param): name for name, param in params.named_parameters()}
    elif params:
        param_names = {id(astensor(tensor)): name for name, tensor in dict(params).items()}
    tracer = _Tracer(graph, param_names)
    for tensor in inputs:
        node = graph.add_node("placeholder", shape=tensor.shape, dtype=tensor.dtype)
        graph.inputs.append(node.id)
        tracer.register(tensor, node.id)

    grad_mode = enable_grad if grad else no_grad
    with _active(tracer), grad_mode():
        result = fn(*inputs)

    outputs = result if isinstance(result, tuple) else (result,)
    for out in outputs:
        if not isinstance(out, Tensor):
            raise TraceError(
                f"traced program returned {type(out).__name__}; only Tensor "
                "outputs can be compiled"
            )
        graph.outputs.append(tracer.node_for(out))
    graph.validate()
    return graph
