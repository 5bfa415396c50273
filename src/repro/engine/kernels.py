"""Vectorized NumPy kernels executed by the compiled runtime.

Two things live here:

* :func:`evaluate_node` — a pure, buffer-free evaluator that replays a graph
  node with *exactly* the numpy expressions the eager primitives in
  :mod:`repro.autodiff.ops` use.  Constant folding runs on it, and rarely-hot
  ops without an ``out=``-capable kernel fall back to it at runtime, so every
  value the engine ever produces is computed by the same floating-point
  operations as eager mode — the foundation of the bitwise-parity guarantee.
* :func:`build_step` — the kernel compiler: given a node and its operand
  slots it returns a closure that executes the op into a *preallocated*
  output buffer (``np.add(a, b, out=buf)``-style), so steady-state inference
  performs no tensor allocations for elementwise chains, matmuls, reductions
  and concatenations.  Pure shape ops (reshape/transpose/basic slicing)
  produce views.

The fused kernels (``gelu``, ``affine``, ``affine_gelu``, ``affine_tanh``,
``take``) execute the same ufunc sequence as the eager subgraphs they
replace — fusion removes Python dispatch and temporaries, never reorders
floating-point math — which keeps fused outputs bitwise identical too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autodiff.ops import erf_ufunc
from ..autodiff.tensor import DEFAULT_DTYPE
from .graph import Node

__all__ = ["evaluate_node", "build_step", "step_bytes", "KernelError"]


class KernelError(RuntimeError):
    """Raised when a graph node has no kernel (unknown op)."""


def step_bytes(node: Node) -> int:
    """Output bytes of one graph node (for per-kernel byte accounting)."""

    size = 1
    for dim in node.shape:
        size *= int(dim)
    itemsize = np.dtype(node.dtype if node.dtype is not None else DEFAULT_DTYPE).itemsize
    return size * itemsize


# ---------------------------------------------------------------------------
# Pure evaluation (eager-faithful; used by constant folding and fallbacks)
# ---------------------------------------------------------------------------


def _normalized_axes(axes, ndim: int) -> tuple:
    """Replicate the axis normalization of ``ops.transpose``."""

    if axes is None:
        return tuple(reversed(range(ndim)))
    return tuple(ax % ndim for ax in axes)


def _eval_gelu(x, attrs):
    t = x / attrs["div_const"]
    t = erf_ufunc()(t)
    t = attrs["add_const"] + t
    t = attrs["mul_const"] * t
    return x * t


def _eval_affine(a, b, bias):
    return (a @ b) + bias


def _eval_phi(x, attrs):
    """Standard normal PDF chain, eager op order."""

    return attrs["phi_const"] * np.exp(attrs["neg_half_const"] * (x * x))


def _eval_gelu_d1(x, attrs):
    big_phi = attrs["half_const"] * (
        attrs["one_const"] + erf_ufunc()(x / attrs["div_const"])
    )
    return big_phi + x * _eval_phi(x, attrs)


def _eval_gelu_d2(x, attrs):
    return _eval_phi(x, attrs) * (attrs["two_const"] - x * x)


def _eval_tanh_d1(x, attrs):
    t = np.tanh(x)
    return attrs["one_const"] - t * t


def _eval_tanh_d2(x, attrs):
    t = np.tanh(x)
    return (attrs["neg_two_const"] * t) * (attrs["one_const"] - t * t)


_EVALUATORS: dict[str, Callable] = {
    "add": lambda v, n: v[0] + v[1],
    "sub": lambda v, n: v[0] - v[1],
    "mul": lambda v, n: v[0] * v[1],
    "div": lambda v, n: v[0] / v[1],
    "neg": lambda v, n: -v[0],
    "pow": lambda v, n: v[0] ** float(n.attrs["exponent"]),
    "exp": lambda v, n: np.exp(v[0]),
    "log": lambda v, n: np.log(v[0]),
    "tanh": lambda v, n: np.tanh(v[0]),
    "erf": lambda v, n: erf_ufunc()(v[0]),
    "sin": lambda v, n: np.sin(v[0]),
    "cos": lambda v, n: np.cos(v[0]),
    "abs": lambda v, n: np.abs(v[0]),
    "maximum_zero": lambda v, n: np.maximum(v[0], 0.0),
    "clip": lambda v, n: np.clip(v[0], n.attrs["low"], n.attrs["high"]),
    "where_mask": lambda v, n: np.where(
        np.asarray(n.attrs["mask"], dtype=bool), v[0], v[1]
    ),
    "matmul": lambda v, n: v[0] @ v[1],
    "sum": lambda v, n: v[0].sum(
        axis=n.attrs["axis"], keepdims=n.attrs["keepdims"]
    ),
    "reshape": lambda v, n: v[0].reshape(n.attrs["shape"]),
    "transpose": lambda v, n: v[0].transpose(
        _normalized_axes(n.attrs["axes"], v[0].ndim)
    ),
    "broadcast_to": lambda v, n: np.broadcast_to(v[0], n.attrs["shape"]).copy(),
    "concatenate": lambda v, n: np.concatenate(list(v), axis=n.attrs["axis"]),
    "pad": lambda v, n: np.pad(v[0], n.attrs["pad_width"]),
    "getitem": lambda v, n: v[0][n.attrs["index"]],
    "scatter_add": lambda v, n: _eval_scatter_add(v[0], n),
    # fused / lowered ops
    "take": lambda v, n: np.take(v[0], n.attrs["indices"], axis=n.attrs["axis"])
    .reshape(n.shape),
    "gelu": lambda v, n: _eval_gelu(v[0], n.attrs),
    "affine": lambda v, n: _eval_affine(v[0], v[1], v[2]),
    "affine_gelu": lambda v, n: _eval_gelu(_eval_affine(v[0], v[1], v[2]), n.attrs),
    "affine_tanh": lambda v, n: np.tanh(_eval_affine(v[0], v[1], v[2])),
    # fused Faa di Bruno jet ops (Taylor-mode Laplacian path)
    "gelu_d1": lambda v, n: _eval_gelu_d1(v[0], n.attrs),
    "gelu_d2": lambda v, n: _eval_gelu_d2(v[0], n.attrs),
    "tanh_d1": lambda v, n: _eval_tanh_d1(v[0], n.attrs),
    "tanh_d2": lambda v, n: _eval_tanh_d2(v[0], n.attrs),
    "jet_d2": lambda v, n: v[0] * (v[1] * v[1]) + v[2] * v[3],
    "erf_vjp": lambda v, n: v[0] * (n.attrs["coeff_const"] * np.exp(-(v[1] * v[1]))),
    "mul_exp": lambda v, n: v[0] * np.exp(v[1]),
}


def _eval_scatter_add(g, node):
    out = np.zeros(node.attrs["shape"], dtype=g.dtype)
    np.add.at(out, node.attrs["index"], g)
    return out


def evaluate_node(node: Node, input_values: list[np.ndarray]) -> np.ndarray:
    """Evaluate one node on concrete operand values (eager-identical math)."""

    try:
        evaluator = _EVALUATORS[node.op]
    except KeyError as exc:
        raise KernelError(f"no evaluator for op {node.op!r}") from exc
    return evaluator(input_values, node)


# ---------------------------------------------------------------------------
# Buffered kernels
# ---------------------------------------------------------------------------
#
# A "step" is a closure run(slots) that reads operand arrays from the slot
# table, computes into bound buffers, and stores its result slot.  ``alloc``
# is provided by the execution plan and returns a persistent buffer.

Step = Callable[[list], None]
_UFUNC_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
}
_UFUNC_UNARY = {
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.absolute,
}


def _binary_step(ufunc, src, dst, buf) -> Step:
    a, b = src

    def run(slots):
        ufunc(slots[a], slots[b], out=buf)
        slots[dst] = buf

    return run


def _unary_step(ufunc, src, dst, buf) -> Step:
    (a,) = src

    def run(slots):
        ufunc(slots[a], out=buf)
        slots[dst] = buf

    return run


def _fallback_step(node, src, dst) -> Step:
    """Evaluate via :func:`evaluate_node` (allocating; for rarely-hot ops)."""

    def run(slots):
        slots[dst] = evaluate_node(node, [slots[i] for i in src])

    return run


def build_step(node: Node, src: list[int], dst: int, alloc) -> Step:
    """Compile one node into an executable step.

    Parameters
    ----------
    node:
        The graph node (op, attrs, output shape/dtype).
    src:
        Slot indices of the node's operands, in operand order.
    dst:
        Slot index the step must store its result into.
    alloc:
        ``alloc(shape, dtype) -> np.ndarray`` returning a buffer owned by the
        execution plan (one per call site, reused across runs).
    """

    op = node.op
    if op in _UFUNC_BINARY:
        return _binary_step(_UFUNC_BINARY[op], src, dst, alloc(node.shape, node.dtype))
    if op in _UFUNC_UNARY:
        return _unary_step(_UFUNC_UNARY[op], src, dst, alloc(node.shape, node.dtype))
    if op == "erf":
        return _unary_step(erf_ufunc(), src, dst, alloc(node.shape, node.dtype))

    if op == "maximum_zero":
        (a,) = src
        buf = alloc(node.shape, node.dtype)

        def run_relu(slots):
            np.maximum(slots[a], 0.0, out=buf)
            slots[dst] = buf

        return run_relu

    if op == "clip":
        (a,) = src
        low, high = node.attrs["low"], node.attrs["high"]
        buf = alloc(node.shape, node.dtype)

        def run_clip(slots):
            np.clip(slots[a], low, high, out=buf)
            slots[dst] = buf

        return run_clip

    if op == "matmul":
        a, b = src
        buf = alloc(node.shape, node.dtype)

        def run_matmul(slots):
            np.matmul(slots[a], slots[b], out=buf)
            slots[dst] = buf

        return run_matmul

    if op == "sum":
        (a,) = src
        axis = node.attrs["axis"]
        keepdims = node.attrs["keepdims"]
        buf = alloc(node.shape, node.dtype)

        def run_sum(slots):
            np.sum(slots[a], axis=axis, keepdims=keepdims, out=buf)
            slots[dst] = buf

        return run_sum

    if op == "reshape":
        (a,) = src
        shape = node.attrs["shape"]

        def run_reshape(slots):
            slots[dst] = slots[a].reshape(shape)

        return run_reshape

    if op == "transpose":
        (a,) = src
        # Axis normalization is shape-dependent; input ndim is fixed per plan.
        axes = None

        def run_transpose(slots):
            nonlocal axes
            value = slots[a]
            if axes is None:
                axes = _normalized_axes(node.attrs["axes"], value.ndim)
            slots[dst] = value.transpose(axes)

        return run_transpose

    if op == "broadcast_to":
        (a,) = src
        shape = node.attrs["shape"]
        buf = alloc(node.shape, node.dtype)

        def run_broadcast(slots):
            np.copyto(buf, np.broadcast_to(slots[a], shape))
            slots[dst] = buf

        return run_broadcast

    if op == "concatenate":
        axis = node.attrs["axis"] % max(len(node.shape), 1)
        buf = alloc(node.shape, node.dtype)
        slices = []
        offset = 0
        # Operand extents along the concat axis are fixed per plan (taken
        # from the plan's node shapes at build time by the caller via attrs).
        for size in node.attrs["sizes"]:
            index = [slice(None)] * len(node.shape)
            index[axis] = slice(offset, offset + size)
            slices.append(tuple(index))
            offset += size

        def run_concat(slots):
            for slot, index in zip(src, slices):
                np.copyto(buf[index], slots[slot])
            slots[dst] = buf

        return run_concat

    if op == "take":
        (a,) = src
        axis = node.attrs["axis"]
        indices = node.attrs["indices"]
        flat_shape = node.attrs["flat_shape"]
        out_shape = node.shape
        buf = alloc(flat_shape, node.dtype)

        def run_take(slots):
            np.take(slots[a], indices, axis=axis, out=buf)
            slots[dst] = buf.reshape(out_shape)

        return run_take

    if op == "getitem":
        index = node.attrs["index"]
        if _is_basic_index(index):
            (a,) = src

            def run_view(slots):
                slots[dst] = slots[a][index]

            return run_view
        return _fallback_step(node, src, dst)

    if op == "gelu":
        (x,) = src
        div_const = node.attrs["div_const"]
        add_const = node.attrs["add_const"]
        mul_const = node.attrs["mul_const"]
        erf = erf_ufunc()
        scratch = alloc(node.shape, node.dtype)
        buf = alloc(node.shape, node.dtype)

        def run_gelu(slots):
            value = slots[x]
            np.divide(value, div_const, out=scratch)
            erf(scratch, scratch)
            np.add(add_const, scratch, out=scratch)
            np.multiply(mul_const, scratch, out=scratch)
            np.multiply(value, scratch, out=buf)
            slots[dst] = buf

        return run_gelu

    if op == "affine":
        a, b, bias = src
        buf = alloc(node.shape, node.dtype)

        def run_affine(slots):
            np.matmul(slots[a], slots[b], out=buf)
            np.add(buf, slots[bias], out=buf)
            slots[dst] = buf

        return run_affine

    if op in ("affine_gelu", "affine_tanh"):
        a, b, bias = src
        pre = alloc(node.shape, node.dtype)
        buf = alloc(node.shape, node.dtype)
        if op == "affine_gelu":
            div_const = node.attrs["div_const"]
            add_const = node.attrs["add_const"]
            mul_const = node.attrs["mul_const"]
            erf = erf_ufunc()
            scratch = alloc(node.shape, node.dtype)

            def run_affine_act(slots):
                np.matmul(slots[a], slots[b], out=pre)
                np.add(pre, slots[bias], out=pre)
                np.divide(pre, div_const, out=scratch)
                erf(scratch, scratch)
                np.add(add_const, scratch, out=scratch)
                np.multiply(mul_const, scratch, out=scratch)
                np.multiply(pre, scratch, out=buf)
                slots[dst] = buf

        else:

            def run_affine_act(slots):
                np.matmul(slots[a], slots[b], out=pre)
                np.add(pre, slots[bias], out=pre)
                np.tanh(pre, out=buf)
                slots[dst] = buf

        return run_affine_act

    if op == "gelu_d1":
        (x,) = src
        attrs = node.attrs
        div_const = attrs["div_const"]
        one_const = attrs["one_const"]
        half_const = attrs["half_const"]
        neg_half = attrs["neg_half_const"]
        phi_const = attrs["phi_const"]
        erf = erf_ufunc()
        big_phi = alloc(node.shape, node.dtype)
        buf = alloc(node.shape, node.dtype)

        def run_gelu_d1(slots):
            value = slots[x]
            # Phi(x) = half * (one + erf(x / sqrt2))
            np.divide(value, div_const, out=big_phi)
            erf(big_phi, big_phi)
            np.add(one_const, big_phi, out=big_phi)
            np.multiply(half_const, big_phi, out=big_phi)
            # x * phi(x) = x * (c_phi * exp(neg_half * x^2))
            np.multiply(value, value, out=buf)
            np.multiply(neg_half, buf, out=buf)
            np.exp(buf, out=buf)
            np.multiply(phi_const, buf, out=buf)
            np.multiply(value, buf, out=buf)
            np.add(big_phi, buf, out=buf)
            slots[dst] = buf

        return run_gelu_d1

    if op == "gelu_d2":
        (x,) = src
        attrs = node.attrs
        neg_half = attrs["neg_half_const"]
        phi_const = attrs["phi_const"]
        two_const = attrs["two_const"]
        scratch = alloc(node.shape, node.dtype)
        buf = alloc(node.shape, node.dtype)

        def run_gelu_d2(slots):
            value = slots[x]
            # phi(x)
            np.multiply(value, value, out=buf)
            np.multiply(neg_half, buf, out=buf)
            np.exp(buf, out=buf)
            np.multiply(phi_const, buf, out=buf)
            # two - x^2
            np.multiply(value, value, out=scratch)
            np.subtract(two_const, scratch, out=scratch)
            np.multiply(buf, scratch, out=buf)
            slots[dst] = buf

        return run_gelu_d2

    if op == "tanh_d1":
        (x,) = src
        one_const = node.attrs["one_const"]
        buf = alloc(node.shape, node.dtype)

        def run_tanh_d1(slots):
            np.tanh(slots[x], out=buf)
            np.multiply(buf, buf, out=buf)
            np.subtract(one_const, buf, out=buf)
            slots[dst] = buf

        return run_tanh_d1

    if op == "tanh_d2":
        (x,) = src
        neg_two = node.attrs["neg_two_const"]
        one_const = node.attrs["one_const"]
        scratch = alloc(node.shape, node.dtype)
        buf = alloc(node.shape, node.dtype)

        def run_tanh_d2(slots):
            np.tanh(slots[x], out=scratch)
            np.multiply(neg_two, scratch, out=buf)
            np.multiply(scratch, scratch, out=scratch)
            np.subtract(one_const, scratch, out=scratch)
            np.multiply(buf, scratch, out=buf)
            slots[dst] = buf

        return run_tanh_d2

    if op == "jet_d2":
        second, d1, first, d2 = src
        scratch = alloc(node.shape, node.dtype)
        buf = alloc(node.shape, node.dtype)

        def run_jet_d2(slots):
            # second * (d1 * d1) + first * d2, eager op order
            np.multiply(slots[d1], slots[d1], out=scratch)
            np.multiply(slots[second], scratch, out=scratch)
            np.multiply(slots[first], slots[d2], out=buf)
            np.add(scratch, buf, out=buf)
            slots[dst] = buf

        return run_jet_d2

    if op == "erf_vjp":
        g_slot, a_slot = src
        coeff = node.attrs["coeff_const"]
        buf = alloc(node.shape, node.dtype)

        def run_erf_vjp(slots):
            a = slots[a_slot]
            np.multiply(a, a, out=buf)
            np.negative(buf, out=buf)
            np.exp(buf, out=buf)
            np.multiply(coeff, buf, out=buf)
            np.multiply(slots[g_slot], buf, out=buf)
            slots[dst] = buf

        return run_erf_vjp

    if op == "mul_exp":
        g_slot, a_slot = src
        buf = alloc(node.shape, node.dtype)

        def run_mul_exp(slots):
            np.exp(slots[a_slot], out=buf)
            np.multiply(slots[g_slot], buf, out=buf)
            slots[dst] = buf

        return run_mul_exp

    if op in _EVALUATORS:
        # Ops without a buffered kernel (pow, where_mask, pad, scatter_add,
        # custom fused ops that registered only an evaluator) run through the
        # allocating eager-faithful fallback.
        return _fallback_step(node, src, dst)

    raise KernelError(f"no kernel for op {node.op!r}")


def _is_basic_index(index) -> bool:
    """True when numpy basic indexing applies (result is a view)."""

    entries = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(entry, (slice, int, np.integer)) or entry is None
        or entry is Ellipsis
        for entry in entries
    )
