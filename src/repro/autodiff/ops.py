"""Primitive differentiable operations.

Every primitive creates an output :class:`~repro.autodiff.tensor.Tensor` and
registers vector-Jacobian product (VJP) closures for its inputs.  The VJPs are
written *in terms of other primitives*, which is what enables higher-order
differentiation: when :func:`repro.autodiff.grad` runs with
``create_graph=True`` the backward pass itself is recorded and can be
differentiated again.  This mirrors the mechanism PyTorch uses for the
``create_graph=True`` path exercised by physics-informed losses.

Only the operations required by the reproduction are implemented; they are
sufficient for MLPs, 1-D convolutions, GELU/Tanh activations, losses, and the
second derivatives needed by the Laplace residual.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Tensor, astensor, is_grad_enabled

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt",
    "tanh", "erf", "sin", "cos", "abs", "maximum_zero",
    "matmul", "sum", "mean", "reshape", "transpose", "swapaxes",
    "broadcast_to", "getitem", "scatter_add", "concatenate", "stack", "pad",
    "where_mask", "clip",
]

#: ``scipy.special.erf`` once :func:`erf_ufunc` has imported it.  Importing
#: ``scipy.special`` costs 35-60 ms and only a GELU evaluates erf, so a
#: process that never builds one (an FD server) never loads it.
_erf_ufunc = None


def erf_ufunc():
    """The ``scipy.special.erf`` ufunc, importing ``scipy.special`` on first call."""

    global _erf_ufunc
    if _erf_ufunc is None:
        from scipy.special import erf as loaded

        _erf_ufunc = loaded
    return _erf_ufunc


# ---------------------------------------------------------------------------
# Broadcasting helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: Tensor, shape: tuple) -> Tensor:
    """Reduce ``grad`` so that it has ``shape``.

    When a binary operation broadcasts an operand, the gradient flowing back
    must be summed over the broadcast axes.  The reduction is expressed with
    differentiable primitives so double backward works.
    """

    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = sum(grad, axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = sum(grad, axis=axes, keepdims=True)
    if grad.shape != shape:
        grad = reshape(grad, shape)
    return grad


# ---------------------------------------------------------------------------
# Elementwise binary operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out_data = a.data + b.data
    return Tensor._from_op(
        out_data,
        [(a, lambda g: _unbroadcast(g, a.shape)),
         (b, lambda g: _unbroadcast(g, b.shape))],
        "add",
    )


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out_data = a.data - b.data
    return Tensor._from_op(
        out_data,
        [(a, lambda g: _unbroadcast(g, a.shape)),
         (b, lambda g: _unbroadcast(neg(g), b.shape))],
        "sub",
    )


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out_data = a.data * b.data
    return Tensor._from_op(
        out_data,
        [(a, lambda g: _unbroadcast(mul(g, b), a.shape)),
         (b, lambda g: _unbroadcast(mul(g, a), b.shape))],
        "mul",
    )


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    out_data = a.data / b.data
    return Tensor._from_op(
        out_data,
        [(a, lambda g: _unbroadcast(div(g, b), a.shape)),
         (b, lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape))],
        "div",
    )


# ---------------------------------------------------------------------------
# Elementwise unary operations
# ---------------------------------------------------------------------------


def neg(a) -> Tensor:
    a = astensor(a)
    return Tensor._from_op(-a.data, [(a, lambda g: neg(g))], "neg")


def pow(a, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-differentiated) exponent."""

    a = astensor(a)
    exponent = float(exponent)
    out_data = a.data ** exponent

    def vjp(g: Tensor) -> Tensor:
        return mul(g, mul(exponent, pow(a, exponent - 1.0)))

    return Tensor._from_op(out_data, [(a, vjp)], "pow")


def exp(a) -> Tensor:
    a = astensor(a)
    # The VJP recomputes ``exp(a)`` instead of capturing the output tensor so
    # that the backward graph stays connected to ``a`` under double backward.
    return Tensor._from_op(
        np.exp(a.data), [(a, lambda g: mul(g, exp(a)))], "exp"
    )


def log(a) -> Tensor:
    a = astensor(a)
    return Tensor._from_op(
        np.log(a.data), [(a, lambda g: div(g, a))], "log"
    )


def sqrt(a) -> Tensor:
    return pow(a, 0.5)


def tanh(a) -> Tensor:
    a = astensor(a)

    def vjp(g: Tensor) -> Tensor:
        t = tanh(a)
        return mul(g, sub(1.0, mul(t, t)))

    return Tensor._from_op(np.tanh(a.data), [(a, vjp)], "tanh")


def erf(a) -> Tensor:
    """Gauss error function (used by the exact GELU activation)."""

    a = astensor(a)
    coeff = 2.0 / math.sqrt(math.pi)

    def vjp(g: Tensor) -> Tensor:
        return mul(g, mul(coeff, exp(neg(mul(a, a)))))

    return Tensor._from_op(erf_ufunc()(a.data), [(a, vjp)], "erf")


def sin(a) -> Tensor:
    a = astensor(a)
    return Tensor._from_op(np.sin(a.data), [(a, lambda g: mul(g, cos(a)))], "sin")


def cos(a) -> Tensor:
    a = astensor(a)
    return Tensor._from_op(
        np.cos(a.data), [(a, lambda g: neg(mul(g, sin(a))))], "cos"
    )


def abs(a) -> Tensor:
    a = astensor(a)
    sign = np.sign(a.data)

    def vjp(g: Tensor) -> Tensor:
        return mul(g, Tensor(sign))

    return Tensor._from_op(np.abs(a.data), [(a, vjp)], "abs")


def maximum_zero(a) -> Tensor:
    """ReLU primitive: ``max(a, 0)`` with a zero sub-gradient at 0."""

    a = astensor(a)
    mask = (a.data > 0).astype(a.data.dtype)

    def vjp(g: Tensor) -> Tensor:
        return mul(g, Tensor(mask))

    return Tensor._from_op(np.maximum(a.data, 0.0), [(a, vjp)], "relu")


def where_mask(mask: np.ndarray, a, b) -> Tensor:
    """Select ``a`` where ``mask`` is true, ``b`` elsewhere.

    ``mask`` is a plain boolean numpy array and is not differentiated.
    """

    a, b = astensor(a), astensor(b)
    mask = np.asarray(mask, dtype=bool)
    fa = mask.astype(a.data.dtype)
    fb = 1.0 - fa

    return Tensor._from_op(
        np.where(mask, a.data, b.data),
        [(a, lambda g: _unbroadcast(mul(g, Tensor(fa)), a.shape)),
         (b, lambda g: _unbroadcast(mul(g, Tensor(fb)), b.shape))],
        "where",
    )


def clip(a, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]`` with straight-through zero gradients outside."""

    a = astensor(a)
    mask = ((a.data >= low) & (a.data <= high)).astype(a.data.dtype)

    def vjp(g: Tensor) -> Tensor:
        return mul(g, Tensor(mask))

    return Tensor._from_op(np.clip(a.data, low, high), [(a, vjp)], "clip")


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def _swap_last(t: Tensor) -> Tensor:
    return swapaxes(t, -1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product following numpy ``@`` semantics (operands must be >=2-D)."""

    a, b = astensor(a), astensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with at least 2 dimensions")
    out_data = a.data @ b.data

    def vjp_a(g: Tensor) -> Tensor:
        return _unbroadcast(matmul(g, _swap_last(b)), a.shape)

    def vjp_b(g: Tensor) -> Tensor:
        return _unbroadcast(matmul(_swap_last(a), g), b.shape)

    return Tensor._from_op(out_data, [(a, vjp_a), (b, vjp_b)], "matmul")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    if axis is None:
        axes = tuple(range(a.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.ndim,)
    else:
        axes = tuple(ax % a.ndim for ax in axis)

    def vjp(g: Tensor) -> Tensor:
        if not keepdims and in_shape:
            expanded_shape = list(in_shape)
            for ax in axes:
                expanded_shape[ax] = 1
            g = reshape(g, tuple(expanded_shape))
        return broadcast_to(g, in_shape)

    return Tensor._from_op(out_data, [(a, vjp)], "sum")


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis % a.ndim]
    else:
        count = 1
        for ax in axis:
            count *= a.shape[ax % a.ndim]
    return div(sum(a, axis=axis, keepdims=keepdims), float(count))


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    in_shape = a.shape
    return Tensor._from_op(
        a.data.reshape(shape), [(a, lambda g: reshape(g, in_shape))], "reshape"
    )


def transpose(a, axes=None) -> Tensor:
    a = astensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(ax % a.ndim for ax in axes)
    inverse = tuple(np.argsort(axes))
    return Tensor._from_op(
        a.data.transpose(axes), [(a, lambda g: transpose(g, inverse))], "transpose"
    )


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = astensor(a)
    axes = list(range(a.ndim))
    axis1, axis2 = axis1 % a.ndim, axis2 % a.ndim
    axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
    return transpose(a, tuple(axes))


def broadcast_to(a, shape) -> Tensor:
    a = astensor(a)
    in_shape = a.shape
    out_data = np.broadcast_to(a.data, shape).copy()
    return Tensor._from_op(
        out_data, [(a, lambda g: _unbroadcast(g, in_shape))], "broadcast_to"
    )


def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    axis = axis % out_data.ndim
    # Pre-compute slice boundaries for the VJPs.
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        start, stop = int(offsets[i]), int(offsets[i + 1])

        def make_vjp(start=start, stop=stop):
            def vjp(g: Tensor) -> Tensor:
                index = [slice(None)] * out_data.ndim
                index[axis] = slice(start, stop)
                return getitem(g, tuple(index))

            return vjp

        parents.append((t, make_vjp()))
    return Tensor._from_op(out_data, parents, "concatenate")


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)


def pad(a, pad_width) -> Tensor:
    """Zero padding.  ``pad_width`` follows :func:`numpy.pad` conventions."""

    a = astensor(a)
    out_data = np.pad(a.data, pad_width)
    norm = np.empty((a.ndim, 2), dtype=int)
    pw = np.asarray(pad_width)
    if pw.ndim == 0:
        norm[:, :] = int(pw)
    elif pw.ndim == 1:
        norm[:, 0] = pw[0]
        norm[:, 1] = pw[1]
    else:
        norm[:, :] = pw

    def vjp(g: Tensor) -> Tensor:
        index = tuple(
            slice(int(norm[d, 0]), g.shape[d] - int(norm[d, 1])) for d in range(a.ndim)
        )
        return getitem(g, index)

    return Tensor._from_op(out_data, [(a, vjp)], "pad")


# ---------------------------------------------------------------------------
# Indexing
# ---------------------------------------------------------------------------


def getitem(a, index) -> Tensor:
    """Differentiable indexing (basic slices and integer-array indexing)."""

    a = astensor(a)
    out_data = a.data[index]
    in_shape = a.shape

    def vjp(g: Tensor) -> Tensor:
        return scatter_add(g, index, in_shape)

    return Tensor._from_op(out_data, [(a, vjp)], "getitem")


def scatter_add(g, index, shape) -> Tensor:
    """Scatter-add ``g`` into a zero tensor of ``shape`` at ``index``.

    This is the adjoint of :func:`getitem`; its own adjoint is ``getitem``
    with the same index, which keeps arbitrary-order differentiation closed.
    """

    g = astensor(g)
    out_data = np.zeros(shape, dtype=g.data.dtype)
    np.add.at(out_data, index, g.data)

    def vjp(h: Tensor) -> Tensor:
        return getitem(h, index)

    return Tensor._from_op(out_data, [(g, vjp)], "scatter_add")


# ---------------------------------------------------------------------------
# Operator overloads on Tensor
# ---------------------------------------------------------------------------


def _radd(a, b):
    return add(b, a)


def _rsub(a, b):
    return sub(b, a)


def _rmul(a, b):
    return mul(b, a)


def _rdiv(a, b):
    return div(b, a)


def _attach_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    )
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.T = property(lambda self: transpose(self))


_attach_operators()
