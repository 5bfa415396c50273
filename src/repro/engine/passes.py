"""Compiler passes over the static operator graph.

The default pipeline (:data:`DEFAULT_PASSES`) applied by
:func:`~repro.engine.runtime.compile_module` is:

1. :func:`fold_constants` — evaluate every node whose operands are all
   constants once at compile time.  This freezes the weight-preprocessing
   chains of the models (``transpose(W)`` of every linear layer, the im2col
   weight reshape of the boundary convolutions), which eager mode recomputes
   on every call.  Folding runs the *eager* numpy expressions via
   :func:`~repro.engine.kernels.evaluate_node`, so folded values — often
   views of the parameter storage — are bitwise and layout identical to
   what eager mode produces.
2. :func:`lower_gathers` — rewrite advanced-indexing gathers along one axis
   (the conv ``im2col`` pattern ``x[:, :, index]``) into a ``take`` node
   backed by a preallocated flat buffer.
3. :func:`fuse_elementwise` — pattern-match elementwise chains into single
   fused kernels using the rules in :data:`FUSION_RULES`: the five-node
   erf-GELU chain becomes one ``gelu`` node, ``matmul`` + bias-``add``
   becomes ``affine``, and an ``affine`` feeding a ``gelu``/``tanh``
   exclusively becomes ``affine_gelu``/``affine_tanh``.  Fusion never
   reorders floating-point math — the fused kernels replay the identical
   ufunc sequence — so outputs stay bitwise equal to eager.
4. :func:`eliminate_dead_code` — drop every node (folded-over weights,
   absorbed chain links) that no output depends on.

Adding a new fusion rule
------------------------
Create a :class:`FusionRule` whose matcher inspects a candidate root node
and returns the fused replacement, then run the pass with it::

    def match_double(graph, node, consumers):
        # x + x  ->  scale(x, 2)   (illustrative only)
        a, b = node.inputs
        if a == b:
            return dict(op="scale", inputs=(a,), attrs={"factor": 2.0},
                        absorbed=[])
        return None

    rule = FusionRule("double-add", root_ops=("add",), matcher=match_double)
    graph = fuse_elementwise(graph, rules=[*FUSION_RULES, rule])

and add a matching kernel in :mod:`repro.engine.kernels` (``build_step`` and
``evaluate_node``).  Matchers must only absorb nodes that are consumed
exclusively inside the matched set (check ``consumers``); the replacement
keeps the root node's id, shape and dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import Graph, Node
from .kernels import evaluate_node

__all__ = [
    "FusionRule",
    "FUSION_RULES",
    "fold_constants",
    "fold_mutable_constants",
    "lower_gathers",
    "fuse_elementwise",
    "eliminate_dead_code",
    "DEFAULT_PASSES",
    "TRAINING_PASSES",
    "optimize",
]


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def fold_constants(graph: Graph, assume_frozen: bool = True) -> Graph:
    """Evaluate nodes whose operands are all constants; freeze the results.

    Folding happens in topological order, so whole constant subgraphs (e.g.
    ``reshape(transpose(W))``) collapse in one pass.  The computed values may
    alias parameter storage (views), exactly as the eager ops would produce.

    ``assume_frozen`` controls how aggressively parameter-derived subgraphs
    fold.  The default (inference pipelines) folds everything, which is only
    valid while parameters never change between calls.  With
    ``assume_frozen=False`` (the training pipeline,
    :data:`TRAINING_PASSES`), a node whose constant ancestry includes a
    module parameter is folded **only when the folded value is a view of the
    parameter's storage** (``transpose(W)``, weight reshapes, basic slices):
    in-place optimizer updates then flow into the folded constant, while any
    computation that would *bake parameter values into a fresh array* — e.g.
    ``matmul(seed, W^T)`` — is left in the graph to be recomputed per call.
    Purely parameter-free constant subgraphs (direction seeds, scalar
    arithmetic) still fold fully.
    """

    derived: set[int] = set()
    for node in graph.nodes():
        if node.is_constant:
            if node.param is not None:
                derived.add(node.id)
            continue
        if node.is_placeholder:
            continue
        parents = [graph.node(i) for i in node.inputs]
        if not (parents and all(p.is_constant for p in parents)):
            continue
        value = evaluate_node(node, [p.value for p in parents])
        value = np.asarray(value)
        derived_parents = [p for p in parents if p.id in derived]
        if derived_parents:
            # A freshly allocated result never overlaps the parameter
            # buffer, so the bounds check is an exact view test here.
            if not assume_frozen and not any(
                np.may_share_memory(value, p.value) for p in derived_parents
            ):
                continue
            derived.add(node.id)
        graph.replace_node(
            node.id, op="constant", inputs=(), attrs={}, value=value,
            shape=value.shape, dtype=value.dtype,
        )
    return graph


def fold_mutable_constants(graph: Graph) -> Graph:
    """:func:`fold_constants` in mutable-parameter (training) mode."""

    return fold_constants(graph, assume_frozen=False)


# ---------------------------------------------------------------------------
# Gather lowering
# ---------------------------------------------------------------------------


def lower_gathers(graph: Graph) -> Graph:
    """Rewrite one-axis advanced gathers into buffered ``take`` nodes.

    Matches ``getitem`` nodes whose index is a tuple of full slices followed
    by one integer index array in the final position (the conv ``im2col``
    pattern).  ``np.take`` along that axis with the flattened index selects
    the same elements, runs into a preallocated buffer, and the multi-dim
    index shape is restored with a free reshape view.
    """

    for node in graph.nodes():
        if node.op != "getitem":
            continue
        index = node.attrs.get("index")
        if not isinstance(index, tuple) or not index:
            continue
        *leading, last = index
        if not isinstance(last, np.ndarray) or last.dtype.kind not in "iu":
            continue
        if not all(
            isinstance(entry, slice) and entry == slice(None) for entry in leading
        ):
            continue
        source = graph.node(node.inputs[0])
        axis = len(index) - 1
        if axis >= len(source.shape):
            continue
        flat = np.ascontiguousarray(last.reshape(-1))
        flat_shape = (
            tuple(source.shape[:axis]) + (flat.size,) + tuple(source.shape[axis + 1:])
        )
        graph.replace_node(
            node.id,
            op="take",
            attrs={"axis": axis, "indices": flat, "flat_shape": flat_shape},
        )
    return graph


# ---------------------------------------------------------------------------
# Elementwise fusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionRule:
    """A pattern-rewrite rule applied by :func:`fuse_elementwise`.

    Attributes
    ----------
    name:
        Human-readable rule name (diagnostics).
    root_ops:
        Op names at which the matcher is attempted (the *last* node of the
        pattern, whose id/shape the fused node inherits).
    matcher:
        ``matcher(graph, root_node, consumers) -> dict | None`` returning
        ``{"op", "inputs", "attrs", "absorbed"}`` for a match.  ``consumers``
        maps node id to its total consumer count (outputs included); every
        absorbed node must be consumed only within the matched set.
    """

    name: str
    root_ops: tuple[str, ...]
    matcher: Callable[[Graph, Node, dict], dict | None]


def _const_scalar(graph: Graph, node_id: int) -> float | None:
    node = graph.node(node_id)
    if node.is_constant and node.value is not None and node.value.ndim == 0:
        return float(node.value)
    return None


def _match_gelu(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``x * (c2 * (c1 + erf(x / c0)))`` — the eager erf-GELU chain."""

    x_id, outer_id = root.inputs
    outer = graph.node(outer_id)
    if outer.op != "mul" or consumers[outer.id] != 1:
        return None
    c2 = _const_scalar(graph, outer.inputs[0])
    if c2 is None:
        return None
    inner = graph.node(outer.inputs[1])
    if inner.op != "add" or consumers[inner.id] != 1:
        return None
    c1 = _const_scalar(graph, inner.inputs[0])
    if c1 is None:
        return None
    erf_node = graph.node(inner.inputs[1])
    if erf_node.op != "erf" or consumers[erf_node.id] != 1:
        return None
    div_node = graph.node(erf_node.inputs[0])
    if div_node.op != "div" or consumers[div_node.id] != 1:
        return None
    if div_node.inputs[0] != x_id:
        return None
    c0 = _const_scalar(graph, div_node.inputs[1])
    if c0 is None:
        return None
    return {
        "op": "gelu",
        "inputs": (x_id,),
        "attrs": {"div_const": c0, "add_const": c1, "mul_const": c2},
        "absorbed": [outer.id, inner.id, erf_node.id, div_node.id],
    }


def _match_affine(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``matmul(x, W) + bias`` with a constant bias — one BLAS call + in-place add."""

    mm_id, bias_id = root.inputs
    mm = graph.node(mm_id)
    if mm.op != "matmul" or consumers[mm.id] != 1:
        return None
    if not graph.node(bias_id).is_constant:
        return None
    # The fused kernel matmuls straight into the add's output buffer, which
    # is only valid when the bias broadcasts *into* the matmul shape (the
    # Linear-layer case), not when it widens the result.
    if mm.shape != root.shape:
        return None
    return {
        "op": "affine",
        "inputs": (mm.inputs[0], mm.inputs[1], bias_id),
        "attrs": {},
        "absorbed": [mm.id],
    }


def _match_affine_activation(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """An ``affine`` consumed only by a ``gelu``/``tanh`` — one fused kernel."""

    pre = graph.node(root.inputs[0])
    if pre.op != "affine" or consumers[pre.id] != 1:
        return None
    fused_op = "affine_gelu" if root.op == "gelu" else "affine_tanh"
    return {
        "op": fused_op,
        "inputs": pre.inputs,
        "attrs": dict(root.attrs),
        "absorbed": [pre.id],
    }


# -- Faà di Bruno jet fusions -------------------------------------------------
#
# The Taylor-mode Laplacian propagates (value, d1, d2) jets through every
# activation:
#
#     value = f(v);  d1' = f'(v) * d1;  d2' = f''(v) * d1^2 + f'(v) * d2
#
# Each of f / f' / f'' expands into a chain of primitive nodes per layer
# (eager mode pays a Python dispatch and a fresh allocation per link).  The
# rules below collapse the f' and f'' chains of the GELU and Tanh
# activations, and the ``a*b^2 + c*d`` second-order combination, into single
# preallocated kernels that replay the identical ufunc sequence — so jet
# programs stay bitwise equal to eager mode while dropping most of the
# per-op overhead.  (The f chain of the GELU is already covered by the
# ``erf-gelu`` rule above.)


def _match_phi_chain(graph: Graph, node_id: int, x_id: int, consumers: dict):
    """``c_phi * exp(c_neg_half * (x * x))`` — the standard normal PDF chain.

    Returns ``(absorbed_ids, phi_const, neg_half_const)`` or ``None``; every
    chain node must be exclusively consumed.
    """

    p = graph.node(node_id)
    if p.op != "mul" or consumers[p.id] != 1:
        return None
    phi_const = _const_scalar(graph, p.inputs[0])
    if phi_const is None:
        return None
    e = graph.node(p.inputs[1])
    if e.op != "exp" or consumers[e.id] != 1:
        return None
    m2 = graph.node(e.inputs[0])
    if m2.op != "mul" or consumers[m2.id] != 1:
        return None
    neg_half = _const_scalar(graph, m2.inputs[0])
    if neg_half is None:
        return None
    m1 = graph.node(m2.inputs[1])
    if m1.op != "mul" or consumers[m1.id] != 1:
        return None
    if m1.inputs != (x_id, x_id):
        return None
    return ([p.id, e.id, m2.id, m1.id], phi_const, neg_half)


def _match_gelu_d1(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``Phi(x) + x * phi(x)`` — the eager GELU first-derivative chain."""

    if len(root.inputs) != 2:
        return None
    big_phi_id, xp_id = root.inputs
    big_phi = graph.node(big_phi_id)
    # Phi(x) = half * (one + erf(x / sqrt2))
    if big_phi.op != "mul" or consumers[big_phi.id] != 1:
        return None
    half = _const_scalar(graph, big_phi.inputs[0])
    if half is None:
        return None
    inner = graph.node(big_phi.inputs[1])
    if inner.op != "add" or consumers[inner.id] != 1:
        return None
    one = _const_scalar(graph, inner.inputs[0])
    if one is None:
        return None
    erf_node = graph.node(inner.inputs[1])
    if erf_node.op != "erf" or consumers[erf_node.id] != 1:
        return None
    div_node = graph.node(erf_node.inputs[0])
    if div_node.op != "div" or consumers[div_node.id] != 1:
        return None
    x_id = div_node.inputs[0]
    sqrt2 = _const_scalar(graph, div_node.inputs[1])
    if sqrt2 is None:
        return None
    xp = graph.node(xp_id)
    if xp.op != "mul" or consumers[xp.id] != 1 or xp.inputs[0] != x_id:
        return None
    if graph.node(x_id).shape != root.shape:
        return None
    phi = _match_phi_chain(graph, xp.inputs[1], x_id, consumers)
    if phi is None:
        return None
    phi_nodes, phi_const, neg_half = phi
    return {
        "op": "gelu_d1",
        "inputs": (x_id,),
        "attrs": {
            "div_const": sqrt2, "one_const": one, "half_const": half,
            "neg_half_const": neg_half, "phi_const": phi_const,
        },
        "absorbed": [big_phi.id, inner.id, erf_node.id, div_node.id, xp.id,
                     *phi_nodes],
    }


def _match_gelu_d2(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``phi(x) * (two - x * x)`` — the eager GELU second-derivative chain."""

    if len(root.inputs) != 2:
        return None
    p_id, s_id = root.inputs
    s = graph.node(s_id)
    if s.op != "sub" or consumers[s.id] != 1:
        return None
    two = _const_scalar(graph, s.inputs[0])
    if two is None:
        return None
    sq = graph.node(s.inputs[1])
    if sq.op != "mul" or consumers[sq.id] != 1:
        return None
    if sq.inputs[0] != sq.inputs[1]:
        return None
    x_id = sq.inputs[0]
    if graph.node(x_id).shape != root.shape:
        return None
    phi = _match_phi_chain(graph, p_id, x_id, consumers)
    if phi is None:
        return None
    phi_nodes, phi_const, neg_half = phi
    return {
        "op": "gelu_d2",
        "inputs": (x_id,),
        "attrs": {
            "neg_half_const": neg_half, "phi_const": phi_const,
            "two_const": two,
        },
        "absorbed": [s.id, sq.id, *phi_nodes],
    }


def _match_tanh_d1(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``one - tanh(v)^2`` — the eager Tanh first-derivative chain."""

    one = _const_scalar(graph, root.inputs[0])
    if one is None:
        return None
    sq = graph.node(root.inputs[1])
    if sq.op != "mul" or consumers[sq.id] != 1 or sq.inputs[0] != sq.inputs[1]:
        return None
    t = graph.node(sq.inputs[0])
    if t.op != "tanh" or consumers[t.id] != 2:
        return None
    if graph.node(t.inputs[0]).shape != root.shape:
        return None
    return {
        "op": "tanh_d1",
        "inputs": (t.inputs[0],),
        "attrs": {"one_const": one},
        "absorbed": [sq.id, t.id],
    }


def _match_tanh_d2(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``(neg_two * tanh(v)) * (one - tanh(v)^2)`` — Tanh second derivative."""

    if len(root.inputs) != 2:
        return None
    ma = graph.node(root.inputs[0])
    if ma.op != "mul" or consumers[ma.id] != 1:
        return None
    neg_two = _const_scalar(graph, ma.inputs[0])
    if neg_two is None:
        return None
    t_id = ma.inputs[1]
    inner = graph.node(root.inputs[1])
    if inner.op != "sub" or consumers[inner.id] != 1:
        return None
    one = _const_scalar(graph, inner.inputs[0])
    if one is None:
        return None
    sq = graph.node(inner.inputs[1])
    if sq.op != "mul" or consumers[sq.id] != 1 or sq.inputs != (t_id, t_id):
        return None
    t = graph.node(t_id)
    if t.op != "tanh" or consumers[t.id] != 3:
        return None
    if graph.node(t.inputs[0]).shape != root.shape:
        return None
    return {
        "op": "tanh_d2",
        "inputs": (t.inputs[0],),
        "attrs": {"neg_two_const": neg_two, "one_const": one},
        "absorbed": [ma.id, inner.id, sq.id, t.id],
    }


def _match_jet_d2(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``second * (d1 * d1) + first * d2`` — the jet second-order combine.

    The pattern is matched structurally, so it also fires on any other
    ``a*b^2 + c*d`` site; the fused kernel replays the identical ufunc
    sequence, which keeps that safe.
    """

    if len(root.inputs) != 2:
        return None
    t2 = graph.node(root.inputs[0])
    if t2.op != "mul" or consumers[t2.id] != 1:
        return None
    t1 = graph.node(t2.inputs[1])
    if t1.op != "mul" or consumers[t1.id] != 1 or t1.inputs[0] != t1.inputs[1]:
        return None
    t3 = graph.node(root.inputs[1])
    if t3.op != "mul" or consumers[t3.id] != 1:
        return None
    # The fused kernel writes every stage into root-shaped buffers, so no
    # operand may broadcast.
    operands = (t2.inputs[0], t1.inputs[0], t3.inputs[0], t3.inputs[1])
    if any(graph.node(i).shape != root.shape for i in operands):
        return None
    if t1.shape != root.shape or t2.shape != root.shape or t3.shape != root.shape:
        return None
    return {
        "op": "jet_d2",
        "inputs": (t2.inputs[0], t1.inputs[0], t3.inputs[0], t3.inputs[1]),
        "attrs": {},
        "absorbed": [t2.id, t1.id, t3.id],
    }


def _match_erf_vjp(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``g * (coeff * exp(-(a * a)))`` — the traced reverse chain of ``erf``.

    One of these appears per erf site in a traced backward pass (the GELU's
    ``Phi`` chains); fusing it collapses five dispatches into one kernel.
    """

    if len(root.inputs) != 2:
        return None
    g_id, outer_id = root.inputs
    outer = graph.node(outer_id)
    if outer.op != "mul" or consumers[outer.id] != 1:
        return None
    coeff = _const_scalar(graph, outer.inputs[0])
    if coeff is None:
        return None
    e = graph.node(outer.inputs[1])
    if e.op != "exp" or consumers[e.id] != 1:
        return None
    ng = graph.node(e.inputs[0])
    if ng.op != "neg" or consumers[ng.id] != 1:
        return None
    sq = graph.node(ng.inputs[0])
    if sq.op != "mul" or consumers[sq.id] != 1 or sq.inputs[0] != sq.inputs[1]:
        return None
    a_id = sq.inputs[0]
    if graph.node(a_id).shape != root.shape or graph.node(g_id).shape != root.shape:
        return None
    return {
        "op": "erf_vjp",
        "inputs": (g_id, a_id),
        "attrs": {"coeff_const": coeff},
        "absorbed": [outer.id, e.id, ng.id, sq.id],
    }


def _match_mul_exp(graph: Graph, root: Node, consumers: dict) -> dict | None:
    """``g * exp(a)`` — the traced reverse chain of ``exp`` (which recomputes)."""

    if len(root.inputs) != 2:
        return None
    g_id, e_id = root.inputs
    e = graph.node(e_id)
    if e.op != "exp" or consumers[e.id] != 1:
        return None
    if e.shape != root.shape or graph.node(g_id).shape != root.shape:
        return None
    return {
        "op": "mul_exp",
        "inputs": (g_id, e.inputs[0]),
        "attrs": {},
        "absorbed": [e.id],
    }


#: The built-in fusion rules, applied in order by :func:`fuse_elementwise`.
FUSION_RULES: list[FusionRule] = [
    FusionRule("erf-gelu", root_ops=("mul",), matcher=_match_gelu),
    FusionRule("affine", root_ops=("add",), matcher=_match_affine),
    FusionRule(
        "affine-activation", root_ops=("gelu", "tanh"),
        matcher=_match_affine_activation,
    ),
    FusionRule("gelu-d1", root_ops=("add",), matcher=_match_gelu_d1),
    FusionRule("gelu-d2", root_ops=("mul",), matcher=_match_gelu_d2),
    FusionRule("tanh-d1", root_ops=("sub",), matcher=_match_tanh_d1),
    FusionRule("tanh-d2", root_ops=("mul",), matcher=_match_tanh_d2),
    FusionRule("jet-d2-combine", root_ops=("add",), matcher=_match_jet_d2),
    FusionRule("erf-vjp", root_ops=("mul",), matcher=_match_erf_vjp),
    FusionRule("exp-vjp", root_ops=("mul",), matcher=_match_mul_exp),
]


def fuse_elementwise(graph: Graph, rules: list[FusionRule] | None = None) -> Graph:
    """Apply the fusion rules over the graph (each rule scans once, in order)."""

    for rule in FUSION_RULES if rules is None else rules:
        consumers = graph.consumer_counts()
        for node in graph.nodes():
            if node.id not in graph or node.op not in rule.root_ops:
                continue
            match = rule.matcher(graph, node, consumers)
            if match is None:
                continue
            graph.fuse(
                node.id, match["absorbed"], match["op"], match["inputs"],
                match.get("attrs"),
            )
            consumers = graph.consumer_counts()
    return graph


# ---------------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------------


def eliminate_dead_code(graph: Graph) -> Graph:
    """Remove every node no output transitively depends on.

    Placeholders are always kept — they define the compiled call signature
    even when an input does not influence the outputs.
    """

    live: set[int] = set(graph.inputs)
    stack = list(graph.outputs)
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        stack.extend(graph.node(nid).inputs)
    dead = [node.id for node in graph.nodes() if node.id not in live]
    graph.remove_nodes(dead)
    return graph


#: The default pass pipeline, in application order.
DEFAULT_PASSES = (fold_constants, lower_gathers, fuse_elementwise, eliminate_dead_code)

#: The training pipeline: identical except constant folding never bakes
#: parameter values into fresh arrays, so in-place optimizer updates keep
#: flowing into compiled loss-and-gradient programs without re-tracing.
TRAINING_PASSES = (
    fold_mutable_constants, lower_gathers, fuse_elementwise, eliminate_dead_code
)


def optimize(graph: Graph, passes=None) -> Graph:
    """Run a pass pipeline (default: :data:`DEFAULT_PASSES`) over ``graph``."""

    for pass_fn in DEFAULT_PASSES if passes is None else passes:
        graph = pass_fn(graph)
    graph.validate()
    return graph
