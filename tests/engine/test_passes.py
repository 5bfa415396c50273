"""Compiler passes: folding, gather lowering, fusion, DCE, custom rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad, ops
from repro.engine import (
    FUSION_RULES,
    ExecutionPlan,
    FusionRule,
    eliminate_dead_code,
    fold_constants,
    fuse_elementwise,
    optimize,
    trace,
)
from repro.models import SDNet
from repro.nn import MLP, Linear, Module, Parameter


def _run(graph, *arrays):
    return ExecutionPlan(graph).run([np.asarray(a, dtype=float) for a in arrays])


def _eager(module, *arrays):
    with no_grad():
        return module(*[Tensor(a) for a in arrays]).data


class TestFoldConstants:
    def test_weight_transpose_folds(self):
        layer = Linear(3, 4, rng=np.random.default_rng(0))
        graph = trace(layer, np.zeros((2, 3)))
        assert graph.op_counts().get("transpose") == 1
        fold_constants(graph)
        assert "transpose" not in graph.op_counts()

    def test_folded_value_is_eager_identical(self):
        layer = Linear(3, 4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 3))
        graph = optimize(trace(layer, x))
        (out,) = _run(graph, x)
        assert out.tobytes() == _eager(layer, x).tobytes()

    def test_constant_subgraphs_collapse(self):
        class WeightChain(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(4, 4, rng=np.random.default_rng(0))

            def forward(self, x):
                # reshape(transpose(W)) is a two-node constant subgraph
                folded = ops.reshape(ops.transpose(self.layer.weight), (2, 8))
                return ops.matmul(x, folded)

        graph = trace(WeightChain(), np.zeros((3, 2)))
        fold_constants(graph)
        eliminate_dead_code(graph)
        counts = graph.op_counts()
        assert "transpose" not in counts and "reshape" not in counts
        assert counts["matmul"] == 1


class TestLowerGathers:
    def test_conv_im2col_gather_becomes_take(self):
        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(2,), rng=0)
        graph = optimize(trace(net, np.zeros((2, 16)), np.zeros((2, 5, 2))))
        counts = graph.op_counts()
        assert counts.get("take", 0) >= 1
        # circular-padding slices stay as (view) getitems
        assert all(
            n.op != "getitem" or isinstance(n.attrs["index"], tuple)
            for n in graph
        )

    def test_take_matches_fancy_indexing_bitwise(self):
        net = SDNet(boundary_size=16, hidden_size=8, trunk_layers=1,
                    embedding_channels=(2,), rng=0)
        rng = np.random.default_rng(3)
        g, x = rng.normal(size=(4, 16)), rng.normal(size=(4, 5, 2))
        graph = optimize(trace(net, g, x))
        (out,) = _run(graph, g, x)
        assert out.tobytes() == _eager(net, g, x).tobytes()


class TestFusion:
    def test_gelu_chain_fuses_to_one_node(self):
        mlp = MLP([3, 8, 8, 1], activation="gelu", rng=np.random.default_rng(0))
        graph = optimize(trace(mlp, np.zeros((2, 3))))
        counts = graph.op_counts()
        assert counts == {
            "placeholder": 1, "constant": 6, "affine_gelu": 2, "affine": 1,
        }

    def test_tanh_trunk_fuses_affine_tanh(self):
        mlp = MLP([3, 8, 1], activation="tanh", rng=np.random.default_rng(0))
        graph = optimize(trace(mlp, np.zeros((2, 3))))
        assert graph.op_counts().get("affine_tanh") == 1

    def test_fused_outputs_bitwise_equal_unfused(self):
        mlp = MLP([3, 16, 16, 1], rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(9, 3))
        unfused = eliminate_dead_code(fold_constants(trace(mlp, x)))
        fused = optimize(trace(mlp, x))
        (a,) = _run(unfused, x)
        (b,) = _run(fused, x)
        assert a.tobytes() == b.tobytes() == _eager(mlp, x).tobytes()

    def test_shared_activation_input_not_absorbed(self):
        """A value consumed outside the chain must block fusion of the chain."""

        class Branchy(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 3, rng=np.random.default_rng(0))

            def forward(self, x):
                pre = self.layer(x)
                from repro.nn.activations import GELU

                return GELU()(pre) + pre  # pre has two consumers

        net = Branchy()
        x = np.random.default_rng(1).normal(size=(4, 3))
        graph = optimize(trace(net, x))
        # affine must survive un-merged into affine_gelu (two consumers)
        counts = graph.op_counts()
        assert counts.get("affine") == 1
        assert "affine_gelu" not in counts
        (out,) = _run(graph, x)
        assert out.tobytes() == _eager(net, x).tobytes()


class TestLoweringAndFusionGuards:
    def test_multi_array_index_is_left_alone(self):
        """Gathers with several index arrays must not crash the pass."""

        rows = np.array([0, 2])
        cols = np.array([1, 0])

        class CrossIndex(Module):
            def forward(self, x):
                return ops.getitem(x, (rows, cols)) * 1.0

        net = CrossIndex()
        x = np.random.default_rng(0).normal(size=(3, 2))
        graph = optimize(trace(net, x))
        assert graph.op_counts().get("getitem") == 1
        (out,) = _run(graph, x)
        assert out.tobytes() == _eager(net, x).tobytes()

    def test_widening_bias_blocks_affine_fusion(self):
        """A bias broadcasting *beyond* the matmul shape must not fuse."""

        class Widening(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(np.random.default_rng(0).normal(size=(4, 1)))
                self.bias = Parameter(np.random.default_rng(1).normal(size=(3,)))

            def forward(self, x):
                return ops.matmul(x, self.weight) + self.bias  # (2,1)+(3,)->(2,3)

        net = Widening()
        x = np.random.default_rng(2).normal(size=(2, 4))
        graph = optimize(trace(net, x))
        counts = graph.op_counts()
        assert "affine" not in counts and counts["matmul"] == 1
        (out,) = _run(graph, x)
        assert out.shape == (2, 3)
        assert out.tobytes() == _eager(net, x).tobytes()


class TestDeadCodeElimination:
    def test_unused_branch_removed_placeholders_kept(self):
        class DeadBranch(Module):
            def forward(self, x):
                _ = ops.exp(x) * 3.0  # never used
                return x + 1.0

        graph = trace(DeadBranch(), np.ones(4))
        assert "exp" in graph.op_counts()
        eliminate_dead_code(graph)
        counts = graph.op_counts()
        assert "exp" not in counts and "mul" not in counts
        assert counts["placeholder"] == 1 and counts["add"] == 1


class TestCustomFusionRules:
    def test_apply_custom_rule(self):
        # x + x -> double(x), executed via the generic fallback kernel.
        from repro.engine import kernels as kernel_mod

        def match_double(graph, node, consumers):
            a, b = node.inputs
            if a == b and not graph.node(a).is_constant:
                return {"op": "double", "inputs": (a,), "attrs": {}, "absorbed": []}
            return None

        rule = FusionRule("double-add", root_ops=("add",), matcher=match_double)
        kernel_mod._EVALUATORS["double"] = lambda v, n: v[0] + v[0]
        try:

            class SelfAdd(Module):
                def forward(self, x):
                    return x + x

            x = np.random.default_rng(0).normal(size=(5,))
            graph = fuse_elementwise(trace(SelfAdd(), x), rules=[rule])
            assert graph.op_counts().get("double") == 1
            (out,) = _run(graph, x)
            assert out.tobytes() == (x + x).tobytes()
        finally:
            del kernel_mod._EVALUATORS["double"]

    def test_rules_are_ordered(self):
        names = [rule.name for rule in FUSION_RULES]
        assert names.index("erf-gelu") < names.index("affine-activation")
        assert names.index("affine") < names.index("affine-activation")


class TestOptimizePipeline:
    def test_optimize_validates(self):
        mlp = MLP([2, 4, 1], rng=np.random.default_rng(0))
        graph = optimize(trace(mlp, np.zeros((3, 2))))
        graph.validate()  # no exception

    def test_custom_pipeline(self):
        mlp = MLP([2, 4, 1], rng=np.random.default_rng(0))
        graph = optimize(trace(mlp, np.zeros((3, 2))), passes=[eliminate_dead_code])
        # no folding requested: the weight transposes remain
        assert graph.op_counts().get("transpose") == 2
