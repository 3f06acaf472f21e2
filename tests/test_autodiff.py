"""Gradient checks for the reverse-mode engine against central finite differences."""

import numpy as np
import pytest

from commodgen.autodiff import (AdamState, NumericOverflowError, ParamSet, Tensor,
                                adam_step, clip_by_global_norm, concat, logsumexp,
                                no_grad)
from commodgen.nets import Mlp, RecurrentCell, states_to_sequence, unroll_states


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        old = xf[i]
        xf[i] = old + h
        up = f(x)
        xf[i] = old - h
        down = f(x)
        xf[i] = old
        flat[i] = (up - down) / (2.0 * h)
    return g


def check_grad(build, x: np.ndarray, rtol: float = 1e-5):
    """Compare autodiff gradient of scalar build(Tensor) with finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    num = numeric_grad(lambda a: build(Tensor(a)).item(), x.copy())
    scale = np.maximum(np.abs(num), 1.0)
    np.testing.assert_allclose(t.grad, num, atol=rtol, rtol=0)
    assert np.max(np.abs(t.grad - num) / scale) < rtol


class TestOpGradients:
    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        assert y.item() == 9.0
        assert float(x.grad) == 6.0

    def test_tanh_sigmoid_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        y = x.tanh()
        y.backward()
        assert y.item() == 0.0
        assert float(x.grad) == 1.0
        assert Tensor(0.0).sigmoid().item() == 0.5

    def test_matmul_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (3, 5)
        out.sum().backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 5)
        with pytest.raises(ValueError):
            _ = Tensor(np.ones((3, 4))) @ Tensor(np.ones((3, 4)))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul", "exp", "log",
                                    "sqrt", "tanh", "sigmoid", "softplus", "pow",
                                    "sum", "mean", "slice", "reshape", "transpose",
                                    "concat", "logsumexp", "logsumexp_axis0_keepdims"])
    def test_each_op_matches_finite_differences(self, op):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5))
        other = rng.standard_normal((4, 5))
        mat = rng.standard_normal((5, 3))
        builds = {
            "add": lambda t: (t + Tensor(other)).sum(),
            "sub": lambda t: (t - Tensor(other) * 0.5).sum(),
            "mul": lambda t: (t * Tensor(other)).sum(),
            "div": lambda t: (t / Tensor(np.abs(other) + 1.0)).sum(),
            "matmul": lambda t: (t @ Tensor(mat)).sum(),
            "exp": lambda t: t.exp().sum(),
            "log": lambda t: (t * t + 0.5).log().sum(),
            "sqrt": lambda t: (t * t + 1.0).sqrt().sum(),
            "tanh": lambda t: t.tanh().sum(),
            "sigmoid": lambda t: t.sigmoid().sum(),
            "softplus": lambda t: t.softplus().sum(),
            "pow": lambda t: (t ** 2).sum(),
            "sum": lambda t: t.sum(axis=1).sum(),
            "mean": lambda t: t.mean(axis=0).sum(),
            "slice": lambda t: (t[1:3, ::2] * 2.0).sum(),
            "reshape": lambda t: t.reshape((2, 10)).sum(axis=0).sum(),
            "transpose": lambda t: (t.transpose() @ Tensor(other)).sum(),
            "concat": lambda t: concat([t, t * 2.0], axis=1).sum(),
            "logsumexp": lambda t: logsumexp(t, axis=1).sum(),
            "logsumexp_axis0_keepdims":
                lambda t: (logsumexp(t, axis=0, keepdims=True) * Tensor(other[:1])).sum(),
        }
        check_grad(builds[op], x)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("keepdims", [True, False])
    def test_logsumexp_matches_composed_chain(self, axis, keepdims):
        def composed(t):
            """The sub/exp/sum/log/add chain of ops that `logsumexp` fuses."""
            shift = np.max(t.data, axis=axis, keepdims=True)
            shift = np.where(np.isfinite(shift), shift, 0.0)
            out = ((t - shift).exp().sum(axis=axis, keepdims=True)).log() + shift
            if not keepdims:
                out = out.reshape(np.squeeze(out.data, axis=axis).shape)
            return out

        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 7))
        x[2] *= 300.0       # a row and a column spread over several hundred
        x[:, 4] *= 300.0
        weights = rng.standard_normal(np.max(x, axis=axis, keepdims=keepdims).shape)
        results = []
        for fn in (lambda t: logsumexp(t, axis=axis, keepdims=keepdims), composed):
            t = Tensor(x.copy(), requires_grad=True)
            out = fn(t)
            (out * Tensor(weights)).sum().backward()
            results.append((out.data, t.grad))
        (native, native_grad), (chain, chain_grad) = results
        assert native.shape == chain.shape
        assert np.array_equal(native, chain)
        assert np.array_equal(native_grad, chain_grad)

    def test_broadcast_gradients(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal((1, 5))
        full = rng.standard_normal((4, 5))
        check_grad(lambda t: ((t + Tensor(full)) * Tensor(full)).sum(), row)
        col = rng.standard_normal((4, 1))
        check_grad(lambda t: (Tensor(full) / (t * t + 1.0)).sum(), col)

    def test_fancy_index_accumulates_duplicates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        y = x[idx].sum()
        y.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0])

    def test_randomized_mlp_gradients(self):
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            params = ParamSet(seed=trial)
            net = Mlp(params, "f", 3, 6, 2, layers=2)
            x = rng.standard_normal((7, 3))
            target = rng.standard_normal((7, 2))

            def loss_value():
                out = net(Tensor(x))
                diff = out - Tensor(target)
                return (diff * diff).mean()

            loss_value().backward()
            grads = params.take_grads()
            for name in params.names():
                p = params[name]
                base = p.data.copy()

                def f(arr):
                    p.data = arr
                    val = loss_value().item()
                    p.data = base
                    return val

                num = numeric_grad(f, base.copy())
                scale = np.maximum(np.abs(num), 1.0)
                assert np.max(np.abs(grads[name] - num) / scale) < 1e-5, name

    def test_recurrent_cell_gradients(self):
        rng = np.random.default_rng(11)
        params = ParamSet(seed=2)
        cell = RecurrentCell(params, "c", 2, 3)
        xs = rng.standard_normal((4, 5, 2))

        def loss_value():
            seq = states_to_sequence(unroll_states(cell, Tensor(xs)))
            return (seq * seq).mean()

        loss_value().backward()
        grads = params.take_grads()
        name = "c.wz"
        p = params[name]
        base = p.data.copy()

        def f(arr):
            p.data = arr
            val = loss_value().item()
            p.data = base
            return val

        num = numeric_grad(f, base.copy())
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(grads[name] - num) / scale) < 1e-5


class TestGraphDiscipline:
    def test_forward_is_pure(self):
        x = np.array([1.0, 2.0, 3.0])
        t = Tensor(x.copy(), requires_grad=True)
        snapshot = t.data.copy()
        y = ((t * 2.0).exp() + t.tanh()).sum()
        y.backward()
        np.testing.assert_array_equal(t.data, snapshot)
        y2 = ((Tensor(x, requires_grad=True) * 2.0).exp() + Tensor(x).tanh()).sum()
        assert y.item() == y2.item()  # bit-identical repeat

    def test_second_backward_raises(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()
        # shared subgraph counts as consumed too
        a = Tensor(1.5, requires_grad=True)
        mid = a * a
        out1 = mid * 2.0
        out1.backward()
        out2 = mid * 3.0
        with pytest.raises(RuntimeError):
            out2.backward()

    def test_constant_branches_record_no_graph(self):
        c = (Tensor(np.ones(3)) * 4.0).exp()
        assert not c.requires_grad and c._parents == ()
        with no_grad():
            p = Tensor(np.ones(3), requires_grad=True)
            out = (p * 2.0).sum()
        assert not out.requires_grad

    def test_overflow_raises_with_op_name(self):
        big = Tensor(np.array([800.0]), requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # as the CLI runs
            with pytest.raises(NumericOverflowError, match="exp"):
                big.exp()
            with pytest.raises(NumericOverflowError, match="log"):
                Tensor(np.array([-1.0])).log()
            with pytest.raises(NumericOverflowError, match="div"):
                Tensor(np.ones(2)) / Tensor(np.zeros(2))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericOverflowError, match="exp"):
                big.exp()

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.array([np.nan]))

    def test_grad_accumulates_across_traces_until_taken(self):
        params = ParamSet(seed=0)
        w = params.add("w", np.array(1.0))
        (w * 3.0).backward()
        (w * 4.0).backward()
        grads = params.take_grads()
        assert float(grads["w"]) == 7.0
        assert w.grad is None


class TestOptimiser:
    def test_zero_grad_is_identity(self):
        params = ParamSet(seed=0)
        params.add("w", np.array([1.0, -2.0]))
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        params = ParamSet(seed=0)
        params.add("w", np.array([0.0, 0.0]))
        state = AdamState(lr=0.05)
        adam_step(params, {"w": np.array([3.0, -0.5])}, state)
        # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
        np.testing.assert_allclose(params["w"].data, [-0.05, 0.05], rtol=1e-6)

    def test_lr_zero_changes_nothing(self):
        params = ParamSet(seed=0)
        params.add("w", np.array([2.0]))
        state = AdamState(lr=0.0)
        adam_step(params, {"w": np.array([10.0])}, state)
        assert params["w"].data[0] == 2.0

    def test_adam_converges_on_quadratic(self):
        params = ParamSet(seed=0)
        w = params.add("w", np.array([5.0, -3.0]))
        state = AdamState(lr=0.2)
        for _ in range(400):
            loss = (w * w).sum()
            loss.backward()
            adam_step(params, params.take_grads(), state)
        assert float((w.data ** 2).sum()) < 1e-6

    def test_clip_by_global_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
        clipped, norm = clip_by_global_norm(grads, max_norm=1.0)
        assert norm == 5.0
        np.testing.assert_allclose(clipped["a"], [0.6, 0.8])
        same, norm2 = clip_by_global_norm(grads, max_norm=10.0)
        np.testing.assert_array_equal(same["a"], [3.0, 4.0])
        assert norm2 == 5.0


class TestParamSet:
    def test_init_is_order_independent(self):
        p1 = ParamSet(seed=9)
        p1.add_xavier("a", 4, 3)
        p1.add_xavier("b", 4, 3)
        p2 = ParamSet(seed=9)
        p2.add_xavier("b", 4, 3)
        p2.add_xavier("a", 4, 3)
        np.testing.assert_array_equal(p1["a"].data, p2["a"].data)
        np.testing.assert_array_equal(p1["b"].data, p2["b"].data)

    def test_duplicate_name_rejected(self):
        p = ParamSet()
        p.add_zeros("w", (2,))
        with pytest.raises(ValueError):
            p.add_zeros("w", (2,))

    def test_state_roundtrip(self):
        p = ParamSet(seed=1)
        p.add_xavier("w", 3, 3)
        q = ParamSet(seed=1)
        q.load_state({name: t.data for name, t in p.items()})
        np.testing.assert_array_equal(q["w"].data, p["w"].data)

