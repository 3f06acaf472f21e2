"""Gradient checks for the reverse-mode engine and the fused ops built on it,
against central finite differences and against the chains of small ops they
fuse."""

import math
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from commodgen.autodiff import NumericOverflowError, Optimizer, ParamSet, Tensor, concat, no_grad
from commodgen import generators as G, losses
from commodgen.generators import TrainConfig
from commodgen.hedging import replicate_terminal
from commodgen.losses import _signature_block, transition_moment_loss
from commodgen.nets import Mlp, RecurrentCell
from commodgen.signature import sig_length
from test_hedging import REPLICATE_SPECS, reference_replicate_terminal, replicate_case
from test_losses import reference_gs_sweeps, reference_transition_loss
from test_signature import reference_signature_block


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
                                    "sqrt", "tanh", "sigmoid", "softplus",
                                    "sum", "mean", "slice", "reshape", "transpose",
                                    "concat", "gated_scan", "mlp"])
    def test_each_op_matches_finite_differences(self, op):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5))
        other = rng.standard_normal((4, 5))
        mat = rng.standard_normal((5, 3))
        cell = recurrent_cell([rng.standard_normal(shape)
                               for shape in ((5, 5), (5, 5), (5,), (5, 5), (5, 5), (5,))])
        net = Mlp(ParamSet(seed=7), "f", 5, 4, 3, layers=2)
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
            "sum": lambda t: t.sum(axis=1).sum(),
            "mean": lambda t: t.mean(axis=0).sum(),
            "slice": lambda t: (t[1:3, ::2] * 2.0).sum(),
            "reshape": lambda t: t.reshape((2, 10)).sum(axis=0).sum(),
            "transpose": lambda t: (t.transpose() @ Tensor(other)).sum(),
            "concat": lambda t: concat([t, t * 2.0], axis=1).sum(),
            # the input as two steps: the first also reaches the second through the state
            "gated_scan": lambda t: (cell(t.reshape((2, 2, 5)))
                                     * Tensor(other.reshape((2, 2, 5)))).sum(),
            "mlp": lambda t: (net(t) * Tensor(mat[:4])).sum(),
        }
        check_grad(builds[op], x)

    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_mlp_matches_affine_tanh_chain(self, layers, x_grad):
        """An `Mlp` call against the chain oracle: value, input gradient
        and every parameter gradient bit-identical, with the net called
        twice in one graph, so each parameter accumulates two gradients."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 4))
        weights = [rng.standard_normal((6, 3)) for _ in range(2)]
        state = None
        results = []
        for fn in (Mlp.__call__, reference_mlp):
            params = ParamSet(seed=3)
            net = Mlp(params, "f", 4, 5, 3, layers)
            state = state or {name: rng.standard_normal(p.shape) for name, p in params.items()}
            params.load_state(state)
            xt = Tensor(x.copy(), requires_grad=x_grad)
            out = fn(net, xt)
            loss = ((out * Tensor(weights[0])).sum()
                    + (fn(net, xt * 0.5) * Tensor(weights[1])).sum())
            loss.backward()
            results.append([out.data, xt.grad] + list(params.take_grads().values()))
        assert (results[0][1] is not None) == x_grad
        for fused, chain in zip(*results):
            assert (fused is None) == (chain is None)
            assert fused is None or np.array_equal(fused, chain)

    @pytest.mark.parametrize("name", ["f.w0", "f.b0", "f.w1", "f.b1", "f.w2", "f.b2"])
    def test_mlp_matches_finite_differences(self, name):
        """Each parameter's gradient (the input's is checked with the other
        ops above)."""
        rng = np.random.default_rng(22)
        params = ParamSet(seed=4)
        net = Mlp(params, "f", 4, 5, 3, layers=2)
        params.load_state({name: rng.standard_normal(p.shape) for name, p in params.items()})
        x = rng.standard_normal((6, 4))
        weights = rng.standard_normal((6, 3))
        p = params[name]

        def loss(arr):
            p.data = arr
            return (net(Tensor(x)) * Tensor(weights)).sum()

        loss(p.data.copy()).backward()
        num = numeric_grad(lambda a: loss(a).item(), p.data.copy())
        np.testing.assert_allclose(params.take_grads()[name], num, atol=1e-5, rtol=0)

    def test_mlp_shape_errors_and_no_graph(self):
        params = ParamSet(seed=5)
        net = Mlp(params, "f", 3, 4, 2, layers=1)
        for shape in ((), (6, 4), (2, 6, 4)):
            with pytest.raises(ValueError,
                               match=re.escape(f"mlp needs an (..., 3) input, got shape {shape}")):
                net(Tensor(np.ones(shape)))
        x = Tensor(np.random.default_rng(5).standard_normal((6, 3)), requires_grad=True)
        with no_grad():
            out = net(x)
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(out.data, reference_mlp(net, x).data)

    @pytest.mark.parametrize("x_grad,twice", [(True, True), (False, True), (False, False),
                                              (True, False)])
    def test_gated_step_matches_op_chain(self, x_grad, twice):
        """A `RecurrentCell` run against the chain oracle stepped by hand: value and
        every gradient bit-identical, with and without an input gradient,
        and with one cell run twice in one graph, as `CausalCritic` runs on
        real and fake paths."""
        rng = np.random.default_rng(23)
        values = gated_scan_values(rng)
        weights = [rng.standard_normal((6, 5, 3)) for _ in range(2)]
        results = []
        for fn in (RecurrentCell.__call__, reference_scan):
            xs = Tensor(values[0].copy(), requires_grad=x_grad)
            cell = recurrent_cell(values[1:])
            out = fn(cell, xs)
            loss = (out * Tensor(weights[0])).sum()
            if twice:
                loss = loss + (fn(cell, xs * 0.5) * Tensor(weights[1])).sum()
            loss.backward()
            results.append([out.data, xs.grad] + [t.grad for t in cell.params])
        assert (results[0][1] is not None) == x_grad
        for fused, chain in zip(*results):
            assert (fused is None) == (chain is None)
            assert fused is None or np.array_equal(fused, chain)

    def test_gated_step_unroll_matches_op_chain(self):
        """Ten steps into a head that reads every state: each parameter
        gathers one contribution per step, each state one from the head and
        three from the next step, and the input sequence one per step."""
        rng = np.random.default_rng(25)
        values = [rng.standard_normal((6, 10, 2))] + gated_scan_values(rng)[1:]
        head = rng.standard_normal((3, 2))
        results = []
        for fn in (RecurrentCell.__call__, reference_scan):
            xs, cell = Tensor(values[0].copy(), requires_grad=True), recurrent_cell(values[1:])
            seq = fn(cell, xs)
            out = (seq.reshape((60, 3)) @ Tensor(head)).tanh()
            (out * out).mean().backward()
            results.append([seq.data, xs.grad] + [t.grad for t in cell.params])
        for fused, chain in zip(*results):
            assert np.array_equal(fused, chain)

    @pytest.mark.parametrize("operand", range(7))
    def test_gated_step_matches_finite_differences(self, operand):
        """The input sequence's gradient (operand 0) and each parameter's,
        in gate order."""
        values = gated_scan_values(np.random.default_rng(26))
        weights = np.random.default_rng(27).standard_normal((6, 5, 3))
        cell = recurrent_cell(values[1:])
        leaf = (Tensor(values[0], requires_grad=True),) + cell.params

        def loss(arr):
            leaf[operand].data = arr
            return (cell(leaf[0]) * Tensor(weights)).sum()

        loss(values[operand].copy()).backward()
        num = numeric_grad(lambda a: loss(a).item(), values[operand].copy())
        np.testing.assert_allclose(leaf[operand].grad, num, atol=1e-5, rtol=0)

    def test_gated_step_shape_errors_and_no_graph(self):
        values = gated_scan_values(np.random.default_rng(28))
        xs, cell = Tensor(values[0], requires_grad=True), recurrent_cell(values[1:])
        for shape in ((6, 5, 3), (6, 2)):
            with pytest.raises(ValueError, match=r"gated_scan needs an \(n, T, 2\) sequence, "
                                                 rf"got shape \({shape[0]}, {shape[1]}"):
                cell(Tensor(np.ones(shape)))
        with no_grad():
            out = cell(xs)
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(out.data, reference_scan(cell, xs).data)

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
            seq = cell(Tensor(xs))
            return (seq * seq).mean()

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


def reference_mlp(net, x):
    """An `Mlp` call as the chain of small ops it fuses: the oracle for the
    fused op's value and gradients."""
    for w, b in net.layers[:-1]:
        x = (x @ w + b).tanh()
    w, b = net.layers[-1]
    return x @ w + b


def gated_scan_values(rng):
    """An input sequence xs (6, 5, 2) and the cell's six parameters (input
    2, state 3) in gate order: wz, uz, bz, wc, uc, bc."""
    shapes = ((6, 5, 2), (2, 3), (3, 3), (3,), (2, 3), (3, 3), (3,))
    return [rng.standard_normal(shape) for shape in shapes]


def recurrent_cell(weights):
    """A `RecurrentCell` holding `weights`, its six parameters in gate order."""
    params = ParamSet()
    cell = RecurrentCell(params, "c", *weights[0].shape)
    names = [f"c.{kind}{gate}" for gate in "zc" for kind in "wub"]
    params.load_state(dict(zip(names, weights)))
    return cell


def reference_gated_step(x, s, wz, uz, bz, wc, uc, bc):
    """The recurrent step as a chain of small ops: the oracle for the fused
    op's value and gradients."""
    z = (x @ wz + s @ uz + bz).sigmoid()
    c = (x @ wc + s @ uc + bc).tanh()
    return z * s + (Tensor(1.0) - z) * c


def reference_scan(cell, xs):
    """A `RecurrentCell` run as the chain it fuses: each step's input sliced
    from xs, stepped through `reference_gated_step` from a zero state, and
    the states concatenated along time."""
    n, seq_len, _ = xs.shape
    state = Tensor(np.zeros((n, cell.params[1].shape[0])))
    states = []
    for t in range(seq_len):
        state = reference_gated_step(xs[:, t, :], state, *cell.params)
        states.append(state.reshape((n, 1, state.shape[1])))
    return concat(states, axis=1)


def reference_mlp_on_rows(net, x):
    """An `Mlp` on x (..., k) as the reshape -> `reference_mlp` -> reshape
    chain over its rows: the oracle for a call on any leading shape."""
    k = x.shape[-1]
    rows = reference_mlp(net, x.reshape((-1, k)))
    return rows.reshape(tuple(x.shape[:-1]) + (rows.shape[-1],))


def assert_matches_oracle(build, fused, chain, seed_grad, bound=None):
    """A fused op against its chain oracle: each is run under `no_grad`,
    where it must record no graph, then with a graph, from which
    `seed_grad` is backpropagated.

    `build(fn)` makes fresh leaves for `fn`, the fused op or the chain, and
    returns (run, leaves): `run()` gives the output tensor, or a tuple of it
    and further results to compare with ==.  Both runs' values must be
    bit-identical, and so must every leaf's gradient; with `bound`, each
    value and gradient may instead differ from the chain's by that fraction
    of the chain's largest entry.  Returns the fused op's results from the
    run with a graph."""

    def same(f, c):
        if bound is None:
            return np.array_equal(f, c)
        return np.max(np.abs(f - c)) <= bound * np.max(np.abs(c))

    results = []
    for fn in (fused, chain):
        run, leaves = build(fn)
        with no_grad():
            still = run()
        out = run()
        still, out = (r if isinstance(r, tuple) else (r,) for r in (still, out))
        assert not still[0].requires_grad and still[0]._parents == ()
        if out[0].requires_grad:
            out[0].backward(seed_grad)
        results.append((still, out, [leaf.grad for leaf in leaves]))
    (f_still, f_out, f_grads), (c_still, c_out, c_grads) = results
    for fused_run, chain_run in ((f_still, c_still), (f_out, c_out)):
        assert same(fused_run[0].data, chain_run[0].data)
        assert fused_run[1:] == chain_run[1:]
    assert f_out[0].requires_grad == c_out[0].requires_grad
    assert len(f_grads) == len(c_grads)
    for f, c in zip(f_grads, c_grads):
        assert (f is None) == (c is None)
        assert f is None or same(f, c)
    return f_out


# a fixed set of drawn cases, the same on every run, with nothing stored
RANDOM_SHAPES = settings(derandomize=True, database=None, deadline=None, max_examples=100)
BATCH, STEPS, WIDTH = st.integers(1, 300), st.integers(1, 30), st.integers(1, 16)
SEED = st.integers(0, 2**32 - 1)


class TestKernelsOnRandomShapes:
    """Each of the seven fused ops against its chain oracle on drawn shapes,
    through `assert_matches_oracle`: value without a graph, then value and
    every gradient under a drawn seed gradient, all bit-identical (the
    signature's value and gradient within 1e-12 of the chain's largest
    entry).  Each test has a batch-1 example and one at the shape a
    benchmark workload runs."""

    @RANDOM_SHAPES
    @given(n=BATCH, steps=STEPS, in_dim=WIDTH, state_dim=WIDTH, x_grad=st.booleans(),
           twice=st.booleans(), seed=SEED)
    @example(n=1, steps=1, in_dim=1, state_dim=1, x_grad=True, twice=False, seed=0)
    @example(n=64, steps=30, in_dim=4, state_dim=32, x_grad=False, twice=True, seed=0)
    def test_recurrent_cell_matches_op_chain(self, n, steps, in_dim, state_dim, x_grad, twice,
                                             seed):
        """`twice` runs the cell on two inputs in one graph, so each
        parameter gathers two gradients, as `CausalCritic` runs on real and
        fake paths; the input's gradient from `x * 0.5` arrives before the
        cell's own."""
        rng = np.random.default_rng(seed)
        shapes = [(in_dim, state_dim), (state_dim, state_dim), (state_dim,)] * 2
        weights = [rng.standard_normal(shape) for shape in shapes]
        xs = rng.standard_normal((n, steps, in_dim))
        seed_grad = rng.standard_normal((n, steps, state_dim))

        def build(fn):
            cell, x = recurrent_cell(weights), Tensor(xs, requires_grad=x_grad)
            run = ((lambda: fn(cell, x * 0.5) + fn(cell, x)) if twice
                   else (lambda: fn(cell, x)))
            return run, [x, *cell.params]

        assert_matches_oracle(build, RecurrentCell.__call__, reference_scan, seed_grad)

    @RANDOM_SHAPES
    @given(n=BATCH, steps=st.none() | STEPS, in_dim=WIDTH, hidden=WIDTH, out_dim=WIDTH,
           layers=st.integers(0, 3), x_grad=st.booleans(), twice=st.booleans(), seed=SEED)
    @example(n=1, steps=None, in_dim=1, hidden=1, out_dim=1, layers=0, x_grad=True,
             twice=False, seed=0)
    @example(n=64, steps=30, in_dim=32, hidden=32, out_dim=4, layers=1, x_grad=True,
             twice=True, seed=0)
    def test_mlp_on_sequence_matches_rows_chain(self, n, steps, in_dim, hidden, out_dim,
                                                layers, x_grad, twice, seed):
        """On rows (`steps` None) or on sequences; `twice` as for the cell."""
        rng = np.random.default_rng(seed)
        lead = (n,) if steps is None else (n, steps)
        xs = rng.standard_normal(lead + (in_dim,))
        seed_grad = rng.standard_normal(lead + (out_dim,))

        def new_net():
            params = ParamSet()
            return params, Mlp(params, "f", in_dim, hidden, out_dim, layers)
        state = {name: rng.standard_normal(p.shape) for name, p in new_net()[0].items()}

        def build(fn):
            params, net = new_net()
            params.load_state(state)
            x = Tensor(xs, requires_grad=x_grad)
            run = ((lambda: fn(net, x * 0.5) + fn(net, x)) if twice
                   else (lambda: fn(net, x)))
            return run, [x, *net.params]

        assert_matches_oracle(build, Mlp.__call__, reference_mlp_on_rows, seed_grad)

    @RANDOM_SHAPES
    @given(n=BATCH, steps=STEPS, dim=st.integers(1, 6), hidden=WIDTH, layers=st.integers(0, 3),
           seed=SEED)
    @example(n=1, steps=1, dim=1, hidden=1, layers=0, seed=0)
    @example(n=256, steps=29, dim=4, hidden=32, layers=2, seed=0)
    def test_euler_scan_matches_op_chain(self, n, steps, dim, hidden, layers, seed):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(hidden=hidden, layers=layers)
        state = {name: 0.5 * rng.standard_normal(p.shape)
                 for name, p in G._build_nets("CEGEN", dim, cfg)[0].items()}
        x0, z = rng.standard_normal((n, dim)), rng.standard_normal((n, steps, dim))
        seed_grad = rng.standard_normal((n, steps + 1, dim))

        def build(fn):
            params, nets = G._build_nets("CEGEN", dim, cfg)
            params.load_state(state)
            return (lambda: fn(nets, x0, z, 1 / 252)), [p for _, p in params.items()]

        assert_matches_oracle(build, G._cegen_rollout, reference_cegen_rollout, seed_grad)

    @settings(RANDOM_SHAPES, max_examples=300)
    @given(n_real=BATCH, n_fake=BATCH, steps=STEPS, dim=st.integers(1, 12),
           bins=st.integers(1, 8), drift=st.sampled_from([0.0, 0.5, 1.5]),
           tied_start=st.booleans(), seed=SEED)
    @example(n_real=1, n_fake=1, steps=1, dim=1, bins=1, drift=0.0, tied_start=False, seed=0)
    @example(n_real=256, n_fake=256, steps=30, dim=4, bins=5, drift=0.0, tied_start=True,
             seed=0)
    def test_transition_loss_matches_op_chain(self, n_real, n_fake, steps, dim, bins, drift,
                                              tied_start, seed):
        """d * d runs past numpy's 128-entry pairwise-sum block at dim 12; the
        drift empties low buckets of fake paths, and a tied start puts every
        path in one bucket at t = 0, as CEGEN's normalised windows do.  The
        value records a graph exactly when a bucket is used."""
        rng = np.random.default_rng(seed)
        real = rng.standard_normal((n_real, steps, dim)).cumsum(axis=1)
        fake = rng.standard_normal((n_fake, steps, dim)).cumsum(axis=1)
        fake[:, 1:] += drift * np.arange(1, steps)[:, None]
        if tied_start:
            real[:, 0], fake[:, 0] = 1.0, 1.0
        seed_grad = np.asarray(rng.standard_normal())

        def build(fn):
            x = Tensor(fake, requires_grad=True)

            def run():
                out = fn(real, x, bins)
                return out.value, out.used_buckets, out.skipped_buckets
            return run, [x]

        value, used, _ = assert_matches_oracle(build, transition_moment_loss,
                                               reference_transition_loss, seed_grad)
        assert value.requires_grad == (used > 0)

    @RANDOM_SHAPES
    @given(case=st.sampled_from(sorted(REPLICATE_SPECS)), n=BATCH, seq_len=st.integers(2, 30),
           hidden=WIDTH, layers=st.integers(0, 3), seed=SEED)
    @example(case="call", n=1, seq_len=2, hidden=1, layers=0, seed=0)
    @example(case="call", n=256, seq_len=30, hidden=32, layers=2, seed=0)
    def test_replicate_matches_op_chain(self, case, n, seq_len, hidden, layers, seed):
        """Under a seed gradient on the terminal wealth, then through the
        replication loss, which also reaches the premium through its mean."""
        seed_grad = np.random.default_rng(seed).standard_normal(n)
        for loss in (False, True):
            def build(fn):
                policy, batch, spec = replicate_case(case, n=n, seq_len=seq_len, hidden=hidden,
                                                     layers=layers, seed=seed)
                claim = Tensor(spec.payoff.value(batch.values[:, -1, :]))

                def run():
                    wealth = fn(policy, batch, spec)
                    return ((wealth - claim) * (wealth - claim)).mean() if loss else wealth
                return run, [p for _, p in policy.params.items()]

            assert_matches_oracle(build, replicate_terminal, reference_replicate_terminal,
                                  np.asarray(1.0) if loss else seed_grad)

    @RANDOM_SHAPES
    @given(n=st.integers(1, 128), m=st.integers(1, 128), iterations=STEPS,
           eps=st.sampled_from([0.05, 0.1, 0.3, 1.0]), row_first=st.booleans(),
           shared=st.booleans(), spread=st.booleans(), seed=SEED)
    @example(n=1, m=1, iterations=1, eps=0.1, row_first=True, shared=False, spread=False,
             seed=0)
    @example(n=64, m=64, iterations=30, eps=0.1, row_first=True, shared=True, spread=False,
             seed=0)
    def test_sinkhorn_sweeps_match_op_chain(self, n, m, iterations, eps, row_first, shared,
                                            spread, seed):
        """One sweep, or (`shared`) two sweeps of opposite order on one cost,
        as `_ot_dual_value` runs them, so the cost gathers both sweeps'
        contributions.  `spread` scales a row and a column by 40, so that
        exponents spread over hundreds.  Value, marginal violation and cost
        gradient bit-identical."""
        rng = np.random.default_rng(seed)
        cost0 = rng.random((n, m)) * 3.0
        if spread:
            cost0[rng.integers(n)] *= 40.0
            cost0[:, rng.integers(m)] *= 40.0
        seed_grad = np.asarray(rng.standard_normal())

        def fused_run(cost):
            value, violation = losses._gs_sweeps(cost, eps, iterations, row_first, True)
            if shared:
                second = losses._gs_sweeps(cost, eps, iterations, not row_first, False)[0]
                value = (value + second) * 0.5
            return value, violation

        def chain_run(cost):
            value, f, g = reference_gs_sweeps(cost, eps, iterations, row_first)
            violation = losses._plan_marginal_violation(f.data, g.data, cost0, eps)
            if shared:
                value = (value + reference_gs_sweeps(cost, eps, iterations,
                                                     not row_first)[0]) * 0.5
            return value, violation

        def build(run):
            cost = Tensor(cost0, requires_grad=True)
            return (lambda: run(cost)), [cost]

        assert_matches_oracle(build, fused_run, chain_run, seed_grad)

    @RANDOM_SHAPES
    @given(lead=st.just(()) | st.tuples(st.integers(1, 64))
           | st.tuples(st.integers(1, 64), st.integers(1, 3)),
           points=st.integers(2, 5), dim=st.integers(1, 5), depth=st.integers(1, 4), seed=SEED)
    @example(lead=(1,), points=2, dim=1, depth=1, seed=0)
    @example(lead=(128, 2), points=4, dim=4, depth=4, seed=0)
    def test_signature_matches_op_chain(self, lead, points, dim, depth, seed):
        """The op's value and gradient within the stated 1e-12 of the
        chain's largest entry: the op updates by Horner's scheme where the
        chain takes Chen products, and its backward contracts where the
        chain multiplies and sums."""
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(lead + (points, dim))
        seed_grad = rng.standard_normal(lead + (sig_length(dim + 1, depth),))

        def build(fn):
            x = Tensor(values, requires_grad=True)
            return (lambda: fn(x, depth)), [x]

        assert_matches_oracle(build, _signature_block, reference_signature_block, seed_grad,
                              bound=1e-12)


@st.composite
def broadcast_shapes(draw):
    """Two shapes that broadcast together: each drops some leading axes of
    a drawn rank 0-3 shape and sets some of the axes it keeps to 1."""
    full = draw(st.lists(st.integers(1, 4), max_size=3))

    def operand():
        lead = draw(st.integers(0, len(full)))
        return tuple(1 if draw(st.booleans()) else n for n in full[lead:])

    return operand(), operand()


@st.composite
def matmul_shapes(draw):
    """A 2-d or batched 3-d operand on each side; a batch axis may be 1 or
    missing on either side and is broadcast."""
    m, k, n, batch = (draw(st.integers(1, 4)) for _ in range(4))
    lead = st.sampled_from([(), (1,), (batch,)])
    return draw(lead) + (m, k), draw(lead) + (k, n)


BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": operator.truediv, "matmul": operator.matmul}


class TestBinaryOpsOnRandomShapes:
    @pytest.mark.parametrize("op", list(BINARY_OPS))
    @RANDOM_SHAPES
    @given(data=st.data(), flags=st.sampled_from([(True, True), (True, False), (False, True)]),
           seed=SEED)
    def test_broadcast_gradients_match_finite_differences(self, op, data, flags, seed):
        """Under a drawn seed gradient, each operand that requires a
        gradient gets one of its own shape that matches central finite
        differences, and a constant operand gets none.  Denominators stay
        at least 0.5 away from 0."""
        fn = BINARY_OPS[op]
        shapes = data.draw(matmul_shapes() if op == "matmul" else broadcast_shapes())
        rng = np.random.default_rng(seed)
        values = [rng.standard_normal(shape) for shape in shapes]
        if op == "div":
            values[1] = np.where(values[1] < 0.0, values[1] - 0.5, values[1] + 0.5)
        operands = [Tensor(v.copy(), requires_grad=f) for v, f in zip(values, flags)]
        out = fn(*operands)
        seed_grad = rng.standard_normal(out.shape)
        out.backward(seed_grad)
        for i, t in enumerate(operands):
            if not flags[i]:
                assert t.grad is None
                continue

            def f(v, i=i):
                args = [Tensor(v) if j == i else Tensor(values[j]) for j in range(2)]
                return float(np.sum(fn(*args).data * seed_grad))

            assert t.grad.shape == values[i].shape
            np.testing.assert_allclose(t.grad, numeric_grad(f, values[i].copy()),
                                       rtol=1e-6, atol=1e-6)


def reference_cegen_rollout(nets, x0, z, dt):
    """`_cegen_rollout` as the chain of small ops it fuses: the oracle for
    the `euler_scan` op's value and gradients."""
    n, steps, dim = z.shape
    strict = Tensor(np.tril(np.ones((dim, dim)), k=-1))
    eye = Tensor(np.eye(dim))
    x = Tensor(x0)
    slices = [x]
    for t in range(steps):
        inp = concat([Tensor(np.full((n, 1), t / float(steps))), x], axis=1)
        b = reference_mlp(nets["drift"], inp)
        raw = reference_mlp(nets["diff"], inp).reshape((n, dim, dim))
        factor = raw * strict + raw.softplus() * eye
        shock = (factor @ Tensor(z[:, t, :]).reshape((n, dim, 1))).reshape((n, dim))
        x = x + b * dt + shock * math.sqrt(dt)
        slices.append(x)
    return concat([s.reshape((n, 1, dim)) for s in slices], axis=1)


def cegen_case(dim, n=48, steps=9, layers=2, seed=0):
    """CEGEN nets with random parameters, start levels and shocks."""
    rng = np.random.default_rng(seed)
    params, nets = G._build_nets("CEGEN", dim, TrainConfig(hidden=6, layers=layers))
    params.load_state({name: 0.5 * rng.standard_normal(p.shape) for name, p in params.items()})
    real = np.cumsum(rng.standard_normal((n, steps + 1, dim)), axis=1)
    return params, nets, real, rng.standard_normal((n, steps, dim))


class TestEulerScan:
    """CEGEN's rollout, one `euler_scan` op over two `Mlp` kernels."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_op_chain(self, dim):
        """The rollout against the chain oracle: paths and all twelve
        parameter gradients bit-identical, under a random seed gradient and
        through the transition loss, at the training batch."""
        params, nets, real, z = cegen_case(dim, n=256, steps=29)
        seed = np.random.default_rng(1).standard_normal((256, 30, dim))
        results = []
        for fn in (G._cegen_rollout, reference_cegen_rollout):
            paths = fn(nets, real[:, 0, :], z, 1 / 252)
            paths.backward(seed)
            by_seed = params.take_grads()
            fake = fn(nets, real[:, 0, :], z, 1 / 252)
            transition_moment_loss(real, fake, 5).value.backward()
            results.append([paths.data, *by_seed.values(), *params.take_grads().values()])
        assert len(results[0]) == 25
        for fused, chain in zip(*results):
            assert np.array_equal(fused, chain)

    @pytest.mark.parametrize("name", ["drift.w0", "drift.b0", "drift.w1", "drift.b1",
                                      "diff.w0", "diff.b0", "diff.w1", "diff.b1"])
    def test_matches_finite_differences(self, name):
        """Gradients of the transition loss through the rollout, per parameter."""
        params, nets, real, z = cegen_case(2, layers=1, seed=3)

        def loss():
            fake = G._cegen_rollout(nets, real[:, 0, :], z, 0.1)
            return transition_moment_loss(real, fake, 2).value

        loss().backward()
        grad = params.take_grads()[name]
        p = params[name]
        base = p.data.copy()

        def f(arr):
            p.data = arr
            val = loss().item()
            p.data = base
            return val

        np.testing.assert_allclose(grad, numeric_grad(f, base.copy()), atol=1e-6, rtol=1e-5)

    def test_overflow_raises_with_op_name(self):
        """tanh would saturate an infinite hidden pre-activation of the drift
        net into a finite drift; the op checks every layer at every step."""
        params, nets, real, z = cegen_case(1, layers=1)
        params["drift.w0"].data = np.full_like(params["drift.w0"].data, 1e300)
        with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
            with pytest.raises(NumericOverflowError, match="'euler_scan'"):
                G._cegen_rollout(nets, real[:, 0, :] + 1e10, z, 1 / 252)

    def test_under_no_grad_records_no_graph(self):
        params, nets, real, z = cegen_case(2)
        with no_grad():
            paths = G._cegen_rollout(nets, real[:, 0, :], z, 1 / 252)
        assert not paths.requires_grad and paths._parents == ()
        assert np.array_equal(paths.data, reference_cegen_rollout(nets, real[:, 0, :], z,
                                                                  1 / 252).data)


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

    @pytest.mark.parametrize("const_side", [0, 1])
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul", "concat"])
    def test_constant_operand_receives_no_gradient(self, op, const_side):
        """A constant operand's `.grad` stays None, and the other operand's
        gradient is bit-identical to the one it gets when both operands
        require gradients.  Elementwise ops pair a (4, 5) block with a 0-d
        scalar, so both sides of the broadcast are covered."""
        fns = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv, "matmul": operator.matmul,
               "concat": lambda a, b: concat([a, b], axis=1)}
        shapes = {"matmul": ((4, 5), (5, 3)), "concat": ((4, 5), (4, 2))}.get(op, ((4, 5), ()))
        rng = np.random.default_rng(5)
        values = [np.abs(rng.standard_normal(shape)) + 0.5 for shape in shapes]
        weights = rng.standard_normal(fns[op](*values).shape)

        def grads(flags):
            a, b = (Tensor(v.copy(), requires_grad=f) for v, f in zip(values, flags))
            (fns[op](a, b) * Tensor(weights)).sum().backward()
            return a.grad, b.grad

        both = grads((True, True))
        one = grads((const_side == 1, const_side == 0))
        assert one[const_side] is None
        assert both[1 - const_side] is not None
        assert np.array_equal(one[1 - const_side], both[1 - const_side])

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

    def test_gated_step_overflow_raises_with_op_name(self):
        """Sigmoid and tanh would saturate an infinite pre-activation into a
        finite state; the op checks its pre-activations at every step."""
        values = gated_scan_values(np.random.default_rng(29))
        values[0][:, 3, :] = 1e10                       # only step 3 overflows
        values[1] = np.full_like(values[1], 1e300)      # x @ wz
        with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
            with pytest.raises(NumericOverflowError, match="'gated_scan'"):
                recurrent_cell(values[1:])(Tensor(values[0], requires_grad=True))

    def test_mlp_overflow_raises_with_op_name(self):
        """tanh would saturate an infinite hidden pre-activation into a
        finite output; the op checks every layer's pre-activation."""
        net = Mlp(ParamSet(seed=6), "f", 2, 3, 1, layers=1)
        net.layers[0][0].data = np.full((2, 3), 1e300)
        x = Tensor(np.full((4, 2), 1e10), requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
            with pytest.raises(NumericOverflowError, match="'mlp'"):
                net(x)

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


def one_param(value, name="w"):
    params = ParamSet(seed=0)
    params.add(name, np.array(value))
    return params


class TestOptimiser:
    def test_zero_grad_is_identity(self):
        params = one_param([1.0, -2.0])
        Optimizer(params, lr=0.1, clip_norm=10.0).step({"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        params = one_param([0.0, 0.0])
        Optimizer(params, lr=0.05, clip_norm=10.0).step({"w": np.array([3.0, -0.5])})
        # bias-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
        np.testing.assert_allclose(params["w"].data, [-0.05, 0.05], rtol=1e-6)

    def test_lr_zero_changes_nothing(self):
        params = one_param([2.0])
        Optimizer(params, lr=0.0, clip_norm=10.0).step({"w": np.array([10.0])})
        assert params["w"].data[0] == 2.0

    def test_adam_converges_on_quadratic(self):
        params = ParamSet(seed=0)
        w = params.add("w", np.array([5.0, -3.0]))
        opt = Optimizer(params, lr=0.2, clip_norm=10.0)
        for _ in range(400):
            loss = (w * w).sum()
            loss.backward()
            opt.step(params.take_grads())
        assert float((w.data ** 2).sum()) < 1e-6

    def test_clips_to_the_global_norm(self):
        """The step clips the group's gradients to a joint l2 norm of
        `clip_norm` and returns the norm before clipping: the second
        moment's first update records the clipped gradient."""
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
        params = ParamSet(seed=0)
        params.add("a", np.zeros(2))
        params.add("b", np.zeros(1))
        clipped = Optimizer(params, lr=0.1, clip_norm=1.0)
        assert clipped.step(grads) == 5.0
        np.testing.assert_allclose(clipped.m["a"], 0.1 * np.array([0.6, 0.8]))
        same = Optimizer(params, lr=0.1, clip_norm=10.0)
        assert same.step(grads) == 5.0
        np.testing.assert_allclose(same.m["a"], 0.1 * np.array([3.0, 4.0]))

    def test_ascend_negates_the_gradients(self):
        up, down = one_param([1.0]), one_param([1.0])
        Optimizer(up, lr=0.1, clip_norm=10.0).step({"w": np.array([2.0])}, ascend=True)
        Optimizer(down, lr=0.1, clip_norm=10.0).step({"w": np.array([-2.0])})
        assert up["w"].data[0] == down["w"].data[0] > 1.0

    def test_prefix_groups_step_only_their_parameters(self):
        """Each group keeps its names' gradients, clips them jointly and counts
        its own steps."""
        params = ParamSet(seed=0)
        for name in ("gen.w", "sup.w", "critic.w"):
            params.add(name, np.zeros(1))
        grads = {name: np.array([3.0]) for name in params.names()}
        grads["critic.w"] = np.array([4.0])
        sup = Optimizer(params, lr=0.1, clip_norm=10.0, prefixes=("sup.",))
        both = Optimizer(params, lr=0.1, clip_norm=10.0, prefixes=("gen.", "sup."))
        assert sup.step(grads) == 3.0
        assert params["gen.w"].data[0] == params["critic.w"].data[0] == 0.0
        assert params["sup.w"].data[0] < 0.0
        assert both.step(grads) == math.sqrt(18.0)
        assert sup.t == both.t == 1 and set(both.m) == {"gen.w", "sup.w"}
        assert params["critic.w"].data[0] == 0.0


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
        q = ParamSet(seed=2)
        w = q.add_zeros("w", (3, 3))
        q.load_state({name: t.data for name, t in p.items()})
        assert q["w"] is w
        np.testing.assert_array_equal(q["w"].data, p["w"].data)

    def test_load_state_registers_no_name(self):
        q = ParamSet()
        q.add_zeros("w", (3, 3))
        with pytest.raises(KeyError):
            q.load_state({"v": np.zeros(2)})
        with pytest.raises(ValueError, match="shape mismatch"):
            q.load_state({"w": np.zeros((3, 2))})
        assert q.names() == ["w"]

