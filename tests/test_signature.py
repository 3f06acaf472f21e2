import math

import numpy as np
import pytest

from commodgen.autodiff import NumericOverflowError, Tensor, concat
from commodgen.dataio import DataError
from commodgen.losses import _augmented_increment_block, _signature_block
from commodgen.signature import (SignatureVector, chen_product, sig_length, signature,
                                 signature_levels, signature_levels_backward)


def _reference_outer(a, b, batch_shape, na, nb):
    left = a.reshape(batch_shape + (na, 1))
    right = b.reshape(batch_shape + (1, nb))
    return (left * right).reshape(batch_shape + (na * nb,))


def reference_signature_levels(increments: Tensor, depth: int) -> list:
    """Signature levels of (..., m, d) increments as a chain of slice,
    reshape, mul, div and add ops: the oracle for the `signature` op."""
    shape = tuple(increments.shape)
    m, d = shape[-2], shape[-1]
    batch_shape = shape[:-2]
    levels = None
    for j in range(m):
        delta = increments[..., j, :]
        segment = [delta]
        for k in range(2, depth + 1):
            segment.append(_reference_outer(segment[-1], delta, batch_shape,
                                            d ** (k - 1), d) / float(k))
        if levels is None:
            levels = segment
            continue
        combined = []
        for k in range(1, depth + 1):
            acc = levels[k - 1] + segment[k - 1]
            for i in range(1, k):
                acc = acc + _reference_outer(levels[i - 1], segment[k - i - 1],
                                             batch_shape, d ** i, d ** (k - i))
            combined.append(acc)
        levels = combined
    return levels


def reference_signature_block(values: Tensor, depth: int) -> Tensor:
    """`_signature_block` of a tensor built from the oracle's op chain."""
    seq_len = values.shape[-2]
    incs = values[..., 1:, :] - values[..., :-1, :]
    t_inc = np.full(tuple(incs.shape[:-1]) + (1,), 1.0 / (seq_len - 1))
    incs = concat([Tensor(t_inc), incs], axis=values.ndim - 1)
    return concat(reference_signature_levels(incs, depth), axis=values.ndim - 2)


def assert_close(op, ref):
    assert np.max(np.abs(op - ref)) <= 1e-12 * np.max(np.abs(ref))


BATCH_SHAPES = [(4,), (4, 1), (4, 3)]


class TestClosedForms:
    def test_one_dimensional_line(self):
        # 1-d path from 0 to a: level k must be a^k / k!
        a = 1.7
        path = np.linspace(0.0, a, 7)[:, None]
        sig = signature(path, depth=5)
        for k in range(1, 6):
            assert sig.level(k)[0] == pytest.approx(a ** k / math.factorial(k), rel=1e-12)

    def test_two_dim_single_segment_level2(self):
        # increment (1, 2): level 2 = outer(v, v) / 2 = [0.5, 1, 1, 2]
        path = np.array([[0.0, 0.0], [1.0, 2.0]])
        sig = signature(path, depth=2)
        np.testing.assert_allclose(sig.level(1), [1.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(sig.level(2), [0.5, 1.0, 1.0, 2.0], atol=1e-15)

    def test_level1_is_total_increment(self):
        rng = np.random.default_rng(2)
        path = rng.standard_normal((12, 3)).cumsum(axis=0)
        sig = signature(path, depth=3)
        np.testing.assert_allclose(sig.level(1), path[-1] - path[0], atol=1e-12)

    def test_shuffle_relation_level2(self):
        # sym part of level 2 is half the square of level 1
        rng = np.random.default_rng(3)
        path = rng.standard_normal((9, 2)).cumsum(axis=0)
        sig = signature(path, depth=2)
        lvl2 = sig.level(2).reshape(2, 2)
        lvl1 = sig.level(1)
        np.testing.assert_allclose(lvl2 + lvl2.T, np.outer(lvl1, lvl1), atol=1e-12)


class TestChen:
    def test_concatenation_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            left = rng.standard_normal((6, 2)).cumsum(axis=0)
            right = left[-1] + rng.standard_normal((5, 2)).cumsum(axis=0)
            right = np.vstack([left[-1], right])
            full = np.vstack([left, right[1:]])
            combined = chen_product(signature(left, 4), signature(right, 4))
            direct = signature(full, 4)
            np.testing.assert_allclose(combined.coeffs, direct.coeffs, atol=1e-10)

    def test_dimension_mismatch(self):
        a = signature(np.zeros((3, 2)) + np.arange(3)[:, None], 2)
        b = signature(np.arange(3.0)[:, None], 2)
        with pytest.raises(DataError):
            chen_product(a, b)


class TestInvariance:
    def test_reparameterisation(self):
        # same polyline traversed at different speeds: identical signature
        rng = np.random.default_rng(5)
        knots = rng.standard_normal((5, 2)).cumsum(axis=0)

        def sample_at(ts):
            # piecewise-linear interpolation at parameter values ts in [0, 4]
            out = np.empty((len(ts), 2))
            for i, t in enumerate(ts):
                j = min(int(t), 3)
                w = t - j
                out[i] = (1 - w) * knots[j] + w * knots[j + 1]
            return out

        # warped grid must still pass through every knot, otherwise the
        # chords cut corners and trace a genuinely different path
        warped_ts = np.union1d(4 * np.linspace(0, 1, 57) ** 2, [0.0, 1.0, 2.0, 3.0, 4.0])
        uniform = sample_at(np.linspace(0, 4, 41))
        warped = sample_at(warped_ts)
        s1 = signature(uniform, 4)
        s2 = signature(warped, 4)
        np.testing.assert_allclose(s1.coeffs, s2.coeffs, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        path = rng.standard_normal((8, 2)).cumsum(axis=0)
        shifted = path + np.array([5.0, -3.0])
        np.testing.assert_allclose(signature(path, 3).coeffs,
                                   signature(shifted, 3).coeffs, atol=1e-12)


class TestBatchAndGradients:
    def test_batch_matches_single(self):
        # each row of the block is the signature of that path with a
        # uniform time channel prepended
        rng = np.random.default_rng(7)
        paths = rng.standard_normal((5, 6, 2)).cumsum(axis=1)
        block = _signature_block(paths, 3)
        assert block.shape == (5, sig_length(3, 3))
        t = np.linspace(0.0, 1.0, 6)[:, None]
        for i in range(5):
            np.testing.assert_allclose(block[i], signature(np.hstack([t, paths[i]]), 3).coeffs,
                                       atol=1e-13)

    def test_gradients_through_signature(self):
        rng = np.random.default_rng(8)
        path_vals = rng.standard_normal((5, 2)).cumsum(axis=0)
        weights = rng.standard_normal(sig_length(3, 3))

        def value(arr):
            t = Tensor(arr, requires_grad=True)
            return (_signature_block(t, 3) * Tensor(weights)).sum(), t

        out, t = value(path_vals)
        out.backward()
        grad = t.grad.copy()

        h = 1e-6
        for idx in np.ndindex(path_vals.shape):
            up = path_vals.copy()
            up[idx] += h
            down = path_vals.copy()
            down[idx] -= h
            fd = (value(up)[0].item() - value(down)[0].item()) / (2 * h)
            assert abs(grad[idx] - fd) < 1e-5

    def test_tensor_and_numpy_agree(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((3, 4, 5, 2))
        op = _signature_block(Tensor(values, requires_grad=True), 3)
        assert op._op == "signature"
        np.testing.assert_array_equal(op.data, _signature_block(values, 3))


class TestSignatureOp:
    """The `signature` op against the op chain it replaces: value and
    gradient within 1e-12 of the chain's largest entry, since the op
    updates by Horner's scheme where the chain takes Chen products."""

    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_levels_and_backward_match_reference(self, m, batch):
        rng = np.random.default_rng(10 * m + len(batch))
        for depth in range(1, 5):
            for d in (1, 2, 5):
                incs = 0.5 * rng.standard_normal(batch + (m, d))
                tape = []
                levels = signature_levels(incs, depth, tape)
                ref_in = Tensor(incs, requires_grad=True)
                ref = reference_signature_levels(ref_in, depth)
                seeds = [rng.standard_normal(level.shape) for level in levels]
                for level, r in zip(levels, ref):
                    assert_close(level, r.data)
                concat(ref, axis=len(batch)).backward(np.concatenate(seeds, axis=-1))
                assert_close(signature_levels_backward(incs, tape, seeds), ref_in.grad)

    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_block_op_matches_reference_chain(self, m, batch):
        rng = np.random.default_rng(20 * m + len(batch))
        for depth in range(1, 5):
            for d in (1, 2, 5):
                values = rng.standard_normal(batch + (m + 1, d))
                op_in = Tensor(values, requires_grad=True)
                ref_in = Tensor(values, requires_grad=True)
                op = _signature_block(op_in, depth)
                ref = reference_signature_block(ref_in, depth)
                assert_close(op.data, ref.data)
                seed = rng.standard_normal(op.shape)
                op.backward(seed)
                ref.backward(seed)
                assert_close(op_in.grad, ref_in.grad)

    def test_overflow_names_the_op(self):
        # level 4 of an increment of 1e100 is 1e400 / 24: inf in float64
        values = Tensor(np.array([[[0.0], [1e100]]]), requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError, match="'signature'"):
                _signature_block(values, 4)


class TestTimeAugment:
    def test_single_and_batch(self):
        incs = _augmented_increment_block(np.ones((4, 2)))
        assert incs.shape == (3, 3)
        np.testing.assert_allclose(incs[:, 0], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(incs[:, 1:], 0.0)
        batch = _augmented_increment_block(np.ones((5, 4, 2)))
        assert batch.shape == (5, 3, 3)
        np.testing.assert_allclose(batch[2].sum(axis=0), [1.0, 0.0, 0.0])

    def test_augmented_signature_separates_loops(self):
        # a path that returns to its start has zero level-1 signature,
        # but the time channel keeps the augmented signature informative
        loop = np.array([[0.0], [1.0], [0.0]])
        plain = signature(loop, 2)
        np.testing.assert_allclose(plain.level(1), [0.0], atol=1e-15)
        aug = _signature_block(loop, 2)
        assert np.linalg.norm(aug) > 0.5


class TestValidation:
    def test_depth_and_size_guards(self):
        with pytest.raises(DataError):
            signature(np.zeros((3, 2)), depth=0)
        with pytest.raises(DataError, match="refusing"):
            signature(np.zeros((3, 50)), depth=5)
        with pytest.raises(DataError):
            signature(np.zeros((1, 2)), depth=2)

    def test_vector_block_layout(self):
        v = SignatureVector(dim=2, depth=3, coeffs=np.arange(14.0))
        np.testing.assert_array_equal(v.level(1), [0, 1])
        np.testing.assert_array_equal(v.level(2), [2, 3, 4, 5])
        np.testing.assert_array_equal(v.level(3), np.arange(6.0, 14.0))
        with pytest.raises(DataError):
            SignatureVector(dim=2, depth=3, coeffs=np.arange(5.0))
