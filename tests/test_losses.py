import tracemalloc

import numpy as np
import pytest

from commodgen import losses
from commodgen.autodiff import NumericOverflowError, ParamSet, Tensor
from commodgen.dataio import DataError
from commodgen.losses import (CausalCritic, ConditionalSigMetric, SinkhornConfig,
                              SinkhornValue, causal_transport_losses, martingale_defect,
                              sinkhorn_divergence, transition_moment_loss)
from commodgen.stochastic import GbmParams, simulate_gbm


class TestSinkhorn:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            SinkhornConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SinkhornConfig(iterations=0)
        with pytest.raises(ValueError):
            SinkhornConfig(causal_weight=-1.0)

    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 10))
        sv = sinkhorn_divergence(x, x.copy(), SinkhornConfig())
        assert abs(sv.value.item()) <= 1e-8
        assert sv.converged

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal((14, 8))
            y = rng.standard_normal((9, 8)) * 1.3 + 0.2
            a = sinkhorn_divergence(x, y).value.item()
            b = sinkhorn_divergence(y, x).value.item()
            assert abs(a - b) <= 1e-10

    def test_two_point_mass_limit(self):
        x = np.array([[0.3, -0.2]])
        y = np.array([[1.1, 0.4]])
        target = float(np.sum((x - y) ** 2))
        sv = sinkhorn_divergence(x, y, SinkhornConfig(epsilon=1e-3, iterations=100))
        assert abs(sv.value.item() - target) / target < 0.01

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(2, 20)), 6))
            y = rng.standard_normal((int(rng.integers(2, 20)), 6)) * (0.5 + rng.random())
            assert sinkhorn_divergence(x, y).value.item() >= -1e-8

    def test_violations_decrease_monotonically(self):
        # Sweeps start from zero potentials, so a k-iteration run's violation
        # is the violation after iteration k of any longer run.
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((12, 5))
            y = rng.standard_normal((8, 5)) + 0.5
            for eps in (0.05, 0.1, 0.5):
                h = np.array([sinkhorn_divergence(x, y, SinkhornConfig(epsilon=eps, iterations=k))
                              .marginal_violation for k in range(1, 51)])
                assert np.all(np.diff(h) <= 1e-12)

    def test_violation_measured_once_per_sweep(self, monkeypatch):
        calls = []
        measure = losses._plan_marginal_violation
        monkeypatch.setattr(losses, "_plan_marginal_violation",
                            lambda *args: calls.append(1) or measure(*args))
        rng = np.random.default_rng(8)
        sv = sinkhorn_divergence(rng.standard_normal((6, 5, 2)), rng.standard_normal((7, 5, 2)),
                                 SinkhornConfig(epsilon=0.5, iterations=20))
        assert np.isfinite(sv.marginal_violation)
        assert 1 <= len(calls) <= 2

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 6))
        y = rng.standard_normal((20, 6)) + 3.0
        sv = sinkhorn_divergence(x, y, SinkhornConfig(epsilon=0.01, iterations=2))
        assert not sv.converged
        assert sv.marginal_violation > 1e-6

    def test_paths_are_flattened(self):
        rng = np.random.default_rng(5)
        paths = rng.standard_normal((6, 5, 2))
        flat = paths.reshape(6, 10)
        a = sinkhorn_divergence(paths, paths[::-1].copy()).value.item()
        b = sinkhorn_divergence(flat, flat[::-1].copy()).value.item()
        assert a == b

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 4))
        y0 = rng.standard_normal((5, 4))
        cfg = SinkhornConfig(epsilon=0.5, iterations=40)
        yt = Tensor(y0.copy(), requires_grad=True)
        sinkhorn_divergence(Tensor(x), yt, cfg).value.backward()
        grad = yt.grad
        h = 1e-5
        for idx in [(0, 0), (2, 3), (4, 1)]:
            up, dn = y0.copy(), y0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (sinkhorn_divergence(Tensor(x), Tensor(up), cfg).value.item()
                  - sinkhorn_divergence(Tensor(x), Tensor(dn), cfg).value.item()) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_feature_size_mismatch(self):
        with pytest.raises(DataError):
            sinkhorn_divergence(np.ones((3, 4)), np.ones((3, 5)))

    @pytest.mark.parametrize("row_first", [True, False])
    @pytest.mark.parametrize("iterations", [1, 2])
    def test_sweeps_bit_identical_to_op_chain(self, row_first, iterations):
        """One sweep, and two sweeps of opposite order sharing one cost (as
        `_ot_dual_value` runs them), against the op chain: value, violation
        and the cost gradient, whose contributions must add up in the
        chain's order."""
        rng = np.random.default_rng(30 + iterations)
        cost0 = rng.random((7, 5)) * 3.0
        cost0[2] *= 40.0        # a row and a column whose exponents spread over hundreds
        cost0[:, 3] *= 40.0
        eps = 0.3
        for shared in (False, True):
            results = []
            for fused in (True, False):
                cost = Tensor(cost0.copy(), requires_grad=True)
                if fused:
                    value, violation = losses._gs_sweeps(cost, eps, iterations, row_first, True)
                    second = losses._gs_sweeps(cost, eps, iterations, not row_first, False)[0]
                else:
                    value, f, g = reference_gs_sweeps(cost, eps, iterations, row_first)
                    violation = losses._plan_marginal_violation(f.data, g.data, cost0, eps)
                    second = reference_gs_sweeps(cost, eps, iterations, not row_first)[0]
                if shared:
                    value = (value + second) * 0.5
                (value * 1.7).backward()
                results.append((value.data, violation, cost.grad))
            (fused_value, fused_violation, fused_grad), (value, violation, grad) = results
            assert np.array_equal(fused_value, value)
            assert fused_violation == violation
            assert np.array_equal(fused_grad, grad)

    def test_sweep_overflow_raises(self):
        """An overflowing exponent would vanish inside the log-sum-exp and
        leave a finite potential; the op checks its exponents instead."""
        cost = np.random.default_rng(9).random((4, 5))
        cost[1, 2] = 1e300      # (0 - 1e300) / eps overflows to -inf
        with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
            with pytest.raises(NumericOverflowError, match="'sinkhorn_sweeps'"):
                losses._gs_sweeps(Tensor(cost, requires_grad=True), 1e-10, 2, True, False)


class TestCausalTransport:
    def make_batches(self, seed=0, n=8, seq_len=6, d=2):
        rng = np.random.default_rng(seed)
        real = 1.0 + 0.1 * rng.standard_normal((n, seq_len, d)).cumsum(axis=1)
        fake = 1.0 + 0.1 * rng.standard_normal((n, seq_len, d)).cumsum(axis=1)
        return real, fake

    def test_identical_batches_zero_loss(self):
        real, _ = self.make_batches()
        critic = CausalCritic(ParamSet(seed=3), dim=2, feature_dim=4, hidden=8)
        gen, _ = causal_transport_losses(real, real.copy(), critic,
                                         cfg=SinkhornConfig(causal_weight=0.0))
        assert abs(gen.item()) <= 1e-8

    def test_critic_losses_are_negations(self):
        """The critic's loss is the generator loss negated, so the gradients
        of one backward, negated, are exactly those of the critic's loss."""
        real, fake = self.make_batches()
        params = ParamSet(seed=3)
        critic = CausalCritic(params, dim=2, feature_dim=4, hidden=8)
        cfg = SinkhornConfig(iterations=20)
        gen, sv = causal_transport_losses(real, fake, critic, cfg)
        assert np.isfinite(gen.item()) and isinstance(sv, SinkhornValue)
        gen.backward()
        descend = params.take_grads()
        (-causal_transport_losses(real, fake, critic, cfg)[0]).backward()
        ascend = params.take_grads()
        for name, g in descend.items():
            assert np.array_equal(-g, ascend[name]), name

    def test_critic_gradient_matches_finite_differences(self):
        """The whole loss, over every critic parameter (both cells and both
        heads) and every entry of the fake batch: through the sweeps, the
        cells and the causality penalty."""
        real, fake0 = self.make_batches(n=5, seq_len=4)
        params = ParamSet(seed=4)
        critic = CausalCritic(params, dim=2, feature_dim=3, hidden=4)
        cfg = SinkhornConfig(epsilon=0.5, iterations=15, causal_weight=1.0)
        fake = Tensor(fake0.copy(), requires_grad=True)
        causal_transport_losses(real, fake, critic, cfg)[0].backward()
        grads = {**params.take_grads(), "fake": fake.grad}
        arrays = {**{name: p.data for name, p in params.items()}, "fake": fake0.copy()}
        assert len(grads) == 17     # six per cell, two per head, the batch

        def value():
            return causal_transport_losses(real, arrays["fake"], critic, cfg)[0].item()

        h = 1e-6
        for name, base in arrays.items():
            fd = np.zeros_like(base)
            for idx in np.ndindex(base.shape):
                old = base[idx]
                base[idx] = old + h
                up = value()
                base[idx] = old - h
                down = value()
                base[idx] = old
                fd[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-5, atol=1e-7, err_msg=name)

    def test_martingale_defect_zero_for_constant_features(self):
        h = Tensor(np.ones((4, 6, 3)))
        m = Tensor(np.ones((4, 6, 3)))
        assert martingale_defect(h, m).item() == 0.0

    def test_martingale_defect_positive_for_anticipating(self):
        # m increments equal to h level: maximally predictable
        t = np.linspace(0, 1, 7)
        h = np.tile(t[None, :, None], (5, 1, 1))
        m = np.tile((t ** 2 / 2)[None, :, None], (5, 1, 1))
        assert martingale_defect(Tensor(h), Tensor(m)).item() > 0.0


def sig_loss(metric, pasts, fake_futures):
    """The metric's loss of fakes grown from the pasts it was fitted on;
    (n, q, d) fakes are one Monte Carlo draw per past."""
    fake = Tensor._lift(fake_futures)
    if fake.ndim == 3:
        fake = fake.reshape((fake.shape[0], 1) + fake.shape[1:])
    return metric.loss_given_prediction(metric.fitted, pasts[:, -1:, :], fake)


def assert_solves_ridge_normal_equations(design, targets, weights):
    """(DᵀD + RIDGE·I′) W − DᵀT within 1e-12 of DᵀT's largest entry, where
    I′ is the identity without the intercept's (last) diagonal entry."""
    penalty = losses.RIDGE * np.eye(design.shape[1])
    penalty[-1, -1] = 0.0
    rhs = design.T @ targets
    residual = (design.T @ design + penalty) @ weights - rhs
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))


class TestConditionalSigMetric:
    def make_pairs(self, seed=0, n=40, p=3, q=3, d=1):
        rng = np.random.default_rng(seed)
        pasts = 1.0 + 0.1 * rng.standard_normal((n, p, d)).cumsum(axis=1)
        futures = pasts[:, -1:, :] + 0.1 * rng.standard_normal((n, q, d)).cumsum(axis=1)
        return pasts, futures

    def test_deterministic_relation_fits_exactly(self):
        # future == last past value held for q steps: exactly representable,
        # so the loss against exact copies sits at numerical zero
        pasts, _ = self.make_pairs(n=30)
        futures = np.repeat(pasts[:, -1:, :], 3, axis=1)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        loss = sig_loss(metric, pasts, futures.copy())
        assert loss.item() <= 1e-8

    def test_matched_futures_beat_scaled_futures(self):
        pasts, futures = self.make_pairs(n=60)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        good = sig_loss(metric, pasts, futures.copy()).item()
        bad = sig_loss(metric, pasts, futures * 2.0).item()
        assert good < bad
        assert bad > 0.0

    def test_monte_carlo_axis_supported(self):
        pasts, futures = self.make_pairs(n=20)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        single = sig_loss(metric, pasts, futures.copy())
        tiled = np.repeat(futures[:, None, :, :], 4, axis=1)
        multi = sig_loss(metric, pasts, tiled)
        np.testing.assert_allclose(multi.item(), single.item(), rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        pasts, futures = self.make_pairs(n=12, d=1)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        f0 = futures.copy()
        ft = Tensor(f0.copy(), requires_grad=True)
        sig_loss(metric, pasts, ft).backward()
        grad = ft.grad
        h = 1e-6
        for idx in [(0, 0, 0), (5, 2, 0), (11, 1, 0)]:
            up, dn = f0.copy(), f0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (sig_loss(metric, pasts, up).item()
                  - sig_loss(metric, pasts, dn).item()) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_gradient_matches_central_differences_everywhere(self):
        # the whole loss, with a Monte Carlo axis, over every fake entry
        pasts, futures = self.make_pairs(n=6, d=2)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        rng = np.random.default_rng(3)
        f0 = futures[:, None] + 0.05 * rng.standard_normal((6, 2, 3, 2))
        ft = Tensor(f0.copy(), requires_grad=True)
        sig_loss(metric, pasts, ft).backward()
        h = 1e-6
        for idx in np.ndindex(f0.shape):
            up, dn = f0.copy(), f0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (sig_loss(metric, pasts, up).item()
                  - sig_loss(metric, pasts, dn).item()) / (2 * h)
            assert abs(ft.grad[idx] - fd) <= 1e-6 * max(abs(fd), 1e-3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_depth_4_gradient_matches_central_differences(self, d):
        # the whole loss at the training depth, fitted on random pairs and
        # scored on a few of their pasts, over every fake entry
        pasts, futures = self.make_pairs(seed=d, n=30, d=d)
        metric = ConditionalSigMetric(depth=4).fit(pasts, futures)
        rng = np.random.default_rng(10 + d)
        f0 = futures[:4, None] + 0.05 * rng.standard_normal((4, 2, 3, d))

        def loss(fake):
            return metric.loss_given_prediction(metric.fitted[:4], pasts[:4, -1:, :], fake)

        ft = Tensor(f0.copy(), requires_grad=True)
        loss(ft).backward()
        h = 1e-6
        for idx in np.ndindex(f0.shape):
            up, dn = f0.copy(), f0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (loss(up).item() - loss(dn).item()) / (2 * h)
            assert abs(ft.grad[idx] - fd) <= 1e-6 * max(abs(fd), 1e-3)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_fit_solves_the_ridge_normal_equations(self, monkeypatch, d, depth):
        # over three row blocks, the last one ragged: (DᵀD + RIDGE·I′) W = DᵀT,
        # I′ leaving the intercept out, and `fitted` = D W, each within 1e-12
        # of the right-hand side's largest entry
        monkeypatch.setattr(losses, "FIT_BLOCK_ROWS", 48)
        pasts, futures = self.make_pairs(seed=depth + d, n=130, p=5, q=4, d=d)
        metric = ConditionalSigMetric(depth=depth).fit(pasts, futures)
        design, targets = self.design_and_targets(pasts, futures, depth)
        assert_solves_ridge_normal_equations(design, targets, metric.weights)
        expected = design @ metric.weights
        assert np.max(np.abs(metric.fitted - expected)) <= 1e-12 * np.max(np.abs(expected))

    @staticmethod
    def design_and_targets(pasts, futures, depth):
        """The regression's design (past signatures and an intercept column)
        and targets (signatures of the futures grown from each last past point)."""
        phi = losses._signature_block(pasts, depth)
        design = np.concatenate([phi, np.ones((phi.shape[0], 1))], axis=1)
        targets = losses._signature_block(
            np.concatenate([pasts[:, -1:, :], futures], axis=1), depth)
        return design, targets

    def test_fit_in_row_blocks_equals_one_block(self, monkeypatch):
        # the block sums round differently from one product, and the fit is
        # ill-conditioned (cond ~1e9), so the weights are held through their
        # normal equations rather than entrywise
        pasts, futures = self.make_pairs(n=200, p=5, q=4, d=2)
        whole = ConditionalSigMetric(depth=3).fit(pasts, futures)
        monkeypatch.setattr(losses, "FIT_BLOCK_ROWS", 7)
        blocked = ConditionalSigMetric(depth=3).fit(pasts, futures)
        gap = np.max(np.abs(blocked.fitted - whole.fitted))
        assert gap <= 1e-12 * np.max(np.abs(whole.fitted))
        assert_solves_ridge_normal_equations(*self.design_and_targets(pasts, futures, 3),
                                             blocked.weights)

    def test_fit_holds_less_than_its_design_and_targets(self):
        # n >> L: one pass over row blocks never holds the (n, L) targets,
        # and `fitted` overwrites the (n, L + 1) design
        pasts, futures = self.make_pairs(n=4096, p=5, q=4, d=2)
        width = losses.sig_length(3, 4)
        tracemalloc.start()
        try:
            ConditionalSigMetric(depth=4).fit(pasts, futures)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4096 * (2 * width + 1)

    def test_fitted_values_equal_predictions_on_the_fitted_pasts(self):
        pasts, futures = self.make_pairs(n=200, p=5, q=4, d=2)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        assert metric.fitted.shape == (200, metric.weights.shape[1])
        # the prediction on the whole batch of pasts at once
        design, _ = self.design_and_targets(pasts, futures, 3)
        assert np.array_equal(metric.fitted, design @ metric.weights)

    def test_shape_validation(self):
        pasts, futures = self.make_pairs()
        with pytest.raises(DataError):
            ConditionalSigMetric(depth=2).fit(pasts[:5], futures)
        metric = ConditionalSigMetric(depth=2).fit(pasts, futures)
        with pytest.raises(DataError):
            sig_loss(metric, pasts, futures[:3])


class TestTransitionMoments:
    def test_identical_batches_exact_zero(self):
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((60, 8, 2)).cumsum(axis=1)
        out = transition_moment_loss(batch, batch.copy(), bins=5)
        assert out.value.item() == 0.0
        assert out.used_buckets > 0

    def test_single_bin_is_unconditional_matching(self):
        rng = np.random.default_rng(1)
        real = rng.standard_normal((50, 6, 1)).cumsum(axis=1)
        fake = rng.standard_normal((50, 6, 1)).cumsum(axis=1)
        out = transition_moment_loss(real, fake, bins=1)
        # hand-rolled unconditional mean/var matching
        expected = 0.0
        for t in range(5):
            ri = real[:, t + 1, 0] - real[:, t, 0]
            fi = fake[:, t + 1, 0] - fake[:, t, 0]
            expected += float(fi.mean() - ri.mean()) ** 2
            expected += float(fi.var(ddof=1) - ri.var(ddof=1)) ** 2
        np.testing.assert_allclose(out.value.item(), expected / 5.0, rtol=1e-10)

    def test_variance_mismatch_dominates(self):
        p_low = GbmParams(sigma=np.array([0.2]), corr=np.eye(1))
        p_high = GbmParams(sigma=np.array([0.4]), corr=np.eye(1))
        real = simulate_gbm(p_low, 60000, 10, np.array([1.0]), seed=1).values
        same = simulate_gbm(p_low, 60000, 10, np.array([1.0]), seed=2).values
        diff = simulate_gbm(p_high, 60000, 10, np.array([1.0]), seed=3).values
        base = transition_moment_loss(real, same).value.item()  # sampling noise floor
        far = transition_moment_loss(real, diff).value.item()
        assert far > 10.0 * base
        assert far > 0.0

    def test_small_buckets_skipped_and_counted(self):
        real = np.ones((10, 3, 1)) * np.linspace(1, 2, 10)[:, None, None]
        fake = np.ones((3, 3, 1))  # all fake paths land in one bucket
        out = transition_moment_loss(real, fake, bins=5)
        assert out.skipped_buckets > 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        real = rng.standard_normal((30, 4, 2)).cumsum(axis=1)
        f0 = rng.standard_normal((30, 4, 2)).cumsum(axis=1)
        ft = Tensor(f0.copy(), requires_grad=True)
        transition_moment_loss(real, ft).value.backward()
        grad = ft.grad
        h = 1e-6
        for idx in np.ndindex(f0.shape):
            up, dn = f0.copy(), f0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (transition_moment_loss(real, up).value.item()
                  - transition_moment_loss(real, dn).value.item()) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1.0), idx

    @pytest.mark.parametrize("n_real,n_fake,seq_len,dim,bins,shift", [
        (40, 40, 6, 1, 5, 0.0),
        (60, 50, 8, 2, 5, 0.0),
        (30, 35, 5, 3, 1, 0.0),
        (50, 45, 7, 3, 5, 0.0),
        (25, 12, 6, 2, 5, 1.5),     # fake drifts up: low buckets lack fake paths
        (12, 3, 4, 1, 1, 0.0),
    ])
    def test_bit_identical_to_op_chain(self, n_real, n_fake, seq_len, dim, bins, shift):
        rng = np.random.default_rng(n_real + 10 * seq_len + dim)
        real = rng.standard_normal((n_real, seq_len, dim)).cumsum(axis=1)
        fake = rng.standard_normal((n_fake, seq_len, dim)).cumsum(axis=1)
        fake[:, 1:] += shift * np.arange(1, seq_len)[:, None]
        for scale in (1.0, 1.7):    # a unit and a non-unit output gradient
            fused_t = Tensor(fake.copy(), requires_grad=True)
            fused = transition_moment_loss(real, fused_t, bins)
            (fused.value * scale).backward()
            ref_t = Tensor(fake.copy(), requires_grad=True)
            ref = reference_transition_loss(real, ref_t, bins)
            (ref.value * scale).backward()
            assert np.array_equal(fused.value.data, ref.value.data)
            assert (fused.used_buckets, fused.skipped_buckets) == \
                (ref.used_buckets, ref.skipped_buckets)
            assert np.array_equal(fused_t.grad, ref_t.grad)
        assert fused.used_buckets > 0
        if shift:
            assert fused.skipped_buckets > 0
        constant = transition_moment_loss(real, fake, bins)   # ndarray: no graph
        assert np.array_equal(constant.value.data, ref.value.data)
        assert not constant.value.requires_grad and constant.value._parents == ()

    def test_overflow_raises(self):
        rng = np.random.default_rng(4)
        real = rng.standard_normal((20, 5, 2)).cumsum(axis=1)
        fake = rng.standard_normal((20, 5, 2)).cumsum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
            with pytest.raises(NumericOverflowError, match="transition_moment_loss"):
                transition_moment_loss(real, fake * 1e200)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            transition_moment_loss(np.ones((5, 4, 1)), np.ones((5, 3, 1)))
        with pytest.raises(DataError):
            transition_moment_loss(np.ones((5, 4, 1)), np.ones((5, 4, 2)))
        with pytest.raises(ValueError):
            transition_moment_loss(np.ones((5, 4, 1)), np.ones((5, 4, 1)), bins=0)


def reference_logsumexp(t, axis):
    """log(sum(exp(t))) along an axis, kept, as the shift-stabilised
    sub/exp/sum/log/add chain of ops."""
    shift = np.max(t.data, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return (t - shift).exp().sum(axis=axis, keepdims=True).log() + shift


def reference_gs_sweeps(cost, eps, iterations, row_first):
    """The Sinkhorn sweeps as a chain of small ops, five per half-step: the
    oracle for the fused op.  Returns (value, f, g)."""
    n, m = cost.shape
    log_mu, log_nu = -float(np.log(n)), -float(np.log(m))
    f, g = Tensor(np.zeros((n, 1))), Tensor(np.zeros((1, m)))
    for _ in range(iterations):
        if row_first:
            f = reference_logsumexp((g - cost) / eps + log_nu, axis=1) * (-eps)
            g = reference_logsumexp((f - cost) / eps + log_mu, axis=0) * (-eps)
        else:
            g = reference_logsumexp((f - cost) / eps + log_mu, axis=0) * (-eps)
            f = reference_logsumexp((g - cost) / eps + log_nu, axis=1) * (-eps)
    return f.mean() + g.mean(), f, g


def reference_transition_loss(real, fake, bins):
    """The transition loss as a chain of small autodiff ops, one bucket at a
    time: the oracle for the fused op's value, bucket counts and gradient."""
    rv = np.asarray(real, dtype=np.float64)
    fake_t = fake if isinstance(fake, Tensor) else Tensor(np.asarray(fake, dtype=np.float64))
    total = None
    used = 0
    skipped = 0
    for t in range(rv.shape[1] - 1):
        key_real = rv[:, t, 0]
        if bins > 1:
            edges = np.quantile(key_real, np.arange(1, bins) / bins)
            real_bucket = np.digitize(key_real, edges)
            fake_bucket = np.digitize(fake_t.data[:, t, 0], edges)
        else:
            real_bucket = np.zeros(rv.shape[0], dtype=int)
            fake_bucket = np.zeros(fake_t.shape[0], dtype=int)
        real_inc = rv[:, t + 1, :] - rv[:, t, :]
        for b in range(bins):
            r_idx = np.nonzero(real_bucket == b)[0]
            f_idx = np.nonzero(fake_bucket == b)[0]
            if r_idx.size < 2 or f_idx.size < 2:
                skipped += 1
                continue
            used += 1
            r_mean = real_inc[r_idx].mean(axis=0)
            r_centered = real_inc[r_idx] - r_mean
            r_cov = r_centered.T @ r_centered / (r_idx.size - 1)

            f_inc = fake_t[f_idx, t + 1, :] - fake_t[f_idx, t, :]
            f_mean = f_inc.mean(axis=0)
            f_centered = f_inc - f_mean.reshape((1, rv.shape[2]))
            f_cov = f_centered.transpose() @ f_centered / float(f_idx.size - 1)

            d_mean = f_mean - Tensor(r_mean)
            d_cov = f_cov - Tensor(r_cov)
            term = (d_mean * d_mean).sum() + (d_cov * d_cov).sum()
            total = term if total is None else total + term
    if total is None:
        return losses.TransitionLossValue(value=Tensor(0.0), used_buckets=0,
                                          skipped_buckets=skipped)
    return losses.TransitionLossValue(value=total / float(used), used_buckets=used,
                                      skipped_buckets=skipped)
