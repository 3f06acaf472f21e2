import numpy as np
import pytest

from commodgen import losses
from commodgen.autodiff import ParamSet, Tensor
from commodgen.dataio import DataError
from commodgen.losses import (CausalCritic, ConditionalSigMetric, SinkhornConfig,
                              TransitionBinning, causal_transport_losses,
                              martingale_defect, sinkhorn_divergence,
                              transition_moment_loss)
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


class TestCausalTransport:
    def make_batches(self, seed=0, n=8, seq_len=6, d=2):
        rng = np.random.default_rng(seed)
        real = 1.0 + 0.1 * rng.standard_normal((n, seq_len, d)).cumsum(axis=1)
        fake = 1.0 + 0.1 * rng.standard_normal((n, seq_len, d)).cumsum(axis=1)
        return real, fake

    def test_no_critic_reduces_to_raw_sinkhorn(self):
        real, fake = self.make_batches()
        gen, critic_loss, sv = causal_transport_losses(real, fake, critic=None)
        direct = sinkhorn_divergence(real, fake)
        assert gen.item() == direct.value.item()
        assert critic_loss.item() == -gen.item()

    def test_identical_batches_zero_loss(self):
        real, _ = self.make_batches()
        gen, _, _ = causal_transport_losses(real, real.copy(), critic=None,
                                            cfg=SinkhornConfig(causal_weight=0.0))
        assert abs(gen.item()) <= 1e-8

    def test_critic_losses_are_negations(self):
        real, fake = self.make_batches()
        params = ParamSet(seed=3)
        critic = CausalCritic(params, dim=2, feature_dim=4, hidden=8)
        gen, critic_loss, sv = causal_transport_losses(real, fake, critic,
                                                       SinkhornConfig(iterations=20))
        assert critic_loss.item() == -gen.item()
        assert np.isfinite(gen.item())

    def test_critic_gradient_matches_finite_differences(self):
        real, fake = self.make_batches(n=5, seq_len=4)
        params = ParamSet(seed=4)
        critic = CausalCritic(params, dim=2, feature_dim=3, hidden=4)
        cfg = SinkhornConfig(epsilon=0.5, iterations=15, causal_weight=1.0)

        def value():
            gen, _, _ = causal_transport_losses(real, fake, critic, cfg)
            return gen

        value().backward()
        grads = params.take_grads()
        name = "critic.h.wz"
        p = params[name]
        base = p.data.copy()
        h = 1e-5
        for idx in [(0, 0), (1, 2)]:
            up, dn = base.copy(), base.copy()
            up[idx] += h
            dn[idx] -= h
            p.data = up
            v_up = value().item()
            p.data = dn
            v_dn = value().item()
            p.data = base
            fd = (v_up - v_dn) / (2 * h)
            assert abs(grads[name][idx] - fd) <= 1e-4 * max(abs(fd), 1.0)

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
        loss = ConditionalSigMetric(depth=3).fit(pasts, futures).loss(pasts, futures.copy())
        assert loss.item() <= 1e-8

    def test_matched_futures_beat_scaled_futures(self):
        pasts, futures = self.make_pairs(n=60)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        good = metric.loss(pasts, futures.copy()).item()
        bad = metric.loss(pasts, futures * 2.0).item()
        assert good < bad
        assert bad > 0.0

    def test_monte_carlo_axis_supported(self):
        pasts, futures = self.make_pairs(n=20)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        single = metric.loss(pasts, futures.copy())
        tiled = np.repeat(futures[:, None, :, :], 4, axis=1)
        multi = metric.loss(pasts, tiled)
        np.testing.assert_allclose(multi.item(), single.item(), rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        pasts, futures = self.make_pairs(n=12, d=1)
        metric = ConditionalSigMetric(depth=3).fit(pasts, futures)
        f0 = futures.copy()
        ft = Tensor(f0.copy(), requires_grad=True)
        metric.loss(pasts, ft).backward()
        grad = ft.grad
        h = 1e-6
        for idx in [(0, 0, 0), (5, 2, 0), (11, 1, 0)]:
            up, dn = f0.copy(), f0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (metric.loss(pasts, up).item() - metric.loss(pasts, dn).item()) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_shape_validation(self):
        pasts, futures = self.make_pairs()
        with pytest.raises(DataError):
            ConditionalSigMetric(depth=2).fit(pasts[:5], futures)
        metric = ConditionalSigMetric(depth=2).fit(pasts, futures)
        with pytest.raises(DataError):
            metric.loss(pasts, futures[:3])


class TestTransitionMoments:
    def test_identical_batches_exact_zero(self):
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((60, 8, 2)).cumsum(axis=1)
        out = transition_moment_loss(batch, batch.copy(), TransitionBinning(bins=5))
        assert out.value.item() == 0.0
        assert out.used_buckets > 0

    def test_single_bin_is_unconditional_matching(self):
        rng = np.random.default_rng(1)
        real = rng.standard_normal((50, 6, 1)).cumsum(axis=1)
        fake = rng.standard_normal((50, 6, 1)).cumsum(axis=1)
        out = transition_moment_loss(real, fake, TransitionBinning(bins=1))
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
        out = transition_moment_loss(real, fake, TransitionBinning(bins=5))
        assert out.skipped_buckets > 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        real = rng.standard_normal((30, 4, 2)).cumsum(axis=1)
        f0 = rng.standard_normal((30, 4, 2)).cumsum(axis=1)
        ft = Tensor(f0.copy(), requires_grad=True)
        transition_moment_loss(real, ft).value.backward()
        grad = ft.grad
        h = 1e-6
        for idx in [(0, 1, 0), (7, 3, 1), (29, 2, 0)]:
            up, dn = f0.copy(), f0.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (transition_moment_loss(real, up).value.item()
                  - transition_moment_loss(real, dn).value.item()) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            transition_moment_loss(np.ones((5, 4, 1)), np.ones((5, 3, 1)))
        with pytest.raises(DataError):
            transition_moment_loss(np.ones((5, 4, 1)), np.ones((5, 4, 2)))
        with pytest.raises(ValueError):
            TransitionBinning(bins=0)
