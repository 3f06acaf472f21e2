import numpy as np
import pytest

from commodgen.dataio import DataError, PathBatch
from commodgen.stochastic import (GbmParams, bs_delta, bs_price, calibrate_gbm,
                                  cholesky_factor, nearest_correlation, simulate_gbm)


def mp_call(s0, k, vol, tau):
    """High-precision zero-rate call price, independent of scipy."""
    import mpmath as mp
    mp.mp.dps = 50
    s0, k, vol, tau = map(mp.mpf, (s0, k, vol, tau))
    d1 = (mp.log(s0 / k) + vol ** 2 * tau / 2) / (vol * mp.sqrt(tau))
    d2 = d1 - vol * mp.sqrt(tau)
    cdf = lambda x: (1 + mp.erf(x / mp.sqrt(2))) / 2
    return s0 * cdf(d1) - k * cdf(d2), cdf(d1)


class TestBlackScholes:
    def test_atm_gas_quote(self):
        # frozen from the 50-digit computation in mp_call
        price = bs_price(10.34, 10.34, 0.5, 30.0 / 252.0)
        delta = bs_delta(10.34, 10.34, 0.5, 30.0 / 252.0)
        assert abs(price - 0.71075950026808834) < 1e-10
        assert abs(delta - 0.53436941490658067) < 1e-10

    @pytest.mark.parametrize("s0,k,vol,tau", [
        (10.34, 10.34, 0.5, 30 / 252), (41.41, 41.41, 0.44, 30 / 252),
        (100.0, 80.0, 0.2, 1.0), (80.0, 100.0, 0.6, 0.25), (52.76, 52.76, 0.25, 30 / 252),
    ])
    def test_against_high_precision(self, s0, k, vol, tau):
        ref_price, ref_delta = mp_call(s0, k, vol, tau)
        assert abs(bs_price(s0, k, vol, tau) - float(ref_price)) < 1e-10
        assert abs(bs_delta(s0, k, vol, tau) - float(ref_delta)) < 1e-10

    def test_limits(self):
        assert bs_price(10.0, 8.0, 0.3, 0.0) == 2.0
        assert bs_price(10.0, 12.0, 0.0, 1.0) == 0.0
        assert bs_price(10.0, 0.0, 0.3, 1.0) == 10.0
        assert bs_delta(10.0, 8.0, 0.2, 0.0) == 1.0
        assert bs_delta(8.0, 10.0, 0.2, 0.0) == 0.0
        assert bs_delta(10.0, 10.0, 0.2, 0.0) == 0.5
        assert bs_delta(0.0, 10.0, 0.2, 1.0) == 0.0

    def test_vectorised_delta(self):
        s = np.array([5.0, 10.34, 20.0])
        d = bs_delta(s, 10.34, 0.5, 30 / 252)
        assert d.shape == (3,)
        assert 0.0 < d[0] < d[1] < d[2] < 1.0

    def test_put_call_style_bounds_and_quote(self):
        spot = strike = 10.34
        price = bs_price(spot, strike, 0.5, 30 / 252)
        assert max(spot - strike, 0.0) <= price <= spot
        assert 0.0 <= bs_delta(spot, strike, 0.5, 30 / 252) <= 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            bs_price(-1.0, 10.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            bs_delta(10.0, 10.0, -0.2, 1.0)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_factor(np.eye(3)), np.eye(3))

    def test_near_psd_jitter_path(self):
        # rank-deficient: perfectly correlated pair, PSD but singular
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor = cholesky_factor(c)
        np.testing.assert_allclose(factor @ factor.T, c, atol=1e-4)

    def test_indefinite_rejected(self):
        c = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(DataError, match="not positive definite"):
            cholesky_factor(c)

    def test_nearest_correlation_repairs(self):
        c = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        fixed = nearest_correlation(c)
        np.testing.assert_allclose(np.diag(fixed), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(fixed)[0] > -1e-8
        cholesky_factor(fixed)  # jitter path now succeeds
        # projection is idempotent on an already-valid matrix
        good = np.array([[1.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(nearest_correlation(good), good, atol=1e-10)


class TestSimulate:
    def params2(self):
        return GbmParams(sigma=np.array([0.2, 0.4]),
                         corr=np.array([[1.0, 0.6], [0.6, 1.0]]))

    def test_shape_start_positive(self):
        batch = simulate_gbm(self.params2(), 50, 30, np.array([10.0, 50.0]), seed=1)
        assert batch.values.shape == (50, 30, 2)
        np.testing.assert_array_equal(batch.values[:, 0, :], np.tile([10.0, 50.0], (50, 1)))
        assert np.all(batch.values > 0)

    def test_deterministic_per_seed(self):
        a = simulate_gbm(self.params2(), 5, 10, np.array([1.0, 1.0]), seed=3)
        b = simulate_gbm(self.params2(), 5, 10, np.array([1.0, 1.0]), seed=3)
        c = simulate_gbm(self.params2(), 5, 10, np.array([1.0, 1.0]), seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_driftless_mean_is_start(self):
        batch = simulate_gbm(GbmParams(sigma=np.array([0.3]), corr=np.eye(1)),
                             20000, 30, np.array([1.0]), seed=5)
        assert abs(batch.values[:, -1, 0].mean() - 1.0) < 0.01

    def test_single_step_lognormal_moments(self):
        sig = 0.4
        batch = simulate_gbm(GbmParams(sigma=np.array([sig]), corr=np.eye(1), dt=1.0),
                             200000, 2, np.array([1.0]), seed=6)
        logs = np.log(batch.values[:, 1, 0])
        assert abs(logs.mean() + 0.5 * sig * sig) < 5e-3
        assert abs(logs.std() - sig) < 5e-3

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            simulate_gbm(self.params2(), 0, 10, np.array([1.0, 1.0]), seed=0)
        with pytest.raises(DataError):
            simulate_gbm(self.params2(), 5, 1, np.array([1.0, 1.0]), seed=0)
        with pytest.raises(DataError):
            simulate_gbm(self.params2(), 5, 10, np.array([1.0]), seed=0)
        with pytest.raises(DataError):
            simulate_gbm(self.params2(), 5, 10, np.array([-1.0, 1.0]), seed=0)


class TestCalibrate:
    def test_roundtrip_sigma_and_corr(self):
        true = GbmParams(sigma=np.array([0.2, 0.5]),
                         corr=np.array([[1.0, 0.7], [0.7, 1.0]]))
        batch = simulate_gbm(true, 2000, 30, np.array([1.0, 1.0]), seed=11)
        est = calibrate_gbm(batch)
        np.testing.assert_allclose(est.sigma, true.sigma, rtol=0.03)
        assert abs(est.corr[0, 1] - 0.7) < 0.02
        np.testing.assert_array_equal(est.drift, np.zeros(2))

    def test_drift_pinned_to_zero(self):
        # data with a strong upward trend still calibrates to zero drift
        t = np.linspace(0, 1, 30)
        vals = np.exp(2.0 * t)[None, :, None] * np.ones((4, 1, 1))
        vals = vals * np.exp(0.01 * np.random.default_rng(0).standard_normal((4, 30, 1)))
        est = calibrate_gbm(PathBatch(values=vals, labels=["x"]))
        np.testing.assert_array_equal(est.drift, np.zeros(1))

    def test_constant_column_gets_zero_offdiag(self):
        vals = np.ones((3, 10, 2))
        vals[:, :, 0] = np.exp(np.cumsum(0.02 * np.random.default_rng(1)
                                         .standard_normal((3, 10)), axis=1))
        est = calibrate_gbm(PathBatch(values=vals, labels=["a", "b"]))
        assert est.sigma[1] == 0.0
        assert est.corr[0, 1] == 0.0 and est.corr[1, 1] == 1.0

    def test_params_serialization(self):
        p = GbmParams(sigma=np.array([0.3]), corr=np.eye(1))
        q = GbmParams.from_dict(p.to_dict())
        np.testing.assert_array_equal(q.sigma, p.sigma)
        assert q.dt == p.dt

    def test_invalid_params_rejected(self):
        with pytest.raises(DataError):
            GbmParams(sigma=np.array([-0.1]), corr=np.eye(1))
        with pytest.raises(DataError):
            GbmParams(sigma=np.array([0.1, 0.2]), corr=np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(DataError):
            GbmParams(sigma=np.array([0.1]), corr=np.array([[0.9]]))
