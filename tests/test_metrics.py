import numpy as np
import pytest

from commodgen import store
from commodgen.dataio import DataError
from commodgen.metrics import (LOW_CONFIDENCE_N, REPORT_HEADER, corr_metric,
                               emit_report, format_metric, marginal_metrics,
                               metric_report, path_qvar, pearson_metric,
                               qvar_metric, unit_scale_pair)
from commodgen.rng import rng_for
from commodgen.stochastic import GbmParams, simulate_gbm


def gbm(sigma, n, seq_len=30, corr=None, seed=1, d=None):
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    d = sigma.size if d is None else d
    corr = np.eye(d) if corr is None else np.asarray(corr)
    params = GbmParams(sigma=sigma, corr=corr)
    return simulate_gbm(params, n, seq_len, np.ones(d), seed=seed)


def random_batch(n=40, seq_len=9, d=3, seed=0):
    return rng_for(seed, "met", "batch").standard_normal((n, seq_len, d)).cumsum(axis=1)


# ---------------------------------------------------------------------------
# basics


def test_path_qvar_hand_example():
    series = np.array([[[0.0], [1.0], [3.0]]])
    assert path_qvar(series)[0, 0] == 5.0  # 1^2 + 2^2


def test_self_comparison_is_exactly_zero():
    batch = random_batch()
    marg = marginal_metrics(batch, batch)
    assert all(np.all(v == 0.0) for v in marg.values())
    assert np.all(qvar_metric(batch, batch) == 0.0)
    assert corr_metric(batch, batch) == 0.0
    assert pearson_metric(batch, batch) == 0.0
    rep = metric_report(batch, batch, model="self")
    for row in rep.rows():
        assert row["p05"] == row["avg"] == row["p95"] == row["qvar"] == row["corr"] == 0.0


def test_constant_shift_moves_marginals_only():
    real = random_batch(n=64)
    c = 0.73
    fake = real + c
    marg = marginal_metrics(real, fake)
    for key in ("p05", "avg", "p95"):
        assert np.allclose(marg[key], c * c, rtol=1e-12)
    # increments and covariances are shift-invariant
    assert np.allclose(qvar_metric(real, fake), 0.0, atol=1e-20)
    assert abs(corr_metric(real, fake)) < 1e-20


def test_metrics_are_symmetric():
    a, b = random_batch(seed=1), random_batch(seed=2)
    ma, mb = marginal_metrics(a, b), marginal_metrics(b, a)
    for key in ma:
        assert np.array_equal(ma[key], mb[key])
    assert np.array_equal(qvar_metric(a, b), qvar_metric(b, a))
    assert corr_metric(a, b) == corr_metric(b, a)


def test_metrics_ignore_sample_order():
    a, b = random_batch(seed=3), random_batch(seed=4)
    perm = rng_for(9, "met", "perm").permutation(b.shape[0])
    before = metric_report(a, b)
    after = metric_report(a, b[perm])
    assert np.allclose(before.avg, after.avg, rtol=1e-12)
    assert np.allclose(before.p05, after.p05, rtol=1e-12)
    assert np.allclose(before.qvar, after.qvar, rtol=1e-12)
    assert np.isclose(before.corr, after.corr, rtol=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(DataError):
        marginal_metrics(random_batch(d=2), random_batch(d=3))
    with pytest.raises(DataError):
        qvar_metric(random_batch(seq_len=5), random_batch(seq_len=6))


# ---------------------------------------------------------------------------
# oracles


def test_qvar_metric_matches_gbm_closed_form():
    # driftless GBM, s0=1: E[QVar] = sum_t E[S_t^2](e^{s^2 dt}-1), E[S_t^2]=e^{s^2 t dt}
    dt = 1.0 / 252
    t = np.arange(29)
    q = {s: float(np.sum(np.exp(s * s * t * dt) * (np.exp(s * s * dt) - 1.0)))
         for s in (0.2, 0.4)}
    oracle = (q[0.2] - q[0.4]) ** 2
    assert abs(oracle - 1.9514614422350933e-04) < 1e-12  # frozen closed form
    real = gbm(0.2, 20000, seed=1)
    fake = gbm(0.4, 20000, seed=2)
    metric = qvar_metric(real, fake)[0]
    assert abs(metric / oracle - 1.0) < 0.10
    # the mean QVars themselves sit in a ratio of about 4
    ratio = path_qvar(fake).mean() / path_qvar(real).mean()
    assert abs(ratio / (q[0.4] / q[0.2]) - 1.0) < 0.05


def test_corr_metric_perfect_vs_independent():
    # equal-sigma dims, perfectly correlated vs independent: the per-step
    # covariance differs only off-diagonal by cov_t = e^{s^2 t dt} - 1,
    # so the metric is mean_t 2 cov_t^2 / 4 (mean over the 4 entries)
    sigma, seq_len, n = 0.3, 30, 20000
    t = np.arange(seq_len)
    cov_t = np.exp(sigma * sigma * t / 252.0) - 1.0
    oracle = (2.0 * cov_t ** 2).mean() / 4.0
    real = gbm([sigma, sigma], n, corr=[[1.0, 1.0], [1.0, 1.0]], seed=5)
    fake = gbm([sigma, sigma], n, corr=np.eye(2), seed=6)
    metric = corr_metric(real, fake)
    assert abs(metric / oracle - 1.0) < 0.15
    # Pearson variant: 1 vs 0 on both off-diagonals -> about 2/4
    assert abs(pearson_metric(real, fake) - 0.5) < 0.05


def test_corr_metric_single_dimension_is_zero_by_convention():
    assert corr_metric(random_batch(d=1), random_batch(d=1, seed=7)) == 0.0
    assert pearson_metric(random_batch(d=1), random_batch(d=1, seed=7)) == 0.0


def test_same_law_batches_sit_near_zero():
    # two independent draws from one GBM law: the marginal avg metric is
    # sampling noise only on unit-scaled data
    real = gbm(0.3, 10000, seed=11)
    fake = gbm(0.3, 10000, seed=12)
    marg = marginal_metrics(real, fake)
    assert marg["avg"][0] < 1e-3


# ---------------------------------------------------------------------------
# report plumbing


def test_report_counts_and_flags():
    rep = metric_report(random_batch(n=12), random_batch(n=50, seed=5), model="m")
    assert rep.n_real == 12 and rep.n_fake == 50
    assert rep.low_confidence  # min(12, 50) < 20
    ok = metric_report(random_batch(n=30), random_batch(n=30, seed=5))
    assert not ok.low_confidence
    assert LOW_CONFIDENCE_N == 20


def test_format_metric_style():
    assert format_metric(0.00288) == "2.88e-03"
    assert format_metric(0.0) == "0.00e+00"
    assert format_metric(12345.0) == "1.23e+04"


def test_emit_and_read_report_roundtrip(tmp_path):
    rep = metric_report(random_batch(n=25), random_batch(n=25, seed=5), model="CEGEN")
    path = tmp_path / "report.csv"
    emit_report(rep, path)
    header, rows = store.read_csv(path)
    assert header == REPORT_HEADER.split(",")
    assert len(rows) == 3
    assert rows[0][0] == "CEGEN" and int(rows[2][1]) == 2
    # formatted values parse back and re-emit byte-identically
    for row in rows:
        for cell in row[2:]:
            assert format_metric(float(cell)) == cell
    path2 = tmp_path / "again.csv"
    emit_report(rep, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unit_scaling_is_unit_invariant():
    real, fake = random_batch(seed=1) + 5.0, random_batch(seed=2) + 5.0
    r1, f1 = unit_scale_pair(real, fake)
    r2, f2 = unit_scale_pair(real * 1000.0, fake * 1000.0)
    assert np.allclose(r1, r2, rtol=1e-12)
    assert np.allclose(f1, f2, rtol=1e-12)
