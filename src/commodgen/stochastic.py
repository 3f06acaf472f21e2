"""Correlated geometric Brownian motion and zero-rate Black-Scholes.

The GBM benchmark is deliberately boring: per-dimension volatility from the
sample standard deviation of log returns, zero drift (commodity forwards are
modelled driftless), correlation from the sample correlation of log returns,
and exact lognormal stepping, so even a single-step simulation has the right
marginal law.

All option formulas assume zero interest rate; prices, deltas and hedging
P&L live on the same undiscounted scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from .dataio import DataError, PathBatch, TRADING_DT
from .rng import rng_for

CHOLESKY_JITTER = 1e-10


@dataclass
class GbmParams:
    """Driftless multivariate GBM: per-dimension sigma, correlation, step size."""

    sigma: np.ndarray
    corr: np.ndarray
    drift: np.ndarray | None = None
    dt: float = TRADING_DT

    def __post_init__(self):
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=np.float64))
        d = self.sigma.shape[0]
        if self.sigma.ndim != 1 or np.any(self.sigma < 0) or not np.all(np.isfinite(self.sigma)):
            raise DataError("sigma must be a non-negative finite vector")
        self.drift = np.zeros(d) if self.drift is None else np.asarray(self.drift, dtype=np.float64)
        if self.drift.shape != (d,):
            raise DataError(f"drift shape {self.drift.shape} does not match {d} dimensions")
        self.corr = np.asarray(self.corr, dtype=np.float64)
        if self.corr.shape != (d, d):
            raise DataError(f"correlation shape {self.corr.shape} does not match {d} dimensions")
        if not np.allclose(self.corr, self.corr.T, atol=1e-8):
            raise DataError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(self.corr), 1.0, atol=1e-8):
            raise DataError("correlation matrix must have unit diagonal")
        if self.dt <= 0:
            raise DataError("dt must be positive")

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def to_dict(self) -> dict:
        return {"sigma": self.sigma.tolist(), "corr": self.corr.tolist(),
                "drift": self.drift.tolist(), "dt": self.dt}

    @classmethod
    def from_dict(cls, d: dict) -> "GbmParams":
        return cls(sigma=np.asarray(d["sigma"]), corr=np.asarray(d["corr"]),
                   drift=np.asarray(d["drift"]), dt=float(d["dt"]))


def cholesky_factor(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retrying once with a small diagonal jitter.

    Matrices that remain indefinite after the jitter are rejected: silently
    repairing them would change the model.  Use `nearest_correlation` first
    if the input is a rounded or hand-edited matrix.
    """
    corr = np.asarray(corr, dtype=np.float64)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        pass
    jittered = corr + CHOLESKY_JITTER * np.eye(corr.shape[0])
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(corr)
        raise DataError(f"correlation matrix is not positive definite "
                        f"(smallest eigenvalue {eigs[0]:.3e}); "
                        f"project it with nearest_correlation first") from exc


def nearest_correlation(matrix: np.ndarray, tol: float = 1e-12, max_iters: int = 200) -> np.ndarray:
    """Nearest correlation matrix by alternating projections (Higham 2002).

    Projects back and forth between the positive semidefinite cone and the
    unit-diagonal affine set, with the standard Dykstra correction.  Needed
    for quoted matrices that are rounded to two decimals and end up slightly
    (or not so slightly) indefinite.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError("nearest_correlation expects a square matrix")
    y = a.copy()
    ds = np.zeros_like(a)
    for _ in range(max_iters):
        r = y - ds
        w, v = np.linalg.eigh((r + r.T) / 2.0)
        x = (v * np.maximum(w, 0.0)) @ v.T
        ds = x - r
        y_next = (x + x.T) / 2.0
        np.fill_diagonal(y_next, 1.0)
        if np.max(np.abs(y_next - y)) < tol:
            y = y_next
            break
        y = y_next
    eigs = np.linalg.eigvalsh(y)
    if eigs[0] < -1e-8:
        raise DataError(f"nearest_correlation failed to converge "
                        f"(smallest eigenvalue {eigs[0]:.3e})")
    return y


def calibrate_gbm(batch: PathBatch) -> GbmParams:
    """MLE of driftless GBM from a batch of paths pooled over samples and time.

    sigma_hat = std(log returns) / sqrt(dt) with the biased (1/n) estimator;
    correlation is the sample correlation of pooled log returns.  Drift is
    pinned to zero regardless of the sample mean.
    """
    if np.any(batch.values <= 0):
        raise DataError("GBM calibration needs strictly positive prices")
    rets = np.diff(np.log(batch.values), axis=1).reshape(-1, batch.dim)
    sd = rets.std(axis=0, ddof=0)
    sigma = sd / np.sqrt(batch.dt)
    centered = rets - rets.mean(axis=0)
    cov = centered.T @ centered / rets.shape[0]
    denom = np.outer(sd, sd)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(corr, 1.0)
    corr = (corr + corr.T) / 2.0
    return GbmParams(sigma=sigma, corr=corr, dt=batch.dt)


def simulate_gbm(params: GbmParams, n_paths: int, n_points: int, s0,
                 seed: int, labels: list[str] | None = None) -> PathBatch:
    """Exact lognormal sampling of correlated GBM at n_points dates.

    The first time slice equals s0; each subsequent step multiplies by
    exp((mu - sigma^2/2) dt + sigma sqrt(dt) z) with z correlated standard
    normals.  Deterministic per (params, n_paths, n_points, s0, seed).
    """
    if n_paths < 1 or n_points < 2:
        raise DataError(f"need n_paths >= 1 and n_points >= 2, "
                        f"got {n_paths} and {n_points}")
    d = params.dim
    s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
    if s0.shape != (d,):
        raise DataError(f"s0 shape {s0.shape} does not match {d} dimensions")
    if np.any(s0 <= 0) or not np.all(np.isfinite(s0)):
        raise DataError("s0 must be positive and finite")
    factor = cholesky_factor(params.corr)
    draws = rng_for(seed, "gbm", "sim").standard_normal((n_paths, n_points - 1, d))
    shocks = draws @ factor.T
    steps = (params.drift - 0.5 * params.sigma ** 2) * params.dt \
        + params.sigma * np.sqrt(params.dt) * shocks
    log_levels = np.cumsum(steps, axis=1)
    values = np.empty((n_paths, n_points, d))
    values[:, 0, :] = s0
    values[:, 1:, :] = s0 * np.exp(log_levels)
    if labels is None:
        labels = [f"dim{i}" for i in range(d)]
    return PathBatch(values=values, labels=labels, dt=params.dt)


# ---------------------------------------------------------------------------
# zero-rate Black-Scholes


_erfc = np.frompyfunc(erfc, 1, 1)


def _ndtr(x):
    """Standard normal CDF, 0.5 * erfc(-x / sqrt(2)), elementwise."""
    return np.asarray(0.5 * _erfc(-x / sqrt(2.0)), dtype=np.float64)


def _d1(s, strike, vol, ttm):
    return (np.log(s / strike) + 0.5 * vol * vol * ttm) / (vol * np.sqrt(ttm))


def bs_price(s0, strike: float, vol: float, maturity: float):
    """European call price at zero interest rate; vectorised over s0."""
    s0 = np.asarray(s0, dtype=np.float64)
    if np.any(s0 < 0) or strike < 0 or vol < 0 or maturity < 0:
        raise ValueError("bs_price arguments must be non-negative")
    if strike == 0:
        return s0 + 0.0 if s0.ndim else float(s0)
    if vol == 0 or maturity == 0:
        out = np.maximum(s0 - strike, 0.0)
        return out if out.ndim else float(out)
    with np.errstate(divide="ignore"):
        d1 = _d1(s0, strike, vol, maturity)
    d2 = d1 - vol * np.sqrt(maturity)
    out = np.where(s0 > 0, s0 * _ndtr(d1) - strike * _ndtr(d2), 0.0)
    return out if out.ndim else float(out)


def bs_delta(s, strike: float, vol: float, ttm: float):
    """Call delta at zero rate; intrinsic indicator at expiry; vectorised over s."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0) or strike < 0 or vol < 0 or ttm < 0:
        raise ValueError("bs_delta arguments must be non-negative")
    if strike == 0:
        out = np.ones_like(s)
        return out if out.ndim else float(out)
    if vol == 0 or ttm == 0:
        out = np.where(s > strike, 1.0, np.where(s < strike, 0.0, 0.5))
        return out if out.ndim else float(out)
    with np.errstate(divide="ignore"):
        out = np.where(s > 0, _ndtr(_d1(np.where(s > 0, s, 1.0), strike, vol, ttm)), 0.0)
    return out if out.ndim else float(out)
