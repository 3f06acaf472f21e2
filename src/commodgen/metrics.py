"""Distributional comparison metrics for generated vs reference path batches.

Three families, all "lower is better":

* marginal: per time step, compare mean / 5% / 95% quantile across samples,
  then average the squared gaps over time (per dimension);
* quadratic variation: squared gap of batch-mean path QVars (per dimension);
* cross-sectional dependence: mean squared gap of per-step covariance
  matrices (scalar; `MetricReport` also carries a Pearson-correlation
  variant, which `report.csv` leaves out).

Every metric is symmetric in its two arguments, invariant under permuting
samples, and exactly zero when comparing a batch with itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import store
from .dataio import DataError, PathBatch

REPORT_HEADER = "model,dim,p05,avg,p95,qvar,corr"

# below this many samples the 5%/95% quantiles sit on extreme order
# statistics and the report is flagged (`eval-gen` records the flag in its
# manifest)
LOW_CONFIDENCE_N = 20


def _values(batch) -> np.ndarray:
    v = batch.values if isinstance(batch, PathBatch) else np.asarray(batch, dtype=np.float64)
    if v.ndim != 3:
        raise DataError(f"expected an (n, T, d) batch, got shape {v.shape}")
    return v


def _pair(real, fake):
    rv, fv = _values(real), _values(fake)
    if rv.shape[1:] != fv.shape[1:]:
        raise DataError(f"batches disagree on (T, d): {rv.shape[1:]} vs {fv.shape[1:]}")
    return rv, fv


def path_qvar(batch) -> np.ndarray:
    """Discrete quadratic variation sum_t |X_{t+1} - X_t|^2, per path and dim."""
    v = _values(batch)
    return np.sum(np.diff(v, axis=1) ** 2, axis=1)


def marginal_metrics(real, fake) -> dict:
    """{p05, avg, p95}: time-averaged squared gaps of per-step statistics, (d,) each."""
    rv, fv = _pair(real, fake)
    stats = {
        "p05": lambda a: np.quantile(a, 0.05, axis=0),
        "avg": lambda a: a.mean(axis=0),
        "p95": lambda a: np.quantile(a, 0.95, axis=0),
    }
    return {name: ((f(rv) - f(fv)) ** 2).mean(axis=0) for name, f in stats.items()}


def qvar_metric(real, fake) -> np.ndarray:
    """Squared difference of batch-mean quadratic variations, per dimension."""
    rv, fv = _pair(real, fake)
    return (path_qvar(rv).mean(axis=0) - path_qvar(fv).mean(axis=0)) ** 2


def _cov_per_step(v: np.ndarray) -> np.ndarray:
    """(T, d, d) cross-sectional covariance matrices across samples."""
    if v.shape[0] < 2:
        raise DataError("covariance metric needs at least 2 samples per batch")
    centered = v - v.mean(axis=0, keepdims=True)
    return np.einsum("ntd,nte->tde", centered, centered) / (v.shape[0] - 1)


def corr_metric(real, fake) -> float:
    """Mean squared gap of per-step covariance matrices (over t and entries)."""
    rv, fv = _pair(real, fake)
    if rv.shape[2] == 1:
        return 0.0  # scalar series carry no cross-sectional structure
    diff = _cov_per_step(rv) - _cov_per_step(fv)
    return float((diff ** 2).mean())


def pearson_metric(real, fake) -> float:
    """Same gap on Pearson correlation matrices (scale-free companion)."""
    rv, fv = _pair(real, fake)
    if rv.shape[2] == 1:
        return 0.0

    def corrs(v):
        c = _cov_per_step(v)
        sd = np.sqrt(np.maximum(np.einsum("tdd->td", c), 0.0))
        denom = sd[:, :, None] * sd[:, None, :]
        # degenerate (constant) dimensions contribute zero correlation
        return np.where(denom > 0, c / np.where(denom > 0, denom, 1.0), 0.0)

    return float(((corrs(rv) - corrs(fv)) ** 2).mean())


def unit_scale_pair(real, fake):
    """Both batches divided by the real batch's per-dimension mean |level|.

    Makes metric magnitudes comparable across commodities quoted in very
    different units; the scale comes from the real side only so the fake
    batch cannot shift it.
    """
    rv, fv = _pair(real, fake)
    scale = np.abs(rv).mean(axis=(0, 1))
    scale = np.where(scale > 0, scale, 1.0)
    return rv / scale, fv / scale


@dataclass
class MetricReport:
    """All metrics for one (real, fake) comparison, one row per dimension."""

    model: str
    p05: np.ndarray
    avg: np.ndarray
    p95: np.ndarray
    qvar: np.ndarray
    corr: float
    corr_pearson: float
    n_real: int
    n_fake: int
    seq_len: int
    dim: int
    low_confidence: bool = False

    def rows(self) -> list[dict]:
        return [{"model": self.model, "dim": i, "p05": float(self.p05[i]),
                 "avg": float(self.avg[i]), "p95": float(self.p95[i]),
                 "qvar": float(self.qvar[i]), "corr": self.corr}
                for i in range(self.dim)]


def metric_report(real, fake, model: str = "model") -> MetricReport:
    rv, fv = _pair(real, fake)
    marg = marginal_metrics(rv, fv)
    return MetricReport(
        model=model,
        p05=marg["p05"], avg=marg["avg"], p95=marg["p95"],
        qvar=qvar_metric(rv, fv),
        corr=corr_metric(rv, fv),
        corr_pearson=pearson_metric(rv, fv),
        n_real=rv.shape[0], n_fake=fv.shape[0],
        seq_len=rv.shape[1], dim=rv.shape[2],
        low_confidence=min(rv.shape[0], fv.shape[0]) < LOW_CONFIDENCE_N,
    )


def format_metric(x: float) -> str:
    """Three-significant-digit scientific notation, e.g. 2.88e-03."""
    return f"{float(x):.2e}"


def emit_report(report: MetricReport, path) -> None:
    """Write a report as CSV rows, one per dimension, under the fixed schema."""
    store.write_csv(path, REPORT_HEADER.split(","),
                    [[row["model"], str(row["dim"])]
                     + [format_metric(row[k]) for k in ("p05", "avg", "p95", "qvar", "corr")]
                     for row in report.rows()])
