"""Differentiable training losses for the path generators.

Three families live here:

* an entropy-regularised optimal transport divergence (debiased Sinkhorn)
  with an optional adapted-feature cost and causality penalty, used by the
  adversarial transport generator;
* a conditional signature metric: ridge-regress future signatures on past
  signatures over real pairs, then score fake futures against the regression
  prediction, used by the signature generator;
* a conditional transition-moment distance: bucket paths by current level,
  compare per-bucket mean and covariance of the next increment, used by the
  conditional Euler generator.

Every loss returns an autodiff scalar: the Sinkhorn iterations are unrolled
in-graph, the ridge regression coefficients are constants fitted on real
data only, and quantile bucket edges are constants from real data, so the
gradient flows through exactly the terms the corresponding papers train.
The Sinkhorn marginal violation is a diagnostic measured once, at the last
iteration of the cross term's sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, Tensor, concat, logsumexp
from .dataio import DataError
from .nets import Mlp, RecurrentCell, unroll_states
from .signature import signature_levels

MARGINAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# entropic optimal transport


@dataclass
class SinkhornConfig:
    epsilon: float = 0.1
    iterations: int = 100
    causal_weight: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.causal_weight < 0:
            raise ValueError("causal_weight must be non-negative")


@dataclass
class SinkhornValue:
    """Debiased divergence with convergence diagnostics."""

    value: Tensor
    converged: bool
    marginal_violation: float


def _as_points(x) -> Tensor:
    """Lift paths or feature blocks to a 2-d point cloud (n, features)."""
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.ndim == 3:
        n, seq_len, d = t.shape
        t = t.reshape((n, seq_len * d))
    if t.ndim != 2:
        raise DataError(f"expected 2-d or 3-d input, got shape {t.shape}")
    return t


def _pairwise_sq_cost(x: Tensor, y: Tensor) -> Tensor:
    x2 = (x * x).sum(axis=1, keepdims=True)
    y2 = (y * y).sum(axis=1, keepdims=True).transpose()
    return x2 + y2 - (x @ y.transpose()) * 2.0


def _plan_marginal_violation(f: np.ndarray, g: np.ndarray, cost: np.ndarray,
                             eps: float) -> float:
    n, m = cost.shape
    logp = (f + g - cost) / eps - np.log(n) - np.log(m)
    with np.errstate(over="ignore"):
        rows = np.exp(np.logaddexp.reduce(logp, axis=1))
        cols = np.exp(np.logaddexp.reduce(logp, axis=0))
    return float(max(np.max(np.abs(rows - 1.0 / n)), np.max(np.abs(cols - 1.0 / m))))


def _gs_sweeps(cost: Tensor, eps: float, iterations: int, row_first: bool,
               measure: bool):
    """Alternating log-domain Sinkhorn sweeps from zero potentials.

    Returns (dual objective mean(f) + mean(g), marginal violation of the
    plan at the last iteration, or None unless `measure`).  The alternating
    schedule converges monotonically in the marginal violation.
    """
    n, m = cost.shape
    log_mu = -float(np.log(n))
    log_nu = -float(np.log(m))
    f = Tensor(np.zeros((n, 1)))
    g = Tensor(np.zeros((1, m)))
    for _ in range(iterations):
        if row_first:
            f = logsumexp((g - cost) / eps + log_nu, axis=1, keepdims=True) * (-eps)
            g = logsumexp((f - cost) / eps + log_mu, axis=0, keepdims=True) * (-eps)
        else:
            g = logsumexp((f - cost) / eps + log_mu, axis=0, keepdims=True) * (-eps)
            f = logsumexp((g - cost) / eps + log_nu, axis=1, keepdims=True) * (-eps)
    violation = _plan_marginal_violation(f.data, g.data, cost.data, eps) if measure else None
    return f.mean() + g.mean(), violation


def _ot_dual_value(x: Tensor, y: Tensor, eps: float, iterations: int,
                   measure: bool = False):
    """Unrolled entropic transport value; returns (dual objective, violation).

    At a finite iteration count the alternating schedule's value depends on
    which marginal sweeps first, so both orders are run over the shared
    cost matrix and averaged.  Swapping x and y maps the two runs onto each
    other, making the value exactly symmetric without any branch selection
    that could kink the loss surface.  When x and y are the same object one
    run suffices: on a symmetric cost the orders mirror each other.  With
    `measure` the violation is the larger of the runs' last-iteration
    marginal violations; without it, None.
    """
    x, y = _as_points(x), _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise DataError(f"point clouds disagree on feature size: "
                        f"{x.shape[1]} vs {y.shape[1]}")
    cost = _pairwise_sq_cost(x, y)
    if x is y:
        return _gs_sweeps(cost, eps, iterations, row_first=True, measure=measure)
    va, ma = _gs_sweeps(cost, eps, iterations, row_first=True, measure=measure)
    vb, mb = _gs_sweeps(cost, eps, iterations, row_first=False, measure=measure)
    return (va + vb) * 0.5, (max(ma, mb) if measure else None)


def sinkhorn_divergence(x, y, cfg: SinkhornConfig | None = None) -> SinkhornValue:
    """Debiased entropic divergence S(x, y) = W(x, y) - (W(x, x) + W(y, y)) / 2.

    Accepts (n, features) clouds or (n, T, d) path batches (flattened).  The
    debiasing terms make the divergence vanish at x == y and stay
    non-negative in practice; the value is an autodiff scalar.  The
    marginal violation is that of the W(x, y) plan at the last iteration.
    """
    cfg = cfg or SinkhornConfig()
    xy, violation = _ot_dual_value(x, y, cfg.epsilon, cfg.iterations, measure=True)
    xx, _ = _ot_dual_value(x, x, cfg.epsilon, cfg.iterations)
    yy, _ = _ot_dual_value(y, y, cfg.epsilon, cfg.iterations)
    value = xy - (xx + yy) * 0.5
    return SinkhornValue(value=value, converged=violation <= MARGINAL_TOL,
                         marginal_violation=violation)


# ---------------------------------------------------------------------------
# adapted critic features and causality penalty


class CausalCritic:
    """Two adapted feature maps over paths, built from recurrent cells.

    `h` feeds the transport cost, `m` plays the martingale test process in
    the causality penalty.  Both are causal by construction: the feature at
    time t only sees the path up to t.
    """

    def __init__(self, params: ParamSet, dim: int, feature_dim: int = 8, hidden: int = 32):
        self.feature_dim = feature_dim
        self.h_cell = RecurrentCell(params, "critic.h", dim, hidden)
        self.h_head = Mlp(params, "critic.h_out", hidden, 0, feature_dim, layers=0)
        self.m_cell = RecurrentCell(params, "critic.m", dim, hidden)
        self.m_head = Mlp(params, "critic.m_out", hidden, 0, feature_dim, layers=0)

    def features(self, paths: Tensor) -> tuple[Tensor, Tensor]:
        """(h, m) feature sequences, each (n, T, feature_dim)."""
        n, seq_len, _ = paths.shape
        h_states = unroll_states(self.h_cell, paths)
        m_states = unroll_states(self.m_cell, paths)
        h = concat([self.h_head(s).reshape((n, 1, self.feature_dim)) for s in h_states], axis=1)
        m = concat([self.m_head(s).reshape((n, 1, self.feature_dim)) for s in m_states], axis=1)
        return h, m


def martingale_defect(h: Tensor, m: Tensor) -> Tensor:
    """Mean-squared empirical correlation between h_t and future m increments.

    Zero in expectation when m is a martingale under the sampled law; the
    difference of defects (fake minus real) is the causality penalty.
    """
    dm = m[:, 1:, :] - m[:, :-1, :]
    per_feature = (h[:, :-1, :] * dm).sum(axis=1).mean(axis=0)
    return (per_feature * per_feature).mean()


def causal_transport_losses(real, fake, critic: CausalCritic | None,
                            cfg: SinkhornConfig | None = None):
    """(generator loss, critic loss, SinkhornValue) for adversarial training.

    Without a critic this reduces to the debiased divergence on raw paths.
    With one, the transport cost runs on adapted h features and the
    generator additionally pays `causal_weight` times the martingale-defect
    difference.  The critic loss is the exact negation; both come from one
    shared graph, so run a single backward and negate the critic gradients.
    """
    cfg = cfg or SinkhornConfig()
    real_t = real if isinstance(real, Tensor) else Tensor(np.asarray(real, dtype=np.float64))
    fake_t = fake if isinstance(fake, Tensor) else Tensor(np.asarray(fake, dtype=np.float64))
    if critic is None:
        sv = sinkhorn_divergence(real_t, fake_t, cfg)
        gen_loss = sv.value
    else:
        h_real, m_real = critic.features(real_t)
        h_fake, m_fake = critic.features(fake_t)
        sv = sinkhorn_divergence(h_real, h_fake, cfg)
        penalty = martingale_defect(h_fake, m_fake) - martingale_defect(h_real, m_real)
        gen_loss = sv.value + cfg.causal_weight * penalty
    return gen_loss, -gen_loss, sv


# ---------------------------------------------------------------------------
# conditional signature metric


def _augmented_increment_block(values, seq_len: int):
    """Time-augmented segment increments of (..., seq_len, d) paths.

    The time channel advances by 1/(seq_len - 1) per segment, matching
    `time_augment` followed by diff.  Works on tensors and arrays.
    """
    if seq_len < 2:
        raise DataError("need at least two points per path")
    incs = values[..., 1:, :] - values[..., :-1, :]
    shape = tuple(incs.shape)
    t_inc = np.full(shape[:-1] + (1,), 1.0 / (seq_len - 1))
    if isinstance(incs, Tensor):
        return concat([Tensor(t_inc), incs], axis=len(shape) - 1)
    return np.concatenate([t_inc, incs], axis=-1)


def _signature_block(values, depth: int):
    """Flattened time-augmented signatures of (..., T, d) paths -> (..., L)."""
    seq_len = values.shape[-2]
    incs = _augmented_increment_block(values, seq_len)
    levels = signature_levels(incs, depth)
    if isinstance(values, Tensor):
        return concat(levels, axis=values.ndim - 2)
    return np.concatenate(levels, axis=-1)


@dataclass
class ConditionalSigMetric:
    """Regression-based conditional signature distance.

    Fit once on real (past, future) pairs: future signatures are regressed
    on past signatures with an intercept and ridge penalty.  The loss of a
    batch of fake futures (conditioned on the same pasts) is the mean
    squared distance between the regression prediction and the empirical
    mean fake signature.
    """

    depth: int = 4
    ridge: float = 1e-6
    weights: np.ndarray | None = None
    past_dim: int | None = None
    future_shape: tuple | None = None

    def fit(self, pasts: np.ndarray, futures: np.ndarray) -> "ConditionalSigMetric":
        pasts = np.asarray(pasts, dtype=np.float64)
        futures = np.asarray(futures, dtype=np.float64)
        if pasts.ndim != 3 or futures.ndim != 3 or pasts.shape[0] != futures.shape[0]:
            raise DataError("fit expects matching (n, p, d) pasts and (n, q, d) futures")
        if self.ridge <= 0:
            raise ValueError("ridge must be positive")
        phi = _signature_block(pasts, self.depth)
        targets = _signature_block(self._attach_last(pasts, futures), self.depth)
        design = np.concatenate([phi, np.ones((phi.shape[0], 1))], axis=1)
        penalty = self.ridge * np.eye(design.shape[1])
        penalty[-1, -1] = 0.0  # intercept unpenalised
        gram = design.T @ design + penalty
        self.weights = np.linalg.solve(gram, design.T @ targets)
        self.past_dim = pasts.shape[2]
        self.future_shape = futures.shape[1:]
        return self

    @staticmethod
    def _attach_last(pasts: np.ndarray, futures) -> np.ndarray:
        """Future path seen from the last past point: (n, q + 1, d)."""
        last = pasts[:, -1:, :]
        if isinstance(futures, Tensor):
            return concat([Tensor(last), futures], axis=1)
        return np.concatenate([last, futures], axis=1)

    def predict(self, pasts: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("metric is not fitted")
        phi = _signature_block(np.asarray(pasts, dtype=np.float64), self.depth)
        design = np.concatenate([phi, np.ones((phi.shape[0], 1))], axis=1)
        return design @ self.weights

    def loss(self, pasts: np.ndarray, fake_futures) -> Tensor:
        """Mean squared gap between predicted and fake conditional signatures.

        `fake_futures` is (n, q, d) or (n, mc, q, d); with a Monte Carlo axis
        the fake signatures are averaged over it before comparison, which is
        the conditional-expectation estimate.
        """
        pasts = np.asarray(pasts, dtype=np.float64)
        return self.loss_given_prediction(self.predict(pasts), pasts[:, -1:, :],
                                          fake_futures)

    def loss_given_prediction(self, predicted: np.ndarray, last: np.ndarray,
                              fake_futures) -> Tensor:
        """Same as `loss` but with the regression output precomputed.

        Training loops that revisit the same pasts many times cache
        `predict(pasts)` once and pass rows of it here, together with the
        (n, 1, d) last past points the fake futures grow from.
        """
        predicted_t = Tensor(np.asarray(predicted, dtype=np.float64))
        last = np.asarray(last, dtype=np.float64)
        fake = fake_futures if isinstance(fake_futures, Tensor) \
            else Tensor(np.asarray(fake_futures, dtype=np.float64))
        if fake.ndim == 3:
            fake = fake.reshape((fake.shape[0], 1) + tuple(fake.shape[1:]))
        if fake.ndim != 4 or fake.shape[0] != predicted_t.shape[0]:
            raise DataError(f"fake futures shape {fake.shape} does not match "
                            f"{predicted_t.shape[0]} predictions")
        n, mc, q, d = fake.shape
        anchor = np.broadcast_to(last[:, None, :, :], (n, mc, 1, d)).copy()
        extended = concat([Tensor(anchor), fake], axis=2)
        sigs = _signature_block(extended, self.depth)
        mean_sig = sigs.mean(axis=1)
        diff = mean_sig - predicted_t
        return (diff * diff).sum(axis=1).mean()


# ---------------------------------------------------------------------------
# conditional transition moments


@dataclass
class TransitionBinning:
    """Quantile bucketing of the current level, keyed on one dimension."""

    bins: int = 5
    key_dim: int = 0

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.key_dim < 0:
            raise ValueError("key_dim must be non-negative")


@dataclass
class TransitionLossValue:
    value: Tensor
    used_buckets: int
    skipped_buckets: int


def transition_moment_loss(real, fake, binning: TransitionBinning | None = None,
                           min_bucket: int = 2) -> TransitionLossValue:
    """Conditional mean/covariance distance of one-step increments.

    At each time t, real paths are bucketed by the quantiles of the key
    dimension's current level (edges from real data only); fake paths fall
    into the same buckets.  Within each bucket the squared difference of the
    increment mean vector and increment covariance matrix is accumulated.
    Buckets with fewer than `min_bucket` members on either side are skipped
    and counted.
    """
    binning = binning or TransitionBinning()
    rv = np.asarray(real, dtype=np.float64)
    fake_t = fake if isinstance(fake, Tensor) else Tensor(np.asarray(fake, dtype=np.float64))
    if rv.ndim != 3 or fake_t.ndim != 3:
        raise DataError("transition_moment_loss expects (n, T, d) batches")
    if rv.shape[1] != fake_t.shape[1] or rv.shape[2] != fake_t.shape[2]:
        raise DataError(f"real {rv.shape} and fake {tuple(fake_t.shape)} disagree "
                        f"on sequence length or dimension")
    if binning.key_dim >= rv.shape[2]:
        raise DataError(f"key_dim {binning.key_dim} out of range for "
                        f"{rv.shape[2]} dimensions")
    seq_len = rv.shape[1]
    n_bins = binning.bins
    total = None
    used = 0
    skipped = 0
    for t in range(seq_len - 1):
        key_real = rv[:, t, binning.key_dim]
        if n_bins > 1:
            edges = np.quantile(key_real, np.arange(1, n_bins) / n_bins)
            real_bucket = np.digitize(key_real, edges)
            fake_bucket = np.digitize(fake_t.data[:, t, binning.key_dim], edges)
        else:
            real_bucket = np.zeros(rv.shape[0], dtype=int)
            fake_bucket = np.zeros(fake_t.shape[0], dtype=int)
        real_inc = rv[:, t + 1, :] - rv[:, t, :]
        for b in range(n_bins):
            r_idx = np.nonzero(real_bucket == b)[0]
            f_idx = np.nonzero(fake_bucket == b)[0]
            if r_idx.size < min_bucket or f_idx.size < min_bucket:
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
        return TransitionLossValue(value=Tensor(0.0), used_buckets=0, skipped_buckets=skipped)
    return TransitionLossValue(value=total / float(used), used_buckets=used,
                               skipped_buckets=skipped)
