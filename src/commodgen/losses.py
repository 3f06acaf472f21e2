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

Every loss returns an autodiff scalar: the gradient runs through every
unrolled Sinkhorn iteration, the ridge regression coefficients are constants
fitted on real data only, and quantile bucket edges are constants from real
data, so the gradient flows through exactly the terms the corresponding
papers train.  Three hot paths are single autodiff ops with hand-written
numpy backwards: each Sinkhorn sweep (all its iterations) and the
transition-moment loss, both bit-identical to the op chains they replace,
and the signature of a batch of paths, whose value is bit-identical to the
chain's and whose gradient rounds differently in the last bits.  The
Sinkhorn marginal violation is a diagnostic measured at the last iteration
of the cross term's sweeps, in both sweep orders; the larger is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, Tensor, _accumulate, _check_finite, concat
from .dataio import DataError
from .nets import Mlp, RecurrentCell
from .signature import (_check_budget, level_sizes, sig_length, signature_levels,
                        signature_levels_backward)

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
    t = Tensor._lift(x)
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


def _logsumexp(a: np.ndarray, axis: int):
    """Shift-stabilised log(sum(exp(a))) along `axis`, keeping the axis.

    The caller guarantees a finite `a`, so the shift (its maximum) is finite
    too.  Also returns exp(a - shift) and its sum: the softmax weights of
    the gradient are their quotient.
    """
    shift = np.max(a, axis=axis, keepdims=True)
    e = np.exp(np.subtract(a, shift))
    s = e.sum(axis=axis, keepdims=True)
    return np.add(np.log(s), shift), e, s


def _gs_sweeps(cost: Tensor, eps: float, iterations: int, row_first: bool,
               measure: bool):
    """Alternating log-domain Sinkhorn sweeps from zero potentials.

    Returns (dual objective mean(f) + mean(g), marginal violation of the
    plan at the last iteration, or None unless `measure`).  The alternating
    schedule converges monotonically in the marginal violation.

    The unrolled iterations are one autodiff op over `cost`: the forward
    runs them in numpy and keeps each half-step's softmax pieces, and the
    backward walks those in reverse.  Both make the same numpy calls as the
    sub/div/add/log-sum-exp/mul chain of ops per half-step and the mean/add
    ops of the objective, and `cost` receives one contribution per
    half-step, the last half-step first, as from that chain; so value and
    gradient are bit-identical to it.  A non-finite log-kernel exponent
    raises, as the log-sum-exp would absorb -inf into a finite potential.
    """
    n, m = cost.shape
    c = cost.data
    eps_t, neg_eps = np.asarray(eps, dtype=np.float64), np.asarray(-eps, dtype=np.float64)
    # keyed by the reduction axis: axis 1 updates the row potential f (n, 1)
    # against the column marginal, axis 0 the column potential g (1, m)
    log_marginal = {1: np.asarray(-float(np.log(m))), 0: np.asarray(-float(np.log(n)))}
    potential = {1: np.zeros((n, 1)), 0: np.zeros((1, m))}
    tape = []   # (axis, exp(a - shift), its sum) per half-step
    for _ in range(iterations):
        for axis in ((1, 0) if row_first else (0, 1)):
            a = np.add(np.divide(np.subtract(potential[1 - axis], c), eps_t),
                       log_marginal[axis])
            _check_finite(a, "sinkhorn_sweeps")
            lse, e, s = _logsumexp(a, axis)
            potential[axis] = np.multiply(lse, neg_eps)
            tape.append((axis, e, s))
    f, g = potential[1], potential[0]
    value = np.add(np.divide(f.sum(), np.asarray(float(n))),
                   np.divide(g.sum(), np.asarray(float(m))))

    def backward(grad):
        grads = {1: np.broadcast_to(grad / np.asarray(float(n)), f.shape).astype(np.float64),
                 0: np.broadcast_to(grad / np.asarray(float(m)), g.shape).astype(np.float64)}
        last = len(tape) - 1
        for k in range(last, -1, -1):
            axis, e, s = tape[k]
            g_exponent = ((grads[axis] * neg_eps) / s) * e
            g_diff = g_exponent / eps_t
            if k:   # the partner is the previous half-step's potential
                partner = g_diff.sum(axis=1 - axis, keepdims=True)
                # the last half-step's partner also feeds the objective's mean
                grads[1 - axis] = grads[1 - axis] + partner if k == last else partner
            _accumulate(cost, -g_diff)

    violation = _plan_marginal_violation(f, g, c, eps) if measure else None
    return Tensor._result(value, (cost,), backward, "sinkhorn_sweeps"), violation


def _ot_dual_value(x: Tensor, y: Tensor, eps: float, iterations: int,
                   measure: bool = False):
    """Unrolled entropic transport value; returns (dual objective, violation).

    At a finite iteration count the alternating schedule's value depends on
    which marginal sweeps first, so both orders are run over the shared
    cost matrix and averaged: two sweeps per call.  Swapping x and y maps
    the two runs onto each other, making the value exactly symmetric
    without any branch selection that could kink the loss surface.  With
    `measure` the violation is the larger of the runs' last-iteration
    marginal violations; without it, None.
    """
    x, y = _as_points(x), _as_points(y)
    if x.shape[1] != y.shape[1]:
        raise DataError(f"point clouds disagree on feature size: "
                        f"{x.shape[1]} vs {y.shape[1]}")
    cost = _pairwise_sq_cost(x, y)
    va, ma = _gs_sweeps(cost, eps, iterations, row_first=True, measure=measure)
    vb, mb = _gs_sweeps(cost, eps, iterations, row_first=False, measure=measure)
    return (va + vb) * 0.5, (max(ma, mb) if measure else None)


def sinkhorn_divergence(x, y, cfg: SinkhornConfig | None = None) -> SinkhornValue:
    """Debiased entropic divergence S(x, y) = W(x, y) - (W(x, x) + W(y, y)) / 2.

    Accepts (n, features) clouds or (n, T, d) path batches (flattened).  The
    debiasing terms make the divergence vanish at x == y and stay
    non-negative in practice; the value is an autodiff scalar.  Each of the
    three terms runs both sweep orders, so a call runs 6 sweeps.  The
    marginal violation is the larger of the W(x, y) plan's at the last
    iteration of its two sweep orders.
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

    def __init__(self, params: ParamSet, dim: int, feature_dim: int, hidden: int):
        self.h_cell = RecurrentCell(params, "critic.h", dim, hidden)
        self.h_head = Mlp(params, "critic.h_out", hidden, 0, feature_dim, layers=0)
        self.m_cell = RecurrentCell(params, "critic.m", dim, hidden)
        self.m_head = Mlp(params, "critic.m_out", hidden, 0, feature_dim, layers=0)

    def features(self, paths: Tensor) -> tuple[Tensor, Tensor]:
        """(h, m) feature sequences, each (n, T, feature_dim)."""
        return self.h_head(self.h_cell(paths)), self.m_head(self.m_cell(paths))


def martingale_defect(h: Tensor, m: Tensor) -> Tensor:
    """Mean-squared empirical correlation between h_t and future m increments.

    Zero in expectation when m is a martingale under the sampled law; the
    difference of defects (fake minus real) is the causality penalty.
    """
    dm = m[:, 1:, :] - m[:, :-1, :]
    per_feature = (h[:, :-1, :] * dm).sum(axis=1).mean(axis=0)
    return (per_feature * per_feature).mean()


def causal_transport_losses(real, fake, critic: CausalCritic,
                            cfg: SinkhornConfig | None = None):
    """(generator loss, SinkhornValue) for adversarial training.

    The transport cost runs on the critic's adapted h features and the
    generator additionally pays `causal_weight` times the martingale-defect
    difference.  The critic's loss is the exact negation, so one backward
    serves both sides: the critic ascends the gradients the generator
    descends.
    """
    cfg = cfg or SinkhornConfig()
    h_real, m_real = critic.features(Tensor._lift(real))
    h_fake, m_fake = critic.features(Tensor._lift(fake))
    sv = sinkhorn_divergence(h_real, h_fake, cfg)
    penalty = martingale_defect(h_fake, m_fake) - martingale_defect(h_real, m_real)
    gen_loss = sv.value + cfg.causal_weight * penalty
    return gen_loss, sv


# ---------------------------------------------------------------------------
# conditional signature metric


def _augmented_increment_block(values: np.ndarray) -> np.ndarray:
    """Time-augmented segment increments of (..., seq_len, d) paths.

    The time channel, prepended as channel 0, advances by 1/(seq_len - 1)
    per segment: the increments of the path with a uniform time coordinate
    running 0..1.  It keeps the signature injective on paths that revisit
    values.
    """
    seq_len = values.shape[-2]
    if seq_len < 2:
        raise DataError("need at least two points per path")
    incs = values[..., 1:, :] - values[..., :-1, :]
    t_inc = np.full(incs.shape[:-1] + (1,), 1.0 / (seq_len - 1))
    return np.concatenate([t_inc, incs], axis=-1)


def _signature_block(values, depth: int):
    """Flattened time-augmented signatures of (..., T, d) paths -> (..., L).

    Given a tensor, the block is one autodiff op, "signature": the forward
    is `signature_levels` and the backward `signature_levels_backward`,
    whose gradient w.r.t. the increments is routed back to the path values.
    Every level is part of the block, so an overflow anywhere inside
    reaches it as inf or NaN and the op's finiteness check names it.
    """
    x = values.data if isinstance(values, Tensor) else values
    incs = _augmented_increment_block(x)
    tape = [] if isinstance(values, Tensor) else None
    block = np.concatenate(signature_levels(incs, depth, tape), axis=-1)
    if tape is None:
        return block
    splits = np.cumsum(level_sizes(incs.shape[-1], depth))[:-1]

    def backward(g):
        g_inc = signature_levels_backward(incs, tape, np.split(g, splits, axis=-1))[..., 1:]
        grad = np.zeros(x.shape)
        grad[..., 1:, :] += g_inc
        grad[..., :-1, :] -= g_inc
        _accumulate(values, grad)

    return Tensor._result(block, (values,), backward, "signature")


FIT_BLOCK_ROWS = 512   # pairs per block of signatures in ConditionalSigMetric.fit
RIDGE = 1e-6           # penalty on every regression coefficient but the intercept


@dataclass
class ConditionalSigMetric:
    """Regression-based conditional signature distance.

    Fit once on real (past, future) pairs: future signatures are regressed
    on past signatures with an intercept and ridge penalty.  The loss of a
    batch of fake futures (conditioned on the same pasts) is the mean
    squared distance between the regression prediction and the empirical
    mean fake signature.  `fit` keeps the regression's predictions on the
    pasts it was fitted on as `fitted`, so training need not compute their
    signatures a second time.
    """

    depth: int = 4
    weights: np.ndarray | None = None
    fitted: np.ndarray | None = None

    def fit(self, pasts: np.ndarray, futures: np.ndarray) -> "ConditionalSigMetric":
        pasts = np.asarray(pasts, dtype=np.float64)
        futures = np.asarray(futures, dtype=np.float64)
        if pasts.ndim != 3 or futures.ndim != 3 or pasts.shape[0] != futures.shape[0]:
            raise DataError("fit expects matching (n, p, d) pasts and (n, q, d) futures")
        _check_budget(max(pasts.shape[2], futures.shape[2]) + 1, self.depth)
        n = pasts.shape[0]
        design = np.empty((n, sig_length(pasts.shape[2] + 1, self.depth) + 1))
        design[:, -1] = 1.0   # intercept
        targets = np.empty((n, sig_length(futures.shape[2] + 1, self.depth)))
        for lo in range(0, n, FIT_BLOCK_ROWS):
            rows = slice(lo, lo + FIT_BLOCK_ROWS)
            design[rows, :-1] = _signature_block(pasts[rows], self.depth)
            future = np.concatenate([pasts[rows, -1:, :], futures[rows]], axis=1)
            targets[rows] = _signature_block(future, self.depth)
        penalty = RIDGE * np.eye(design.shape[1])
        penalty[-1, -1] = 0.0  # intercept unpenalised
        gram = design.T @ design + penalty
        rhs = design.T @ targets
        del targets   # before `fitted`, which is as large
        self.weights = np.linalg.solve(gram, rhs)
        self.fitted = design @ self.weights
        return self

    def loss_given_prediction(self, predicted: np.ndarray, last: np.ndarray,
                              fake_futures) -> Tensor:
        """Mean squared gap between predicted and fake conditional signatures.

        `predicted` holds rows of `fitted`, the regression's output on the
        pasts, and `last` the (n, 1, d) last past points the fake futures
        grow from.  `fake_futures` is (n, mc, q, d), mc Monte Carlo futures
        per past: their signatures are averaged over that axis before
        comparison, which is the conditional-expectation estimate.
        """
        predicted_t = Tensor(np.asarray(predicted, dtype=np.float64))
        last = np.asarray(last, dtype=np.float64)
        fake = Tensor._lift(fake_futures)
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


MIN_BUCKET = 2  # paths per bucket on each side; a covariance needs two


def _step_buckets(levels: np.ndarray, edges: np.ndarray, bins: int) -> np.ndarray:
    """Bucket id `t * bins + b` (n, T-1) of each path's level at each step t:
    b places the level among the step's edges, one `np.digitize` per step."""
    ids = np.empty(levels.shape, dtype=np.intp)
    for t in range(levels.shape[1]):
        ids[:, t] = np.digitize(levels[:, t], edges[:, t])
    return ids + np.arange(levels.shape[1]) * bins


def _bucket_sums(rows: np.ndarray, label: np.ndarray, bounds: list) -> np.ndarray:
    """Column sums (B, d) of each bucket's block of rows, rounded as
    `block.sum(axis=0)` rounds them.  numpy adds the rows of a block of two
    or more columns one at a time, as `np.bincount` does in row order; a
    single column it sums pairwise, so that case sums each block itself."""
    dim = rows.shape[1]
    if dim == 1:
        return np.array([rows[a:b].sum(axis=0) for a, b in zip(bounds, bounds[1:])])
    flat = (label[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=(len(bounds) - 1) * dim
                       ).reshape(-1, dim)


class _Buckets:
    """One side's increments in the used buckets: the mean (B, d) and
    unbiased covariance (B, d, d) of each bucket, and the centred rows of all
    buckets stacked bucket by bucket, each block in path order."""

    def __init__(self, paths: np.ndarray, group: np.ndarray, used: np.ndarray,
                 sizes: np.ndarray):
        dim = paths.shape[2]
        rows = np.flatnonzero(used[group])
        self.rows = rows[np.argsort(group[rows], kind="stable")]   # (path, step) flat index
        self.sizes = sizes
        self.label = np.repeat(np.arange(sizes.size), sizes)
        self.bounds = [0] + np.cumsum(sizes).tolist()
        inc = np.subtract(paths[:, 1:], paths[:, :-1]).reshape(-1, dim)[self.rows]
        self.mean = _bucket_sums(inc, self.label, self.bounds) / sizes[:, None]
        self.centered = inc - self.mean[self.label]
        cov = np.empty((sizes.size, dim, dim))
        for j, (a, b) in enumerate(zip(self.bounds, self.bounds[1:])):
            block = self.centered[a:b]
            cov[j] = block.T @ block
        self.cov = cov / (sizes - 1)[:, None, None]


@dataclass
class TransitionLossValue:
    value: Tensor
    used_buckets: int
    skipped_buckets: int


def transition_moment_loss(real, fake, bins: int = 5) -> TransitionLossValue:
    """Conditional mean/covariance distance of one-step increments.

    At each time t, real paths are bucketed by the `bins` quantiles of the
    first dimension's current level (edges from real data only); fake paths
    fall into the same buckets.  Within each bucket the squared difference of
    the increment mean vector and increment covariance matrix is accumulated.
    Buckets with fewer than `MIN_BUCKET` members on either side are skipped
    and counted; with none used the value is a constant 0.

    The value is one autodiff op over `fake`, and it works on the whole
    batch at once: one quantile call gives every step's edges, every
    (path, step) row gets a bucket id, and the means, gaps, per-bucket terms
    and their gradients are computed for all used buckets together.  Only
    `np.digitize` (once per step) and the covariance products (one
    `block.T @ block` per bucket side, and two products per bucket in the
    backward) stay per piece.  Value and gradient are bit-identical to a
    chain of slice, mean, covariance and square ops, one bucket at a time
    (the tests keep that chain as the reference): the column sums round as
    numpy's `sum(axis=0)` over the bucket does (path order from 0.0, or the
    bucket's own sum for a single column), each covariance is the same BLAS
    product of the same rows, and the total is the left fold of the terms
    in (t, bucket) order.  Each fake entry receives at most two nonzero
    contributions, from the steps before and after it, added in that order.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    rv = np.asarray(real, dtype=np.float64)
    fake_t = Tensor._lift(fake)
    if rv.ndim != 3 or fake_t.ndim != 3:
        raise DataError("transition_moment_loss expects (n, T, d) batches")
    if rv.shape[1] != fake_t.shape[1] or rv.shape[2] != fake_t.shape[2]:
        raise DataError(f"real {rv.shape} and fake {tuple(fake_t.shape)} disagree "
                        f"on sequence length or dimension")
    fv = fake_t.data
    edges = np.quantile(rv[:, :-1, 0], np.arange(1, bins) / bins, axis=0)   # (bins-1, T-1)
    group = _step_buckets(np.concatenate([rv[:, :-1, 0], fv[:, :-1, 0]]), edges, bins)
    real_group, fake_group = group[:rv.shape[0]].ravel(), group[rv.shape[0]:].ravel()
    n_groups = (rv.shape[1] - 1) * bins
    real_sizes = np.bincount(real_group, minlength=n_groups)
    fake_sizes = np.bincount(fake_group, minlength=n_groups)
    used = (real_sizes >= MIN_BUCKET) & (fake_sizes >= MIN_BUCKET)
    n_used = int(used.sum())
    if not n_used:
        return TransitionLossValue(value=Tensor(0.0), used_buckets=0, skipped_buckets=n_groups)
    r = _Buckets(rv, real_group, used, real_sizes[used])
    f = _Buckets(fv, fake_group, used, fake_sizes[used])
    d_mean = f.mean - r.mean
    d_cov = f.cov - r.cov
    terms = (d_mean * d_mean).sum(axis=1) + (d_cov * d_cov).sum(axis=(1, 2))

    def backward(g):
        g_term = g / float(n_used)
        g_mean = 2.0 * (g_term * d_mean)
        g_cov = 2.0 * (g_term * d_cov) / (f.sizes - 1)[:, None, None]
        # the centred block is both matmul operands, one through a transpose
        g_centered = np.empty_like(f.centered)
        for j, (a, b) in enumerate(zip(f.bounds, f.bounds[1:])):
            block = f.centered[a:b]
            g_centered[a:b] = block @ g_cov[j] + (g_cov[j] @ block.T).T
        g_shift = (g_mean - _bucket_sums(g_centered, f.label, f.bounds)) / f.sizes[:, None]
        g_inc = np.zeros((fv.shape[0], fv.shape[1] - 1, fv.shape[2]))   # per (path, step)
        g_inc.reshape(-1, fv.shape[2])[f.rows] = g_centered + g_shift[f.label]
        grad = np.zeros(fv.shape)
        grad[:, 1:] += g_inc
        grad[:, :-1] -= g_inc
        _accumulate(fake_t, grad)

    value = Tensor._result(np.cumsum(terms)[-1] / float(n_used), (fake_t,), backward,
                           "transition_moment_loss")
    return TransitionLossValue(value=value, used_buckets=n_used,
                               skipped_buckets=n_groups - n_used)
