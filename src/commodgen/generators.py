"""Training and sampling for the five path generators.

All five kinds share one interface: `train_generator(kind, data, cfg)` on a
normalized PathBatch returns a GeneratorModel plus its LossCurve, and
`model.sample(n, seed, s0)` emits denormalized paths.  The kinds are:

* GBM    - calibrated driftless geometric Brownian motion, no gradients;
* CEGEN  - neural drift/diffusion Euler scheme trained on conditional
           transition moments;
* TSGAN  - embedder/recovery/generator/supervisor/discriminator quintet
           trained with reconstruction, supervised next-step and
           adversarial losses in a learned latent space;
* COTGAN - recurrent noise-to-path generator trained against a causal
           transport divergence with an adversarial feature critic;
* SIGGAN - feed-forward autoregressive network mapping (p past steps,
           noise) to q future steps, trained on the conditional signature
           metric and rolled out autoregressively.

Training is deterministic per (data, cfg, seed): every random draw comes
from a named counter-based stream, so reruns produce identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import Optimizer, ParamSet, Tensor, concat, no_grad
from .dataio import Normalizer, PathBatch
from .losses import (CausalCritic, ConditionalSigMetric, SinkhornConfig,
                     TransitionBinning, causal_transport_losses,
                     transition_moment_loss)
from .nets import Mlp, RecurrentCell, states_to_sequence, unroll_states
from .rng import rng_for
from .stochastic import GbmParams, calibrate_gbm, simulate_gbm
from . import store
from .store import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, DataError

KINDS = ("GBM", "CEGEN", "TSGAN", "COTGAN", "SIGGAN")

DIVERGENCE_LIMIT = 1e6

LOSS_CURVE_HEADER = "iteration,gen_loss,disc_loss"


class TrainingError(RuntimeError):
    """Training aborted: non-finite or diverging loss."""


@dataclass
class TrainConfig:
    """Hyperparameters shared across kinds; unused fields are ignored.

    Defaults target minutes-scale CPU training.  The config is fully
    serializable and hash-stable; `content_hash()` keys checkpoint and
    manifest provenance.
    """

    iterations: int = 2000
    batch_size: int = 128
    lr: float = 1e-3
    critic_lr: float | None = None      # COTGAN critic / TSGAN discriminator; lr if None
    hidden: int = 32
    layers: int = 2
    noise_dim: int | None = None        # defaults to data dimension
    clip_norm: float = 10.0
    seed: int = 0
    # COTGAN
    sinkhorn_epsilon: float = 0.1
    sinkhorn_iterations: int = 30       # per training step; diagnostics use 100
    causal_weight: float = 1.0
    critic_features: int = 8
    # SIGGAN
    sig_depth: int = 4
    past_len: int = 3
    future_len: int = 3
    sig_mc_samples: int = 2
    # CEGEN
    bins: int = 5
    # TSGAN
    latent_dim: int = 8
    pretrain_iterations: int = 500

    def __post_init__(self):
        for name in ("iterations",):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch_size", "hidden", "sinkhorn_iterations", "critic_features",
                     "sig_depth", "past_len", "future_len", "sig_mc_samples", "bins",
                     "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("layers", "pretrain_iterations", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("lr", "clip_norm", "sinkhorn_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.causal_weight < 0:
            raise ValueError("causal_weight must be >= 0")
        if self.critic_lr is not None and self.critic_lr <= 0:
            raise ValueError("critic_lr must be positive")
        if self.noise_dim is not None and self.noise_dim < 1:
            raise ValueError("noise_dim must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)

    def content_hash(self) -> str:
        return store.content_hash(self.to_dict())


@dataclass
class LossCurve:
    """Per-iteration generator (and optional discriminator) loss values."""

    iterations: list = field(default_factory=list)
    gen_loss: list = field(default_factory=list)
    disc_loss: list = field(default_factory=list)

    def append(self, iteration: int, gen: float, disc: float | None = None) -> None:
        self.iterations.append(int(iteration))
        self.gen_loss.append(float(gen))
        self.disc_loss.append(None if disc is None else float(disc))

    def __len__(self) -> int:
        return len(self.iterations)

    def write_csv(self, path) -> None:
        store.write_csv(path, LOSS_CURVE_HEADER.split(","),
                        [[str(it), repr(g), "" if d is None else repr(d)]
                         for it, g, d in zip(self.iterations, self.gen_loss, self.disc_loss)])

    def quartile_means(self) -> tuple[float, float]:
        """(mean of first quartile, mean of last quartile) of generator loss."""
        n = len(self.gen_loss)
        if n < 4:
            raise DataError("need at least 4 recorded losses for quartile means")
        q = n // 4
        return float(np.mean(self.gen_loss[:q])), float(np.mean(self.gen_loss[-q:]))


def check_loss(value: float, iteration: int, term: str) -> None:
    if not math.isfinite(value):
        raise TrainingError(f"training aborted: non-finite loss at iteration "
                            f"{iteration} ({term})")
    if abs(value) > DIVERGENCE_LIMIT:
        raise TrainingError(f"training aborted: loss diverged "
                            f"(|{term}| = {value:.3e} at iteration {iteration})")


def backprop(loss: Tensor, params: ParamSet, iteration: int, term: str) -> dict:
    """Check a scalar loss, backpropagate it and collect every gradient of
    `params` (see `ParamSet.take_grads`)."""
    check_loss(loss.item(), iteration, term)
    loss.backward()
    return params.take_grads()


# ---------------------------------------------------------------------------
# model container


@dataclass
class GeneratorModel:
    """A trained (or freshly initialized) generator of one kind."""

    kind: str
    cfg: TrainConfig
    seq_len: int
    dim: int
    labels: list[str]
    dt: float
    start_levels: np.ndarray
    normalizer: Normalizer | None = None
    params: ParamSet | None = None
    gbm: GbmParams | None = None
    sig_pool: np.ndarray | None = None
    cegen_scale: np.ndarray | None = None
    trained_iterations: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown generator kind '{self.kind}', expected one of {KINDS}")
        self.start_levels = np.asarray(self.start_levels, dtype=np.float64)
        if self.start_levels.shape != (self.dim,):
            raise DataError("start_levels must match the model dimension")

    # -- sampling -------------------------------------------------------------

    def sample(self, n: int, seed: int, s0=None) -> PathBatch:
        """Draw n paths of shape (n, seq_len, dim), denormalized.

        Deterministic per (model, n, seed).  With `s0`, every path is
        rescaled so its first time slice equals s0 exactly.
        """
        if n < 1:
            raise DataError(f"n must be >= 1, got {n}")
        values = self._sample_normalized(n, seed)
        if self.normalizer is not None:
            values = self.normalizer.invert(
                PathBatch(values=values, labels=self.labels, dt=self.dt)).values
        if s0 is not None:
            s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
            if s0.shape != (self.dim,):
                raise DataError(f"s0 dimension mismatch: got shape {s0.shape}, "
                                f"model has {self.dim} dimensions")
            starts = values[:, :1, :]
            # guard untrained generators whose paths may start at ~0
            safe = np.where(np.abs(starts) < 1e-12, 1e-12, starts)
            values = values * (s0 / safe)
            values[:, 0, :] = s0
        return PathBatch(values=values, labels=self.labels, dt=self.dt)

    def _sample_normalized(self, n: int, seed: int) -> np.ndarray:
        """Run the kind's training rollout under no_grad on fresh draws."""
        if self.kind == "GBM":
            return simulate_gbm(self.gbm, n, self.seq_len, self.start_levels,
                                seed=seed, labels=self.labels).values
        cfg, d, seq_len = self.cfg, self.dim, self.seq_len
        noise = rng_for(seed, self.kind.lower(), "sample")
        with no_grad():
            if self.kind == "CEGEN":
                scale = np.ones(d) if self.cegen_scale is None else self.cegen_scale
                steps = _cegen_rollout(*_cegen_nets(self.params, d, cfg),
                                       np.tile(self.start_levels / scale, (n, 1)),
                                       noise.standard_normal((n, seq_len - 1, d)), self.dt)
                return np.stack([x.data for x in steps], axis=1) * scale
            if self.kind == "SIGGAN":
                if self.sig_pool is None or not len(self.sig_pool):
                    raise DataError("signature generator has no stored starting segments")
                p, q = cfg.past_len, cfg.future_len
                past = self.sig_pool[rng_for(seed, "siggan", "starts").integers(
                    0, self.sig_pool.shape[0], size=n)]
                chunks = -(-(seq_len - p) // q)
                steps = _siggan_rollout(_siggan_net(self.params, d, cfg), past,
                                        noise.standard_normal((chunks, n, _noise_dim(cfg, d))))
                return np.concatenate([past] + [x.data for x in steps], axis=1)[:, :seq_len]
            z = noise.standard_normal((n, seq_len, _noise_dim(cfg, d)))
            if self.kind == "COTGAN":
                steps = _cotgan_rollout(*_cotgan_nets(self.params, d, cfg), z)
                return np.stack([x.data for x in steps], axis=1)
            nets = _tsgan_nets(self.params, d, cfg)
            return _tsgan_recover(nets, _tsgan_rollout(nets, z)).data.reshape(n, seq_len, d)


# ---------------------------------------------------------------------------
# network builders and rollouts (shared by training and sampling; ParamSet
# reuses names).  A rollout maps noise to paths; training runs it with
# gradients, `GeneratorModel.sample` under no_grad.


def _noise_dim(cfg: TrainConfig, dim: int) -> int:
    return cfg.noise_dim if cfg.noise_dim is not None else dim


def _cegen_nets(params: ParamSet, dim: int, cfg: TrainConfig):
    drift = Mlp(params, "drift", 1 + dim, cfg.hidden, dim, cfg.layers)
    diff = Mlp(params, "diff", 1 + dim, cfg.hidden, dim * dim, cfg.layers)
    return drift, diff


def _cegen_rollout(drift: Mlp, diff: Mlp, x0: np.ndarray, z: np.ndarray,
                   dt: float) -> list[Tensor]:
    """Euler scheme from x0 (n, d) over shocks z (n, T-1, d); T slices of (n, d).

    Each step is X + b dt + (L z) sqrt(dt) with lower-triangular L: the
    diffusion net emits a d*d block; strictly-lower entries pass through,
    the diagonal goes through softplus so L has positive diagonal and L L^T
    is a valid covariance factor.
    """
    n, steps, dim = z.shape
    strict = Tensor(np.tril(np.ones((dim, dim)), k=-1))
    eye = Tensor(np.eye(dim))
    x = Tensor(x0)
    slices = [x]
    for t in range(steps):
        inp = concat([Tensor(np.full((n, 1), t / float(steps))), x], axis=1)
        b = drift(inp)
        raw = diff(inp).reshape((n, dim, dim))
        factor = raw * strict + raw.softplus() * eye
        shock = (factor @ Tensor(z[:, t, :]).reshape((n, dim, 1))).reshape((n, dim))
        x = x + b * dt + shock * math.sqrt(dt)
        slices.append(x)
    return slices


def _cotgan_nets(params: ParamSet, dim: int, cfg: TrainConfig):
    cell = RecurrentCell(params, "gen", _noise_dim(cfg, dim), cfg.hidden)
    head = Mlp(params, "gen.out", cfg.hidden, cfg.hidden, dim, layers=1)
    return cell, head


def _cotgan_rollout(cell: RecurrentCell, head: Mlp, z: np.ndarray) -> list[Tensor]:
    """Noise (n, T, noise_dim) -> T path slices of (n, d)."""
    return [head(s) for s in unroll_states(cell, Tensor(z))]


def _tsgan_nets(params: ParamSet, dim: int, cfg: TrainConfig) -> dict:
    return {
        "emb": RecurrentCell(params, "emb", dim, cfg.latent_dim),
        "rec": Mlp(params, "rec", cfg.latent_dim, cfg.hidden, dim, layers=1),
        "gen": RecurrentCell(params, "gen", _noise_dim(cfg, dim), cfg.latent_dim),
        "sup": RecurrentCell(params, "sup", cfg.latent_dim, cfg.latent_dim),
        "disc": RecurrentCell(params, "disc", cfg.latent_dim, cfg.hidden),
        "disc_out": Mlp(params, "disc.out", cfg.hidden, 0, 1, layers=0),
    }


def _tsgan_rollout(nets: dict, z: np.ndarray) -> Tensor:
    """Noise (n, T, noise_dim) -> supervised latent sequence (n, T, latent)."""
    latents = states_to_sequence(unroll_states(nets["gen"], Tensor(z)))
    return states_to_sequence(unroll_states(nets["sup"], latents))


def _tsgan_recover(nets: dict, h: Tensor) -> Tensor:
    """Latent sequence (b, T, latent) -> paths flattened to (b * T, d)."""
    b, seq_len, latent = h.shape
    return nets["rec"](h.reshape((b * seq_len, latent)))


def _siggan_net(params: ParamSet, dim: int, cfg: TrainConfig) -> Mlp:
    return Mlp(params, "gen", cfg.past_len * dim + _noise_dim(cfg, dim), cfg.hidden,
               cfg.future_len * dim, cfg.layers)


def _siggan_rollout(net: Mlp, past: np.ndarray, z: np.ndarray) -> list[Tensor]:
    """Autoregressive rollout from past windows (n, p, d), one q-step chunk
    per noise draw in z (chunks, n, noise_dim); every rolled level, (n, 1, d).

    The net maps (flattened past, noise) to q increments, summed onto the
    last level.  Each chunk conditions on the values of the last p levels;
    training rolls a single chunk, so gradients reach every increment.
    """
    n, p, d = past.shape
    level = Tensor(past[:, -1:, :])
    steps = []
    for zc in z:
        incs = net(concat([Tensor(past.reshape(n, p * d)), Tensor(zc)], axis=1))
        q = incs.shape[1] // d
        incs = incs.reshape((n, q, d))
        for j in range(q):
            level = level + incs[:, j : j + 1, :]
            steps.append(level)
        past = np.concatenate([past] + [s.data for s in steps[-q:]], axis=1)[:, -p:, :]
    return steps


# ---------------------------------------------------------------------------
# training


def train_generator(kind: str, data: PathBatch, cfg: TrainConfig | None = None,
                    normalizer: Normalizer | None = None):
    """Train a generator of `kind` on an already-normalized batch.

    Returns (GeneratorModel, LossCurve).  The optional normalizer is stored
    on the model so `sample()` can denormalize; it is not applied to `data`.
    """
    cfg = cfg or TrainConfig()
    if kind not in KINDS:
        raise DataError(f"unknown generator kind '{kind}', expected one of {KINDS}")
    trainer = {"GBM": _train_gbm, "CEGEN": _train_cegen, "TSGAN": _train_tsgan,
               "COTGAN": _train_cotgan, "SIGGAN": _train_siggan}[kind]
    model, curve = trainer(data, cfg)
    model.normalizer = normalizer
    return model, curve


def _model_base(kind: str, data: PathBatch, cfg: TrainConfig) -> dict:
    return dict(kind=kind, cfg=cfg, seq_len=data.seq_len, dim=data.dim,
                labels=list(data.labels), dt=data.dt,
                start_levels=data.values[:, 0, :].mean(axis=0))


def _train_gbm(data: PathBatch, cfg: TrainConfig):
    # iterations=0 keeps the uninformed default; any positive count calibrates
    if cfg.iterations > 0:
        params = calibrate_gbm(data)
        trained = 1
    else:
        params = GbmParams(sigma=np.full(data.dim, 0.2), corr=np.eye(data.dim),
                           dt=data.dt)
        trained = 0
    model = GeneratorModel(**_model_base("GBM", data, cfg), gbm=params,
                           trained_iterations=trained)
    return model, LossCurve()


def _train_cegen(data: PathBatch, cfg: TrainConfig):
    params = ParamSet(cfg.seed)
    drift, diff = _cegen_nets(params, data.dim, cfg)
    opt = Optimizer(params, cfg.lr, cfg.clip_norm)
    batch_rng = rng_for(cfg.seed, "cegen", "batch")
    noise_rng = rng_for(cfg.seed, "cegen", "noise")
    binning = TransitionBinning(bins=cfg.bins)
    curve = LossCurve()
    n, seq_len, d = data.values.shape
    # standardize per-step increments: the squared-moment loss is scale
    # sensitive, and tiny increments make the finite-bucket noise of the
    # mean term overwhelm the covariance term (variance collapse)
    scale = np.diff(data.values, axis=1).reshape(-1, d).std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    values = data.values / scale
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, n, size=min(cfg.batch_size, n))
        mb = values[idx]
        z = noise_rng.standard_normal((idx.size, seq_len - 1, d))
        slices = _cegen_rollout(drift, diff, mb[:, 0, :], z, data.dt)
        fake = concat([s.reshape((idx.size, 1, d)) for s in slices], axis=1)
        loss = transition_moment_loss(mb, fake, binning).value
        opt.step(backprop(loss, params, it, "transition loss"))
        curve.append(it, loss.item())
    model = GeneratorModel(**_model_base("CEGEN", data, cfg), params=params,
                           cegen_scale=scale, trained_iterations=cfg.iterations)
    return model, curve


def _train_cotgan(data: PathBatch, cfg: TrainConfig):
    params = ParamSet(cfg.seed)
    cell, head = _cotgan_nets(params, data.dim, cfg)
    critic = CausalCritic(params, data.dim, cfg.critic_features, cfg.hidden)
    opt_gen = Optimizer(params, cfg.lr, cfg.clip_norm, ("gen.",))
    opt_critic = Optimizer(params, cfg.critic_lr if cfg.critic_lr is not None else cfg.lr,
                           cfg.clip_norm, ("critic.",))
    sink = SinkhornConfig(epsilon=cfg.sinkhorn_epsilon,
                          iterations=cfg.sinkhorn_iterations,
                          causal_weight=cfg.causal_weight)
    batch_rng = rng_for(cfg.seed, "cotgan", "batch")
    noise_rng = rng_for(cfg.seed, "cotgan", "noise")
    curve = LossCurve()
    n, seq_len, d = data.values.shape
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, n, size=min(cfg.batch_size, n))
        mb = data.values[idx]
        z = noise_rng.standard_normal((idx.size, seq_len, _noise_dim(cfg, d)))
        fake = concat([x.reshape((idx.size, 1, d)) for x in _cotgan_rollout(cell, head, z)],
                      axis=1)
        gen_loss, critic_loss, _ = causal_transport_losses(mb, fake, critic, sink)
        # one backward serves both sides: the critic ascends the same loss
        grads = backprop(gen_loss, params, it, "transport loss")
        opt_gen.step(grads)
        opt_critic.step(grads, ascend=True)
        curve.append(it, gen_loss.item(), critic_loss.item())
    model = GeneratorModel(**_model_base("COTGAN", data, cfg), params=params,
                           trained_iterations=cfg.iterations)
    return model, curve


def _tsgan_moment_gap(fake: Tensor, mb: np.ndarray) -> Tensor:
    """Squared gap of per-(t, dim) mean and variance between fake and real."""
    real_mean = mb.mean(axis=0)
    real_var = mb.var(axis=0)
    f_mean = fake.mean(axis=0)
    f_var = (fake * fake).mean(axis=0) - f_mean * f_mean
    dm = f_mean - Tensor(real_mean)
    dv = f_var - Tensor(real_var)
    return (dm * dm).mean() + (dv * dv).mean()


def _train_tsgan(data: PathBatch, cfg: TrainConfig):
    params = ParamSet(cfg.seed)
    nets = _tsgan_nets(params, data.dim, cfg)
    opt_emb = Optimizer(params, cfg.lr, cfg.clip_norm, ("emb.", "rec."))
    opt_sup = Optimizer(params, cfg.lr, cfg.clip_norm, ("sup.",))
    opt_gen = Optimizer(params, cfg.lr, cfg.clip_norm, ("gen.", "sup."))
    # the joint phase continues the supervisor's pretraining moments and step
    opt_gen.state = opt_sup.state
    opt_disc = Optimizer(params, cfg.critic_lr if cfg.critic_lr is not None else cfg.lr,
                         cfg.clip_norm, ("disc.",))
    batch_rng = rng_for(cfg.seed, "tsgan", "batch")
    noise_rng = rng_for(cfg.seed, "tsgan", "noise")
    n, seq_len, d = data.values.shape
    curve = LossCurve()

    def embed(mb: np.ndarray) -> Tensor:
        return states_to_sequence(unroll_states(nets["emb"], Tensor(mb)))

    def recover(h: Tensor) -> Tensor:
        return _tsgan_recover(nets, h).reshape((h.shape[0], seq_len, d))

    def score(h: Tensor) -> Tensor:
        b = h.shape[0]
        states = states_to_sequence(unroll_states(nets["disc"], h))
        return nets["disc_out"](states.reshape((b * seq_len, cfg.hidden)))

    def minibatch() -> np.ndarray:
        idx = batch_rng.integers(0, n, size=min(cfg.batch_size, n))
        return data.values[idx]

    # iterations=0 is the no-training contract: skip pretraining too
    pretrain = cfg.pretrain_iterations if cfg.iterations > 0 else 0

    # phase 1: autoencoding
    for it in range(pretrain):
        mb = minibatch()
        recon = recover(embed(mb)) - Tensor(mb)
        loss = (recon * recon).mean() * 10.0
        opt_emb.step(backprop(loss, params, it, "reconstruction loss"))

    # phase 2: supervised next-step in latent space (frozen embedder)
    for it in range(pretrain):
        mb = minibatch()
        with no_grad():
            h = embed(mb)
        pred = states_to_sequence(unroll_states(nets["sup"], Tensor(h.data)))
        gap = pred[:, :-1, :] - Tensor(h.data[:, 1:, :])
        loss = (gap * gap).mean()
        opt_sup.step(backprop(loss, params, it, "supervised loss"))

    # phase 3: joint adversarial training
    for it in range(cfg.iterations):
        mb = minibatch()
        z = noise_rng.standard_normal((min(cfg.batch_size, n), seq_len, _noise_dim(cfg, d)))

        # (a) generator + supervisor
        sup_fake = _tsgan_rollout(nets, z)
        fake = recover(sup_fake)
        adv = score(sup_fake)
        adv_loss = (-adv).softplus().mean()
        with no_grad():
            h_real = embed(mb)
        sup_pred = states_to_sequence(unroll_states(nets["sup"], Tensor(h_real.data)))
        sup_gap = sup_pred[:, :-1, :] - Tensor(h_real.data[:, 1:, :])
        sup_loss = (sup_gap * sup_gap).mean()
        moment_loss = _tsgan_moment_gap(fake, mb)
        gen_loss = adv_loss + sup_loss + moment_loss
        opt_gen.step(backprop(gen_loss, params, it, "generator loss"))

        # (b) embedder + recovery
        h = embed(mb)
        recon = recover(h) - Tensor(mb)
        recon_loss = (recon * recon).mean() * 10.0
        sup_pred_e = states_to_sequence(unroll_states(nets["sup"], h))
        gap_e = sup_pred_e[:, :-1, :] - h[:, 1:, :]
        emb_loss = recon_loss + (gap_e * gap_e).mean() * 0.1
        opt_emb.step(backprop(emb_loss, params, it, "embedding loss"))

        # (c) discriminator on frozen features
        with no_grad():
            h_real_const = embed(mb)
            sup_fake_const = _tsgan_rollout(nets, z)
        d_real = score(Tensor(h_real_const.data))
        d_fake = score(Tensor(sup_fake_const.data))
        disc_loss = (-d_real).softplus().mean() + d_fake.softplus().mean()
        opt_disc.step(backprop(disc_loss, params, it, "discriminator loss"))

        curve.append(it, gen_loss.item() + recon_loss.item(), disc_loss.item())

    model = GeneratorModel(**_model_base("TSGAN", data, cfg), params=params,
                           trained_iterations=cfg.iterations)
    return model, curve


def _siggan_pairs(data: PathBatch, p: int, q: int):
    """All (past, future) windows of every path: (N, p, d) and (N, q, d)."""
    n, seq_len, d = data.values.shape
    if seq_len < p + q:
        raise DataError(f"sequences of length {seq_len} cannot provide "
                        f"past {p} + future {q} pairs")
    pasts, futures = [], []
    for off in range(seq_len - p - q + 1):
        pasts.append(data.values[:, off : off + p, :])
        futures.append(data.values[:, off + p : off + p + q, :])
    return np.concatenate(pasts, axis=0), np.concatenate(futures, axis=0)


def _train_siggan(data: PathBatch, cfg: TrainConfig):
    params = ParamSet(cfg.seed)
    net = _siggan_net(params, data.dim, cfg)
    p, q = cfg.past_len, cfg.future_len
    pasts, futures = _siggan_pairs(data, p, q)
    metric = ConditionalSigMetric(depth=cfg.sig_depth).fit(pasts, futures)
    predicted = metric.predict(pasts)
    opt = Optimizer(params, cfg.lr, cfg.clip_norm)
    batch_rng = rng_for(cfg.seed, "siggan", "batch")
    noise_rng = rng_for(cfg.seed, "siggan", "noise")
    curve = LossCurve()
    d = data.dim
    n_pairs = pasts.shape[0]
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, n_pairs, size=min(cfg.batch_size, n_pairs))
        mb_past = pasts[idx]
        mc = []
        for _ in range(cfg.sig_mc_samples):
            z = noise_rng.standard_normal((1, idx.size, _noise_dim(cfg, d)))
            future = concat(_siggan_rollout(net, mb_past, z), axis=1)
            mc.append(future.reshape((idx.size, 1, q, d)))
        fake = concat(mc, axis=1)
        loss = metric.loss_given_prediction(predicted[idx], mb_past[:, -1:, :], fake)
        opt.step(backprop(loss, params, it, "signature loss"))
        curve.append(it, loss.item())
    model = GeneratorModel(**_model_base("SIGGAN", data, cfg), params=params,
                           sig_pool=data.values[:, :p, :].copy(),
                           trained_iterations=cfg.iterations)
    return model, curve


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: GeneratorModel, path) -> None:
    """Write a self-describing JSON checkpoint (canonical bytes)."""
    store.write_container(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "kind": model.kind,
        "cfg": model.cfg.to_dict(),
        "cfg_hash": model.cfg.content_hash(),
        "seq_len": int(model.seq_len),
        "dim": int(model.dim),
        "labels": list(model.labels),
        "dt": float(model.dt),
        "start_levels": store.array_block(model.start_levels),
        "normalizer": None if model.normalizer is None else model.normalizer.to_dict(),
        "params": None if model.params is None else
            {name: store.array_block(t.data) for name, t in model.params.items()},
        "gbm": None if model.gbm is None else model.gbm.to_dict(),
        "sig_pool": None if model.sig_pool is None else store.array_block(model.sig_pool),
        "cegen_scale": None if model.cegen_scale is None
            else store.array_block(model.cegen_scale),
        "trained_iterations": model.trained_iterations,
    })


def load_checkpoint(path, expect_kind: str | None = None) -> GeneratorModel:
    return store.read_container(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                "generator checkpoint",
                                lambda raw: _decode_model(raw, path, expect_kind))


def _decode_model(raw: dict, path, expect_kind: str | None) -> GeneratorModel:
    kind = raw["kind"]
    if kind not in KINDS:
        raise DataError(f"{path}: checkpoint kind '{kind}' is not a generator kind "
                        f"({', '.join(KINDS)})")
    if expect_kind is not None and kind != expect_kind:
        raise DataError(f"{path}: checkpoint kind '{kind}' does not match "
                        f"expected '{expect_kind}'")
    cfg = TrainConfig.from_dict(raw["cfg"])
    params = None
    if raw["params"] is not None:
        params = ParamSet(cfg.seed)
        params.load_state({k: store.block_array(v) for k, v in raw["params"].items()})

    def block(key):
        return None if raw[key] is None else store.block_array(raw[key])

    return GeneratorModel(
        kind=kind, cfg=cfg, seq_len=int(raw["seq_len"]), dim=int(raw["dim"]),
        labels=list(raw["labels"]), dt=float(raw["dt"]),
        start_levels=store.block_array(raw["start_levels"]),
        normalizer=None if raw["normalizer"] is None else Normalizer.from_dict(raw["normalizer"]),
        params=params,
        gbm=None if raw["gbm"] is None else GbmParams.from_dict(raw["gbm"]),
        sig_pool=block("sig_pool"), cegen_scale=block("cegen_scale"),
        trained_iterations=raw["trained_iterations"],
    )
