"""Training and sampling for the five path generators.

All five kinds share one interface: `train_generator(kind, data, cfg)` on a
normalized PathBatch returns a GeneratorModel plus its LossCurve, and
`model.sample(n, seed)` emits denormalized paths.  The kinds are:

* GBM    - calibrated driftless geometric Brownian motion, no gradients;
* CEGEN  - neural drift/diffusion Euler scheme trained on conditional
           transition moments; the whole scheme is one `euler_scan` op;
* TSGAN  - embedder/recovery/generator/supervisor/discriminator quintet
           trained with reconstruction, supervised next-step and
           adversarial losses in a learned latent space;
* COTGAN - recurrent noise-to-path generator trained against a causal
           transport divergence with an adversarial feature critic;
* SIGGAN - feed-forward autoregressive network mapping (p past steps,
           noise) to q future steps, trained on the conditional signature
           metric and rolled out autoregressively.

Each model's nets are built once, by its trainer or by the checkpoint
decoder, and `sample()` runs the training rollout on them.  Training is
deterministic per (data, cfg, seed): every random draw comes from a named
counter-based stream, so reruns produce identical parameters.
"""

from __future__ import annotations

import math
import os
import reprlib
import sys
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import (Optimizer, ParamSet, Tensor, _check_finite, _recording, _sigmoid,
                       _softplus, concat, no_grad)
from .dataio import Normalizer, PathBatch
from .losses import (MIN_BUCKET, CausalCritic, ConditionalSigMetric, SinkhornConfig,
                     causal_transport_losses, transition_moment_loss)
from .nets import Mlp, RecurrentCell
from .rng import rng_for
from .stochastic import GbmParams, calibrate_gbm, simulate_gbm
from . import store
from .store import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, DataError

KINDS = ("GBM", "CEGEN", "TSGAN", "COTGAN", "SIGGAN")

DIVERGENCE_LIMIT = 1e6

# COTGAN samples this many paths at a time: its head reads every state of a
# block at once, and over 10 000 paths its hidden layer alone takes ~150 MB
COTGAN_SAMPLE_PATHS = 1000

LOSS_CURVE_HEADER = "iteration,gen_loss,disc_loss"


class ConfigError(ValueError):
    """Unknown key, bad value, or inconsistent command usage."""


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
        for name, value in vars(self).items():
            check_field(name, value, TRAIN_TYPES[name], TRAIN_BOUNDS.get(name))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)

    def content_hash(self) -> str:
        return store.content_hash(self.to_dict())


TRAIN_TYPES = typing.get_type_hints(TrainConfig)
TRAIN_BOUNDS = {
    **dict.fromkeys(("iterations", "layers", "pretrain_iterations", "seed",
                     "causal_weight"), ">= 0"),
    **dict.fromkeys(("batch_size", "hidden", "noise_dim", "sinkhorn_iterations",
                     "critic_features", "sig_depth", "future_len",
                     "sig_mc_samples", "bins", "latent_dim"), ">= 1"),
    "past_len": ">= 2",   # a past of one point has no signature
    **dict.fromkeys(("lr", "critic_lr", "clip_norm", "sinkhorn_epsilon"), "> 0"),
}

# each bound as messages state it -> its test
BOUNDS = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
          "> 0": lambda v: v > 0, "in (0, 1]": lambda v: 0 < v <= 1,
          "other than ''": lambda v: v != ""}

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list of strings"}


def _fits(value, kind) -> bool:
    if isinstance(value, bool) != (kind is bool):      # true/false is only ever a bool
        return False
    if kind is float:       # also false for NaN, +-inf and ints beyond float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and all(isinstance(x, str) for x in value)
    return isinstance(value, kind)


def check_field(name: str, value, kind, bound: str | None = None) -> None:
    """Raise a one-line ConfigError naming `name` unless `value` is a `kind`
    within `bound` (a key of BOUNDS).  `kind` is a type of `_TYPE_NAMES`, a
    union of them that may include None, or a tuple of allowed values."""
    if isinstance(kind, tuple):
        ok, what = value in kind, f"one of {', '.join(kind)}"
    else:
        kinds = typing.get_args(kind) or (kind,)
        types = [k for k in kinds if k is not type(None)]
        ok = (value is None and len(types) < len(kinds)) or (
            any(_fits(value, k) for k in types) and (not bound or BOUNDS[bound](value)))
        what = (" or ".join(_TYPE_NAMES[k] for k in types) + (f" {bound}" if bound else "")
                + (" or null" if len(types) < len(kinds) else ""))
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {reprlib.repr(value)}")


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
    params: ParamSet | None     # None for GBM, as are the nets
    nets: dict | None           # the kind's nets over `params`, by role
    normalizer: Normalizer | None = None
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

    def sample(self, n: int, seed: int) -> PathBatch:
        """Draw n paths of shape (n, seq_len, dim), denormalized.

        Deterministic per (model, n, seed).
        """
        if n < 1:
            raise DataError(f"n must be >= 1, got {n}")
        batch = PathBatch(values=self._sample_normalized(n, seed), labels=self.labels,
                          dt=self.dt)
        return batch if self.normalizer is None else self.normalizer.invert(batch)

    def _sample_normalized(self, n: int, seed: int) -> np.ndarray:
        """Run the kind's training rollout on the model's nets under no_grad,
        on fresh draws."""
        if self.kind == "GBM":
            return simulate_gbm(self.gbm, n, self.seq_len, self.start_levels,
                                seed=seed, labels=self.labels).values
        cfg, d, seq_len, nets = self.cfg, self.dim, self.seq_len, self.nets
        noise = rng_for(seed, self.kind.lower(), "sample")
        with no_grad():
            if self.kind == "CEGEN":
                scale = self.cegen_scale
                return _cegen_rollout(nets, np.tile(self.start_levels / scale, (n, 1)),
                                      noise.standard_normal((n, seq_len - 1, d)),
                                      self.dt).data * scale
            if self.kind == "SIGGAN":
                p, q = cfg.past_len, cfg.future_len
                past = self.sig_pool[rng_for(seed, "siggan", "starts").integers(
                    0, self.sig_pool.shape[0], size=n)]
                chunks = -(-(seq_len - p) // q)
                rolled = _siggan_rollout(nets, past, noise.standard_normal(
                    (chunks, n, _noise_dim(cfg, d))))
                return np.concatenate([past, rolled.data], axis=1)[:, :seq_len]
            z = noise.standard_normal((n, seq_len, _noise_dim(cfg, d)))
            if self.kind == "COTGAN":
                block = COTGAN_SAMPLE_PATHS
                return np.concatenate([_cotgan_rollout(nets, z[i : i + block]).data
                                       for i in range(0, n, block)])
            return nets["rec"](_tsgan_rollout(nets, z)).data


# ---------------------------------------------------------------------------
# network builders and rollouts.  A builder registers a kind's nets in a
# fresh ParamSet (`_build_nets`); a rollout maps noise to an (n, T, d) path
# tensor, run with gradients in training and under no_grad by `sample()`.


def _noise_dim(cfg: TrainConfig, dim: int) -> int:
    return cfg.noise_dim if cfg.noise_dim is not None else dim


def _cegen_nets(params: ParamSet, dim: int, cfg: TrainConfig) -> dict:
    return {"drift": Mlp(params, "drift", 1 + dim, cfg.hidden, dim, cfg.layers),
            "diff": Mlp(params, "diff", 1 + dim, cfg.hidden, dim * dim, cfg.layers)}


def _cegen_rollout(nets: dict, x0: np.ndarray, z: np.ndarray, dt: float) -> Tensor:
    """Euler scheme from x0 (n, d) over shocks z (n, T-1, d); paths (n, T, d),
    one `euler_scan` op over the drift and diffusion nets' parameters.

    Each step is X + b dt + (L z) sqrt(dt), where the drift b and the
    diffusion block read (t / (T-1), X).  L is lower-triangular: the
    diffusion net emits a d*d block; strictly-lower entries pass through,
    the diagonal goes through softplus so L has positive diagonal and L L^T
    is a valid covariance factor.

    The forward makes the numpy calls of the concat/mlp/reshape/mul/softplus/
    matmul/add chain it fuses and writes each state into one array.  The
    backward walks the steps in reverse, giving each parameter one
    accumulation per step and summing a state's gradient as the chain does
    (its output gradient plus the next step's, then the nets' input
    gradient), so values and gradients are bit-identical to the chain.  A
    non-finite pre-activation or state raises `NumericOverflowError`.
    """
    drift, diff = nets["drift"], nets["diff"]
    n, steps, dim = z.shape
    strict = np.tril(np.ones((dim, dim)), k=-1)
    eye = np.eye(dim)
    root = math.sqrt(dt)
    parents = drift.params + diff.params
    record, saved = _recording(parents), []
    x = np.asarray(x0, dtype=np.float64)
    data = np.empty((n, steps + 1, dim))
    data[:, 0, :] = x
    for t in range(steps):
        inp = np.concatenate([np.full((n, 1), t / float(steps)), x], axis=1)
        tapes = ([], []) if record else (None, None)
        b = drift.forward(inp, tapes[0], "euler_scan")
        raw = diff.forward(inp, tapes[1], "euler_scan").reshape((n, dim, dim))
        zt = z[:, t, :].reshape((n, dim, 1))
        shock = np.matmul(raw * strict + _softplus(raw) * eye, zt).reshape((n, dim))
        x = x + b * dt + shock * root
        _check_finite(x, "euler_scan")
        data[:, t + 1, :] = x
        if record:
            saved.append((tapes, raw, zt))

    def backward(g):
        gx = g[:, steps, :]            # the last state's gradient
        for t in reversed(range(steps)):
            (tape_b, tape_raw), raw, zt = saved[t]
            g_factor = np.matmul((gx * root).reshape((n, dim, 1)), np.swapaxes(zt, -1, -2))
            g_raw = g_factor * strict + g_factor * eye * _sigmoid(raw)
            gin_b = drift.backward(tape_b, gx * dt, t > 0)
            gin_raw = diff.backward(tape_raw, g_raw.reshape((n, dim * dim)), t > 0)
            if t:
                gx = (g[:, t, :] + gx) + (gin_b + gin_raw)[:, 1:]

    return Tensor._result(data, parents, backward, "euler_scan")


def _cotgan_nets(params: ParamSet, dim: int, cfg: TrainConfig) -> dict:
    return {"cell": RecurrentCell(params, "gen", _noise_dim(cfg, dim), cfg.hidden),
            "head": Mlp(params, "gen.out", cfg.hidden, cfg.hidden, dim, layers=1),
            "critic": CausalCritic(params, dim, cfg.critic_features, cfg.hidden)}


def _cotgan_rollout(nets: dict, z: np.ndarray) -> Tensor:
    """Noise (n, T, noise_dim) -> paths (n, T, d)."""
    return nets["head"](nets["cell"](Tensor(z)))


def _tsgan_nets(params: ParamSet, dim: int, cfg: TrainConfig) -> dict:
    return {
        "emb": RecurrentCell(params, "emb", dim, cfg.latent_dim),
        "rec": Mlp(params, "rec", cfg.latent_dim, cfg.hidden, dim, layers=1),    # latent -> path
        "gen": RecurrentCell(params, "gen", _noise_dim(cfg, dim), cfg.latent_dim),
        "sup": RecurrentCell(params, "sup", cfg.latent_dim, cfg.latent_dim),
        "disc": RecurrentCell(params, "disc", cfg.latent_dim, cfg.hidden),
        "disc_out": Mlp(params, "disc.out", cfg.hidden, 0, 1, layers=0),
    }


def _tsgan_rollout(nets: dict, z: np.ndarray) -> Tensor:
    """Noise (n, T, noise_dim) -> supervised latent sequence (n, T, latent)."""
    return nets["sup"](nets["gen"](Tensor(z)))


def _tsgan_supervised_loss(nets: dict, h: Tensor) -> Tensor:
    """Mean squared gap between the supervisor's next-step prediction from
    the latent sequence h (b, T, latent) and h one step on."""
    gap = nets["sup"](h)[:, :-1, :] - h[:, 1:, :]
    return (gap * gap).mean()


def _siggan_nets(params: ParamSet, dim: int, cfg: TrainConfig) -> dict:
    return {"gen": Mlp(params, "gen", cfg.past_len * dim + _noise_dim(cfg, dim),
                       cfg.hidden, cfg.future_len * dim, cfg.layers)}


def _siggan_rollout(nets: dict, past: np.ndarray, z: np.ndarray) -> Tensor:
    """Autoregressive rollout from past windows (n, p, d), one q-step chunk
    per noise draw in z (chunks, n, noise_dim); the rolled levels
    (n, chunks * q, d) that follow the past.

    The net maps (flattened past, noise) to q increments, summed onto the
    last level.  Each chunk conditions on the values of the last p levels;
    training rolls a single chunk, so gradients reach every increment.
    """
    n, p, d = past.shape
    level = Tensor(past[:, -1:, :])
    steps = []
    for zc in z:
        incs = nets["gen"](concat([Tensor(past.reshape(n, p * d)), Tensor(zc)], axis=1))
        q = incs.shape[1] // d
        incs = incs.reshape((n, q, d))
        for j in range(q):
            level = level + incs[:, j : j + 1, :]
            steps.append(level)
        past = np.concatenate([past] + [s.data for s in steps[-q:]], axis=1)[:, -p:, :]
    return concat(steps, axis=1)


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


# each kind's builder of the nets it registers, COTGAN's critic included
_KIND_NETS = {
    "GBM": lambda params, dim, cfg: None,
    "CEGEN": _cegen_nets,
    "TSGAN": _tsgan_nets,
    "COTGAN": _cotgan_nets,
    "SIGGAN": _siggan_nets,
}


def _build_nets(kind: str, dim: int, cfg: TrainConfig):
    """A fresh `ParamSet(cfg.seed)` and the kind's nets registered in it
    (GBM registers none: its nets are None)."""
    params = ParamSet(cfg.seed)
    return params, _KIND_NETS[kind](params, dim, cfg)


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
    model = GeneratorModel(**_model_base("GBM", data, cfg), params=None, nets=None,
                           gbm=params, trained_iterations=trained)
    return model, LossCurve()


def _memory_budget() -> float:
    """Bytes this process may hold: the smaller of physical memory and the
    soft address-space limit, each where the platform reports it."""
    budget = math.inf
    if hasattr(os, "sysconf"):
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        import resource
    except ImportError:     # no resource limits on this platform
        return budget
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return budget if soft == resource.RLIM_INFINITY else min(budget, soft)


def _check_fits(cfg: TrainConfig, keys: tuple, need: int, what: str) -> None:
    """Refuse a training run when `need` bytes, a floor on its `what` sized
    by the config's `keys`, exceed `_memory_budget()`; a run of 0
    iterations allocates none of it and is never refused."""
    budget = _memory_budget()
    if cfg.iterations > 0 and need > budget:
        named = " and ".join(f"generator.train.{k} = {getattr(cfg, k)}" for k in keys)
        raise MemoryError(f"cannot allocate: {named} need{'s' if len(keys) == 1 else ''} at "
                          f"least {need} bytes for {what}, more than the {budget} bytes this "
                          f"process may hold")


def _train_cegen(data: PathBatch, cfg: TrainConfig):
    n, seq_len, d = data.values.shape
    # a floor on the transition loss's bucket arrays, all live at once: the
    # (bins - 1, T - 1) float edges and two (T - 1) * bins int64 counts
    _check_fits(cfg, ("bins",), 8 * (seq_len - 1) * (3 * cfg.bins - 1),
                "the transition loss's buckets")
    params, nets = _build_nets("CEGEN", data.dim, cfg)
    opt = Optimizer(params, cfg.lr, cfg.clip_norm)
    batch_rng = rng_for(cfg.seed, "cegen", "batch")
    noise_rng = rng_for(cfg.seed, "cegen", "noise")
    curve = LossCurve()
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
        fake = _cegen_rollout(nets, mb[:, 0, :], z, data.dt)
        out = transition_moment_loss(mb, fake, cfg.bins)
        if not out.used_buckets:
            raise TrainingError(f"training aborted: no bucket of the transition loss has "
                                f"{MIN_BUCKET} real and {MIN_BUCKET} fake paths at iteration "
                                f"{it}; use a larger batch_size or fewer bins")
        loss = out.value
        opt.step(backprop(loss, params, it, "transition loss"))
        curve.append(it, loss.item())
    model = GeneratorModel(**_model_base("CEGEN", data, cfg), params=params, nets=nets,
                           cegen_scale=scale, trained_iterations=cfg.iterations)
    return model, curve


def _train_cotgan(data: PathBatch, cfg: TrainConfig):
    n, seq_len, d = data.values.shape
    # a floor on the Sinkhorn tape: per Sinkhorn iteration, 6 sweeps of 2
    # half-steps each keep one (b, b) float64 exp block
    b = min(cfg.batch_size, n)
    _check_fits(cfg, ("batch_size", "sinkhorn_iterations"), 96 * cfg.sinkhorn_iterations * b * b,
                "the Sinkhorn tape")
    params, nets = _build_nets("COTGAN", data.dim, cfg)
    opt_gen = Optimizer(params, cfg.lr, cfg.clip_norm, ("gen.",))
    opt_critic = Optimizer(params, cfg.critic_lr if cfg.critic_lr is not None else cfg.lr,
                           cfg.clip_norm, ("critic.",))
    sink = SinkhornConfig(epsilon=cfg.sinkhorn_epsilon,
                          iterations=cfg.sinkhorn_iterations,
                          causal_weight=cfg.causal_weight)
    batch_rng = rng_for(cfg.seed, "cotgan", "batch")
    noise_rng = rng_for(cfg.seed, "cotgan", "noise")
    curve = LossCurve()
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, n, size=b)
        mb = data.values[idx]
        z = noise_rng.standard_normal((idx.size, seq_len, _noise_dim(cfg, d)))
        fake = _cotgan_rollout(nets, z)
        gen_loss, _ = causal_transport_losses(mb, fake, nets["critic"], sink)
        # one backward serves both sides: the critic ascends the same loss,
        # so its loss is the exact negation
        grads = backprop(gen_loss, params, it, "transport loss")
        opt_gen.step(grads)
        opt_critic.step(grads, ascend=True)
        curve.append(it, gen_loss.item(), -gen_loss.item())
    model = GeneratorModel(**_model_base("COTGAN", data, cfg), params=params, nets=nets,
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
    params, nets = _build_nets("TSGAN", data.dim, cfg)
    opt_emb = Optimizer(params, cfg.lr, cfg.clip_norm, ("emb.", "rec."))
    opt_gen = Optimizer(params, cfg.lr, cfg.clip_norm, ("gen.", "sup."))
    opt_disc = Optimizer(params, cfg.critic_lr if cfg.critic_lr is not None else cfg.lr,
                         cfg.clip_norm, ("disc.",))
    batch_rng = rng_for(cfg.seed, "tsgan", "batch")
    noise_rng = rng_for(cfg.seed, "tsgan", "noise")
    n, seq_len, d = data.values.shape
    curve = LossCurve()

    def score(h: Tensor) -> Tensor:
        return nets["disc_out"](nets["disc"](h))

    def minibatch() -> np.ndarray:
        idx = batch_rng.integers(0, n, size=min(cfg.batch_size, n))
        return data.values[idx]

    # iterations=0 is the no-training contract: skip pretraining too
    pretrain = cfg.pretrain_iterations if cfg.iterations > 0 else 0

    # phase 1: autoencoding
    for it in range(pretrain):
        mb = minibatch()
        recon = nets["rec"](nets["emb"](Tensor(mb))) - Tensor(mb)
        loss = (recon * recon).mean() * 10.0
        opt_emb.step(backprop(loss, params, it, "reconstruction loss"))

    # phase 2: supervised next-step in latent space (frozen embedder)
    for it in range(pretrain):
        mb = minibatch()
        with no_grad():
            h = nets["emb"](Tensor(mb))
        loss = _tsgan_supervised_loss(nets, h)
        # the generator's gradients are zero here, so only the supervisor moves
        opt_gen.step(backprop(loss, params, it, "supervised loss"))

    # phase 3: joint adversarial training
    for it in range(cfg.iterations):
        mb = minibatch()
        z = noise_rng.standard_normal((min(cfg.batch_size, n), seq_len, _noise_dim(cfg, d)))

        # one embedding serves (a) as a constant and (b) with its graph:
        # (a) updates only the generator and supervisor
        h = nets["emb"](Tensor(mb))

        # (a) generator + supervisor
        sup_fake = _tsgan_rollout(nets, z)
        fake = nets["rec"](sup_fake)
        adv = score(sup_fake)
        adv_loss = (-adv).softplus().mean()
        sup_loss = _tsgan_supervised_loss(nets, Tensor(h.data))
        moment_loss = _tsgan_moment_gap(fake, mb)
        gen_loss = adv_loss + sup_loss + moment_loss
        opt_gen.step(backprop(gen_loss, params, it, "generator loss"))

        # (b) embedder + recovery
        recon = nets["rec"](h) - Tensor(mb)
        recon_loss = (recon * recon).mean() * 10.0
        emb_loss = recon_loss + _tsgan_supervised_loss(nets, h) * 0.1
        opt_emb.step(backprop(emb_loss, params, it, "embedding loss"))

        # (c) discriminator on frozen features
        with no_grad():
            h_real_const = nets["emb"](Tensor(mb))
            sup_fake_const = _tsgan_rollout(nets, z)
        d_real = score(h_real_const)
        d_fake = score(sup_fake_const)
        disc_loss = (-d_real).softplus().mean() + d_fake.softplus().mean()
        opt_disc.step(backprop(disc_loss, params, it, "discriminator loss"))

        curve.append(it, gen_loss.item() + recon_loss.item(), disc_loss.item())

    model = GeneratorModel(**_model_base("TSGAN", data, cfg), params=params, nets=nets,
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
    p, q = cfg.past_len, cfg.future_len
    pasts, futures = _siggan_pairs(data, p, q)
    params, nets = _build_nets("SIGGAN", data.dim, cfg)
    metric = ConditionalSigMetric(depth=cfg.sig_depth).fit(pasts, futures)
    predicted = metric.fitted
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
            future = _siggan_rollout(nets, mb_past, z)
            mc.append(future.reshape((idx.size, 1, q, d)))
        fake = concat(mc, axis=1)
        loss = metric.loss_given_prediction(predicted[idx], mb_past[:, -1:, :], fake)
        opt.step(backprop(loss, params, it, "signature loss"))
        curve.append(it, loss.item())
    model = GeneratorModel(**_model_base("SIGGAN", data, cfg), params=params, nets=nets,
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


def load_checkpoint(path) -> GeneratorModel:
    return store.read_container(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                "generator checkpoint", _decode_model)


def _fill_params(params: ParamSet, state: dict, kind: str, dim: int) -> None:
    """Load a checkpoint's parameter blocks `state` into `params`, in which
    the nets of a `kind` of the stored cfg and `dim` have just registered.

    Refuses with a DataError a name they register that `state` lacks, a
    name they do not register and a block of another shape; nothing is
    loaded unless every name and shape matches.
    """
    arrays = {name: store.block_array(block) for name, block in state.items()}
    for name in sorted(set(params.names()) | set(arrays)):
        if name not in arrays:
            raise DataError(f"{kind} checkpoint lacks parameter '{name}'")
        if name not in params:
            raise DataError(f"parameter '{name}' is not registered by a {kind} "
                            f"of this cfg")
        if arrays[name].shape != params[name].data.shape:
            raise DataError(f"parameter '{name}' has shape {arrays[name].shape}, "
                            f"but a {kind} of this cfg and dim {dim} registers "
                            f"{params[name].data.shape}")
    params.load_state(arrays)


def _check_fit(model: GeneratorModel) -> None:
    """Refuse a loaded model whose own block disagrees with its kind, `cfg`
    and `dim` (its parameters are checked by `_fill_params`)."""
    kind, cfg, dim = model.kind, model.cfg, model.dim
    gbm, pool, scale = model.gbm, model.sig_pool, model.cegen_scale
    own = {"GBM": ("gbm", f"of {dim} dimensions", gbm is not None and gbm.dim == dim),
           "CEGEN": ("cegen_scale", f"of shape ({dim},)",
                     scale is not None and scale.shape == (dim,)),
           "SIGGAN": ("sig_pool", f"of shape (n >= 1, {cfg.past_len}, {dim})",
                      pool is not None and pool.ndim == 3 and len(pool) > 0
                      and pool.shape[1:] == (cfg.past_len, dim))}
    if kind in own and not own[kind][2]:
        key, what, _ = own[kind]
        raise DataError(f"{kind} checkpoint needs a '{key}' block {what}")


def _decode_model(raw: dict) -> GeneratorModel:
    kind = raw["kind"]
    if kind not in KINDS:
        raise DataError(f"checkpoint kind '{kind}' is not a generator kind "
                        f"({', '.join(KINDS)})")
    cfg = TrainConfig.from_dict(raw["cfg"])
    dim = int(raw["dim"])
    params, nets = _build_nets(kind, dim, cfg)
    _fill_params(params, raw["params"] or {}, kind, dim)

    def block(key):
        return None if raw[key] is None else store.block_array(raw[key])

    model = GeneratorModel(
        kind=kind, cfg=cfg, seq_len=int(raw["seq_len"]), dim=dim,
        labels=list(raw["labels"]), dt=float(raw["dt"]),
        start_levels=store.block_array(raw["start_levels"]),
        params=None if nets is None else params, nets=nets,
        normalizer=None if raw["normalizer"] is None else Normalizer.from_dict(raw["normalizer"]),
        gbm=None if raw["gbm"] is None else GbmParams.from_dict(raw["gbm"]),
        sig_pool=block("sig_pool"), cegen_scale=block("cegen_scale"),
        trained_iterations=raw["trained_iterations"],
    )
    _check_fit(model)
    # checked last, so an edit of `cfg` that changes the nets' shapes is
    # named by the parameter it breaks
    if raw["cfg_hash"] != cfg.content_hash():
        raise DataError("cfg does not match the stored cfg_hash "
                        "(edited after the checkpoint was written)")
    return model
