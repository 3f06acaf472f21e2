"""Quadratic deep hedging on generated paths.

A single feed-forward control network maps (normalized time, current
tradable prices) to one position per tradable asset; together with a learned
scalar premium it is trained to minimize E[(X_T - g(S_T))^2] where

    X_T = premium + sum_j sum_i position^i_{t_j} (S^i_{t_{j+1}} - S^i_{t_j})

is the terminal value of the self-financing portfolio at zero interest.
Payoffs cover vanilla calls, proxy hedging (payoff dimension not tradable)
and spread calls.  A closed-form Black-Scholes delta strategy serves as the
classical baseline for the vanilla case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Optimizer, ParamSet, Tensor, no_grad
from .dataio import DataError, PathBatch
from .generators import LossCurve, TrainConfig, backprop
from .nets import Mlp
from .rng import rng_for
from .stochastic import bs_delta, bs_price
from . import store

HEDGER_KIND = "hedger"

HEDGE_EXPORT_HEADER = "path_id,S_T,payoff,portfolio_T"


@dataclass
class Payoff:
    """Terminal payoff g(S_T) >= 0.

    kind "call": (S^i_T - K)+ on dims = (i,).
    kind "spread_call": (S^long_T - S^short_T - K)+ on dims = (long, short).
    """

    kind: str
    strike: float
    dims: tuple = (0,)

    def __post_init__(self):
        self.dims = tuple(int(i) for i in self.dims)
        if not np.isfinite(self.strike):
            raise DataError("strike must be finite")
        if self.kind == "call":
            if len(self.dims) != 1:
                raise DataError("call payoff takes exactly one dimension index")
        elif self.kind == "spread_call":
            if len(self.dims) != 2 or self.dims[0] == self.dims[1]:
                raise DataError("spread payoff takes two distinct dimension indices")
        else:
            raise DataError(f"unknown payoff kind '{self.kind}'")
        if any(i < 0 for i in self.dims):
            raise DataError("payoff dimension indices must be non-negative")

    def reference_level(self, terminal: np.ndarray) -> np.ndarray:
        """The scalar underlier the option is written on, per path."""
        if self.kind == "call":
            return terminal[:, self.dims[0]]
        return terminal[:, self.dims[0]] - terminal[:, self.dims[1]]

    def value(self, terminal: np.ndarray) -> np.ndarray:
        terminal = np.asarray(terminal, dtype=np.float64)
        if terminal.ndim != 2 or max(self.dims) >= terminal.shape[1]:
            raise DataError(f"terminal values of shape {terminal.shape} do not "
                            f"cover payoff dims {self.dims}")
        return np.maximum(self.reference_level(terminal) - self.strike, 0.0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "strike": self.strike, "dims": list(self.dims)}

    @classmethod
    def from_dict(cls, d: dict) -> "Payoff":
        return cls(kind=d["kind"], strike=float(d["strike"]), dims=tuple(d["dims"]))


@dataclass
class HedgingSpec:
    """What to hedge, with what, over which horizon."""

    payoff: Payoff
    tradable: tuple = (0,)
    maturity: float = 30.0 / 252.0
    s0: np.ndarray | None = None    # start levels handed to the sampler

    def __post_init__(self):
        self.tradable = tuple(int(i) for i in self.tradable)
        if not self.tradable:
            raise DataError("tradable set must be non-empty")
        if len(set(self.tradable)) != len(self.tradable):
            raise DataError("tradable dimensions must be distinct")
        if any(i < 0 for i in self.tradable):
            raise DataError("tradable dimension indices must be non-negative")
        if self.maturity <= 0:
            raise DataError("maturity must be positive")
        if self.s0 is not None:
            self.s0 = np.atleast_1d(np.asarray(self.s0, dtype=np.float64))

    def check_batch(self, batch: PathBatch) -> None:
        needed = max((*self.tradable, *self.payoff.dims))
        if needed >= batch.dim:
            raise DataError(f"batch has {batch.dim} dimensions but the hedging setup "
                            f"references index {needed}")
        if batch.seq_len < 2:
            raise DataError("hedging needs at least two price points per path")

    def to_dict(self) -> dict:
        return {"payoff": self.payoff.to_dict(), "tradable": list(self.tradable),
                "maturity": self.maturity,
                "s0": None if self.s0 is None else self.s0.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "HedgingSpec":
        return cls(payoff=Payoff.from_dict(d["payoff"]), tradable=tuple(d["tradable"]),
                   maturity=float(d["maturity"]),
                   s0=None if d["s0"] is None else np.asarray(d["s0"]))


class HedgerPolicy:
    """Control network + learned premium.

    The network sees (t_j / T, tradable prices / their start levels) and
    emits one position per tradable asset, so positions at t_j are adapted
    by construction.  The premium is a single trainable scalar.  Parameters
    live under `hedge.`.
    """

    def __init__(self, params: ParamSet, n_tradable: int, s0_tradable,
                 hidden: int = 32, layers: int = 2):
        self.params = params
        self.n_tradable = n_tradable
        self.s0_tradable = np.atleast_1d(np.asarray(s0_tradable, dtype=np.float64))
        if self.s0_tradable.shape != (n_tradable,) or np.any(self.s0_tradable <= 0):
            raise DataError("start levels must be positive, one per tradable dim")
        self.net = Mlp(params, "hedge.net", 1 + n_tradable, hidden, n_tradable, layers)
        if "hedge.premium" not in params:
            params.add("hedge.premium", np.zeros(()))

    def premium(self) -> Tensor:
        return self.params["hedge.premium"]

    def set_premium(self, value: float) -> None:
        self.params["hedge.premium"].data = np.asarray(float(value))

    def controls(self, t_frac: float, prices: np.ndarray) -> Tensor:
        """Positions (n, n_tradable) at one hedge date."""
        prices = np.asarray(prices, dtype=np.float64)
        n = prices.shape[0]
        t_col = np.full((n, 1), float(t_frac))
        inp = np.concatenate([t_col, prices / self.s0_tradable], axis=1)
        return self.net(Tensor(inp))


def replicate_terminal(policy: HedgerPolicy, prices: PathBatch,
                       spec: HedgingSpec) -> Tensor:
    """Terminal portfolio values X_T, differentiable in the policy parameters."""
    spec.check_batch(prices)
    v = prices.values
    idx = list(spec.tradable)
    n_steps = prices.seq_len - 1
    total = None
    for j in range(n_steps):
        positions = policy.controls(j / n_steps, v[:, j, idx])
        inc = Tensor(v[:, j + 1, idx] - v[:, j, idx])
        step = (positions * inc).sum(axis=1)
        total = step if total is None else total + step
    return policy.premium() + total


def rebase_batch(batch: PathBatch, s0) -> PathBatch:
    """Rescale every path so it starts at the common level vector `s0`.

    A returns-based backtest: each window keeps its own relative moves but
    starts where the claim is anchored, so one fixed-strike option means the
    same thing on every window.
    """
    s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
    if s0.shape != (batch.dim,):
        raise DataError(f"s0 shape {s0.shape} does not match batch dimension {batch.dim}")
    starts = batch.values[:, :1, :]
    if np.any(starts <= 0):
        raise DataError("rebasing needs strictly positive start prices")
    values = batch.values * (s0 / starts)
    values[:, 0, :] = s0
    return PathBatch(values=values, labels=batch.labels, dt=batch.dt)


def policy_controls(policy: HedgerPolicy, prices: PathBatch,
                    spec: HedgingSpec) -> np.ndarray:
    """All positions as an (n, N, n_tradable) array (diagnostics, exports)."""
    spec.check_batch(prices)
    v = prices.values
    idx = list(spec.tradable)
    n_steps = prices.seq_len - 1
    with no_grad():
        return np.stack([policy.controls(j / n_steps, v[:, j, idx]).data
                         for j in range(n_steps)], axis=1)


@dataclass
class HedgeEvaluation:
    """Replication quality on one evaluation batch."""

    repl_loss: float
    init_risk: float
    s_T: np.ndarray
    payoff: np.ndarray
    portfolio_T: np.ndarray


def eval_hedger(policy: HedgerPolicy, prices: PathBatch,
                spec: HedgingSpec) -> HedgeEvaluation:
    spec.check_batch(prices)
    with no_grad():
        portfolio = replicate_terminal(policy, prices, spec).data
    terminal = prices.values[:, -1, :]
    g = spec.payoff.value(terminal)
    return HedgeEvaluation(
        repl_loss=float(np.mean((portfolio - g) ** 2)),
        init_risk=float(np.mean(g ** 2)),
        s_T=spec.payoff.reference_level(terminal),
        payoff=g,
        portfolio_T=portfolio,
    )


def write_hedge_export(ev: HedgeEvaluation, path) -> None:
    """Per-path terminal pairs for payoff-vs-portfolio scatter plots."""
    store.write_csv(path, HEDGE_EXPORT_HEADER.split(","),
                    [[str(i), repr(float(ev.s_T[i])), repr(float(ev.payoff[i])),
                      repr(float(ev.portfolio_T[i]))] for i in range(ev.payoff.size)])


def train_hedger(sampler, spec: HedgingSpec, cfg: TrainConfig | None = None,
                 test_data: PathBatch | None = None, eval_every: int = 10):
    """Fit a HedgerPolicy on fresh sampler batches every iteration.

    Returns (policy, train_curve, test_curve); the test curve is evaluated
    on the fixed `test_data` batch every `eval_every` iterations (and at the
    last one) when provided.  Deterministic per (sampler, spec, cfg).
    """
    cfg = cfg or TrainConfig()
    if eval_every < 1:
        raise DataError("eval_every must be >= 1")
    seeds = rng_for(cfg.seed, "hedger", "draws").integers(0, 2**63 - 1,
                                                          size=cfg.iterations + 1)
    pilot = sampler.sample(cfg.batch_size, seed=int(seeds[-1]), s0=spec.s0)
    spec.check_batch(pilot)
    params = ParamSet(cfg.seed)
    s0_tradable = pilot.values[:, 0, list(spec.tradable)].mean(axis=0)
    policy = HedgerPolicy(params, len(spec.tradable), s0_tradable,
                          hidden=cfg.hidden, layers=cfg.layers)
    # variance-optimal starting premium: mean payoff of the pilot batch
    policy.set_premium(spec.payoff.value(pilot.values[:, -1, :]).mean())
    opt = Optimizer(params, cfg.lr, cfg.clip_norm)
    train_curve, test_curve = LossCurve(), LossCurve()
    for it in range(cfg.iterations):
        batch = sampler.sample(cfg.batch_size, seed=int(seeds[it]), s0=spec.s0)
        g = spec.payoff.value(batch.values[:, -1, :])
        gap = replicate_terminal(policy, batch, spec) - Tensor(g)
        loss = (gap * gap).mean()
        opt.step(backprop(loss, params, it, "replication loss"))
        train_curve.append(it, loss.item())
        if test_data is not None and (it % eval_every == 0 or it == cfg.iterations - 1):
            test_curve.append(it, eval_hedger(policy, test_data, spec).repl_loss)
    return policy, train_curve, test_curve


# ---------------------------------------------------------------------------
# Black-Scholes baseline


@dataclass
class BsStrategyResult:
    premium: np.ndarray
    deltas: np.ndarray
    portfolio_T: np.ndarray
    repl_loss: float
    init_risk: float


def bs_delta_strategy(prices: PathBatch, spec: HedgingSpec,
                      sigma: float) -> BsStrategyResult:
    """Classical delta hedge of a vanilla call on its own (tradable) underlying.

    Position at t_j is bs_delta(S_{t_j}, K, sigma, T - t_j); the premium is
    the Black-Scholes price at each path's own start.  Proxy and spread
    cases have no such closed-form baseline and are rejected.
    """
    if spec.payoff.kind != "call" or tuple(spec.tradable) != spec.payoff.dims:
        raise DataError("Black-Scholes baseline requires a call on a single "
                        "tradable underlying (no proxy or spread cases)")
    spec.check_batch(prices)
    if sigma <= 0:
        raise DataError("sigma must be positive")
    s = prices.values[:, :, spec.payoff.dims[0]]
    n_steps = prices.seq_len - 1
    span = prices.dt * n_steps
    if abs(span - spec.maturity) > 1e-9:
        raise DataError(f"batch spans {span:.6f} years but the claim maturity is "
                        f"{spec.maturity:.6f}; the delta grid needs matching calendars")
    strike = spec.payoff.strike
    premium = bs_price(s[:, 0], strike, sigma, spec.maturity)
    deltas = np.stack([bs_delta(s[:, j], strike, sigma,
                                spec.maturity * (1.0 - j / n_steps))
                       for j in range(n_steps)], axis=1)
    portfolio = premium + np.sum(deltas * np.diff(s, axis=1), axis=1)
    g = spec.payoff.value(prices.values[:, -1, :])
    return BsStrategyResult(
        premium=premium, deltas=deltas, portfolio_T=portfolio,
        repl_loss=float(np.mean((portfolio - g) ** 2)),
        init_risk=float(np.mean(g ** 2)),
    )


# ---------------------------------------------------------------------------
# checkpoints (same container family as the generators)


def save_hedger(policy: HedgerPolicy, spec: HedgingSpec, cfg: TrainConfig,
                path, trained_iterations: int = 0) -> None:
    store.write_container(path, store.CHECKPOINT_FORMAT, store.CHECKPOINT_VERSION, {
        "kind": HEDGER_KIND,
        "cfg": cfg.to_dict(),
        "cfg_hash": cfg.content_hash(),
        "spec": spec.to_dict(),
        "s0_tradable": store.array_block(policy.s0_tradable),
        "params": {name: store.array_block(t.data) for name, t in policy.params.items()},
        "trained_iterations": trained_iterations,
    })


def load_hedger(path):
    """Returns (policy, spec, cfg) from a hedger container."""
    return store.read_container(path, store.CHECKPOINT_FORMAT, store.CHECKPOINT_VERSION,
                                "hedger checkpoint", lambda raw: _decode_hedger(raw, path))


def _decode_hedger(raw: dict, path):
    if raw["kind"] != HEDGER_KIND:
        raise DataError(f"{path}: checkpoint kind '{raw['kind']}' is not '{HEDGER_KIND}'")
    cfg = TrainConfig.from_dict(raw["cfg"])
    spec = HedgingSpec.from_dict(raw["spec"])
    params = ParamSet(cfg.seed)
    params.load_state({k: store.block_array(v) for k, v in raw["params"].items()})
    policy = HedgerPolicy(params, len(spec.tradable),
                          store.block_array(raw["s0_tradable"]),
                          hidden=cfg.hidden, layers=cfg.layers)
    return policy, spec, cfg
