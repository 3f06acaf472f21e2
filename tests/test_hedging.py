import numpy as np
import pytest

from commodgen.autodiff import NumericOverflowError, ParamSet, Tensor, no_grad
from commodgen.dataio import DataError, PathBatch
from commodgen.generators import TrainConfig, train_generator
from commodgen.hedging import (HEDGE_EXPORT_HEADER, HedgerPolicy, HedgingSpec,
                               Payoff, bs_delta_strategy, eval_hedger, rebase_batch,
                               replicate_terminal, save_hedger, train_hedger,
                               write_hedge_export)
from commodgen import store
from commodgen.rng import rng_for
from commodgen.stochastic import GbmParams, bs_price, simulate_gbm


def price_batch(n=32, seq_len=8, d=1, seed=0, level=1.0):
    walk = rng_for(seed, "hedge", "walk").standard_normal((n, seq_len, d)) * 0.05
    values = level * np.exp(np.cumsum(walk, axis=1) - walk[:, :1, :])
    return PathBatch(values=values, labels=[f"a{i}" for i in range(d)], dt=1 / 252)


def fresh_policy(n_tradable=1, s0=None, hidden=4, layers=1):
    s0 = np.ones(n_tradable) if s0 is None else s0
    return HedgerPolicy(ParamSet(0), n_tradable, s0, hidden=hidden, layers=layers)


def zero_net(policy):
    for name, p in policy.params.items():
        if name.startswith("hedge.net."):
            p.data = np.zeros_like(p.data)


class TwoStateSampler:
    """One-step binomial market: S0=1, doubles or halves with equal weight."""

    def sample(self, n, seed, s0=None):
        up = rng_for(seed, "toy", "updown").random(n) < 0.5
        end = np.where(up, 2.0, 0.5)
        values = np.stack([np.ones(n), end], axis=1)[:, :, None]
        return PathBatch(values=values, labels=["s"], dt=1.0)


def positions(policy, prices, spec):
    """The position `policy.controls` takes at every hedge date, as an
    (n, N, n_tradable) array (`test_replicate_matches_op_chain` ties
    `controls` to `replicate_terminal`)."""
    v = prices.values[:, :, list(spec.tradable)]
    n_steps = prices.seq_len - 1
    with no_grad():
        return np.stack([policy.controls(j / n_steps, v[:, j, :]).data
                         for j in range(n_steps)], axis=1)


def reference_replicate_terminal(policy, prices, spec):
    """`replicate_terminal` as the chain of small ops it fuses: the oracle
    for the `replicate` op's value and gradients."""
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


def call_spec(strike=1.0, **over):
    base = dict(payoff=Payoff(kind="call", strike=strike, dims=(0,)), tradable=(0,),
                maturity=1.0)
    base.update(over)
    return HedgingSpec(**base)


# ---------------------------------------------------------------------------
# payoffs


def test_payoff_hand_values():
    terminal = np.array([[1.0, 5.0], [3.0, 1.0]])
    call = Payoff(kind="call", strike=2.0, dims=(0,))
    assert np.array_equal(call.value(terminal), [0.0, 1.0])
    spread = Payoff(kind="spread_call", strike=0.5, dims=(0, 1))
    assert np.array_equal(spread.value(terminal), [0.0, 1.5])
    assert np.all(call.value(terminal) >= 0)


def test_payoff_validation():
    with pytest.raises(DataError):
        Payoff(kind="put", strike=1.0)
    with pytest.raises(DataError):
        Payoff(kind="call", strike=float("inf"))
    with pytest.raises(DataError):
        Payoff(kind="spread_call", strike=1.0, dims=(2, 2))
    with pytest.raises(DataError):
        Payoff(kind="call", strike=1.0, dims=(0, 1))


def test_spec_validation():
    with pytest.raises(DataError):
        HedgingSpec(payoff=Payoff(kind="call", strike=1.0), tradable=())
    with pytest.raises(DataError):
        HedgingSpec(payoff=Payoff(kind="call", strike=1.0), tradable=(0, 0))
    with pytest.raises(DataError):
        HedgingSpec(payoff=Payoff(kind="call", strike=1.0), maturity=0.0)
    spec = call_spec()
    with pytest.raises(DataError):
        spec.check_batch(price_batch(d=1, seq_len=1))


# ---------------------------------------------------------------------------
# terminal replication identities


def test_zero_positions_give_premium_exactly():
    policy = fresh_policy()
    zero_net(policy)
    policy.set_premium(0.37)
    x = replicate_terminal(policy, price_batch(), call_spec())
    assert np.all(x.data == 0.37)


def test_unit_position_telescopes():
    policy = fresh_policy(layers=1)
    zero_net(policy)
    policy.params["hedge.net.b1"].data = np.ones(1)  # constant position 1
    policy.set_premium(0.0)
    batch = price_batch()
    x = replicate_terminal(policy, batch, call_spec())
    expected = batch.values[:, -1, 0] - batch.values[:, 0, 0]
    assert np.allclose(x.data, expected, rtol=1e-12)


def test_constant_path_pays_premium_for_any_policy():
    policy = fresh_policy(hidden=6, layers=2)  # arbitrary initialized network
    policy.set_premium(1.25)
    values = np.full((5, 9, 1), 3.0)
    batch = PathBatch(values=values, labels=["a"], dt=1 / 252)
    x = replicate_terminal(policy, batch, call_spec())
    assert np.all(x.data == 1.25)


def test_rebase_preserves_returns_and_pins_starts():
    batch = price_batch(n=16, seq_len=6, d=2, level=3.0)
    s0 = np.array([10.0, 20.0])
    rebased = rebase_batch(batch, s0)
    assert np.array_equal(rebased.values[:, 0, :], np.tile(s0, (16, 1)))
    ratios = batch.values / batch.values[:, :1, :]
    assert np.allclose(rebased.values / s0, ratios, rtol=1e-12)
    assert rebased.labels == batch.labels and rebased.dt == batch.dt


def test_rebase_rejects_bad_inputs():
    batch = price_batch(n=4, seq_len=5, d=2)
    with pytest.raises(DataError, match="shape"):
        rebase_batch(batch, np.ones(3))
    bad = batch.values.copy()
    bad[0, 0, 0] = -1.0
    with pytest.raises(DataError, match="positive"):
        rebase_batch(PathBatch(values=bad, labels=batch.labels, dt=batch.dt),
                     np.ones(2))


# ---------------------------------------------------------------------------
# training


def test_binomial_toy_recovers_exact_replication():
    # two-state market: perfect hedge is position 2/3 at premium 1/3
    spec = call_spec(strike=1.0)
    cfg = TrainConfig(iterations=300, batch_size=512, lr=0.02, hidden=8, layers=2,
                      seed=0)
    policy, train_curve, _ = train_hedger(TwoStateSampler(), spec, cfg)
    position = policy.controls(0.0, np.array([[1.0]])).data[0, 0]
    premium = float(policy.premium().data)
    assert abs(position - 2.0 / 3.0) < 2e-2
    assert abs(premium - 1.0 / 3.0) < 1e-2
    ev = eval_hedger(policy, TwoStateSampler().sample(4096, seed=123), spec)
    assert ev.repl_loss < 1e-4
    assert len(train_curve.iterations) == 300


def test_worthless_payoff_trains_to_zero_premium():
    spec = call_spec(strike=100.0)  # far OTM on a unit-level market
    cfg = TrainConfig(iterations=250, batch_size=128, lr=1e-2, hidden=8, layers=1)
    policy, curve, _ = train_hedger(TwoStateSampler(), spec, cfg)
    assert abs(float(policy.premium().data)) < 5e-3
    assert curve.gen_loss[-1] < 1e-4


def test_train_and_test_losses_agree_on_matching_law():
    params = GbmParams(sigma=np.array([0.4]), corr=np.eye(1))
    data = simulate_gbm(params, 500, 10, np.array([1.0]), seed=3)
    sampler, _ = train_generator("GBM", data, TrainConfig(iterations=1))
    test = simulate_gbm(params, 2000, 10, np.array([1.0]), seed=9)
    spec = call_spec(strike=1.0, maturity=9 / 252, s0=np.array([1.0]))
    cfg = TrainConfig(iterations=150, batch_size=128, lr=1e-2, hidden=16, seed=1)
    policy, train_curve, test_curve = train_hedger(sampler, spec, cfg, test_data=test)
    assert len(test_curve.iterations) >= 6
    # same law on both sides: no meaningful generalization gap
    train_tail = np.mean(train_curve.gen_loss[-20:])
    assert test_curve.gen_loss[-1] < 2.0 * train_tail
    assert test_curve.gen_loss[-1] < test_curve.gen_loss[0]


def test_hedger_step_records_few_graph_nodes(monkeypatch):
    """One hedger training step over 29 hedge dates records five graph
    nodes: the whole replication is one `replicate` op, then the squared
    gap's mean.  With one `mlp` op per date and that date's product, sum
    and running total the step recorded 120; with one op per dense layer
    and activation, 236."""
    params = GbmParams(sigma=np.array([0.3]), corr=np.eye(1))
    sampler, _ = train_generator("GBM", simulate_gbm(params, 64, 30, np.array([1.0]), seed=4),
                                 TrainConfig(iterations=1))
    ops = []
    result = Tensor._result
    monkeypatch.setattr(Tensor, "_result",
                        staticmethod(lambda *args: ops.append(args[-1]) or result(*args)))
    train_hedger(sampler, call_spec(strike=1.0), TrainConfig(iterations=1, batch_size=64))
    assert ops == ["replicate", "sub", "mul", "sum", "div"]


# ---------------------------------------------------------------------------
# the replication op


REPLICATE_SPECS = {
    "call": call_spec(),
    "spread": HedgingSpec(payoff=Payoff(kind="spread_call", strike=0.05, dims=(0, 1)),
                          tradable=(0, 1), maturity=1.0),
    "proxy": HedgingSpec(payoff=Payoff(kind="call", strike=1.0, dims=(0,)),
                         tradable=(1,), maturity=1.0),
}


def replicate_case(case, n=256, seq_len=30, hidden=8, layers=2, seed=0):
    """A hedger with random parameters, a price batch and the spec of one
    `REPLICATE_SPECS` case (call on one asset, spread over two tradables,
    proxy trading an asset the payoff is not written on)."""
    spec = REPLICATE_SPECS[case]
    d = 1 + max((*spec.tradable, *spec.payoff.dims))
    batch = price_batch(n=n, seq_len=seq_len, d=d, seed=seed)
    policy = fresh_policy(n_tradable=len(spec.tradable), hidden=hidden, layers=layers)
    rng = np.random.default_rng(seed)
    policy.params.load_state({name: 0.5 * rng.standard_normal(p.shape)
                              for name, p in policy.params.items()})
    return policy, batch, spec


@pytest.mark.parametrize("case", sorted(REPLICATE_SPECS))
def test_replicate_matches_op_chain(case):
    """The op against the chain oracle: value, premium and every net
    gradient bit-identical, under a random seed gradient and through the
    replication loss, at the training batch over 29 dates."""
    policy, batch, spec = replicate_case(case)
    seed = np.random.default_rng(1).standard_normal(batch.n_samples)
    g = Tensor(spec.payoff.value(batch.values[:, -1, :]))
    results = []
    for fn in (replicate_terminal, reference_replicate_terminal):
        out = fn(policy, batch, spec)
        out.backward(seed)
        by_seed = policy.params.take_grads()
        gap = fn(policy, batch, spec) - g
        (gap * gap).mean().backward()
        results.append([out.data, *by_seed.values(), *policy.params.take_grads().values()])
    assert len(results[0]) == 15
    for fused, chain in zip(*results):
        assert np.array_equal(fused, chain)


@pytest.mark.parametrize("name", ["hedge.premium", "hedge.net.w0", "hedge.net.b0",
                                  "hedge.net.w1", "hedge.net.b1"])
def test_replicate_matches_finite_differences(name):
    policy, batch, spec = replicate_case("spread", n=16, seq_len=6, layers=1, seed=2)
    weights = Tensor(np.random.default_rng(3).standard_normal(16))
    p = policy.params[name]
    base = p.data.copy()

    def loss(arr):
        p.data = arr
        return (replicate_terminal(policy, batch, spec) * weights).sum()

    loss(base.copy()).backward()
    grad = policy.params.take_grads()[name]
    num = np.zeros_like(base)
    h = 1e-6
    for i in np.ndindex(base.shape):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        num[i] = (loss(up).item() - loss(down).item()) / (2.0 * h)
    p.data = base
    np.testing.assert_allclose(grad, num, atol=1e-6, rtol=1e-6)


def test_replicate_under_no_grad_records_no_graph():
    policy, batch, spec = replicate_case("spread", n=32, seq_len=8)
    with no_grad():
        out = replicate_terminal(policy, batch, spec)
    assert not out.requires_grad and out._parents == ()
    assert np.array_equal(out.data, reference_replicate_terminal(policy, batch, spec).data)


def test_replicate_overflow_names_the_op():
    """An affine net's positions grow with the prices, so each date's
    product overflows; the chain named `mul` here."""
    policy, batch, spec = replicate_case("call", n=16, seq_len=6, layers=0)
    huge = PathBatch(values=batch.values * 1e200, labels=batch.labels, dt=batch.dt)
    with np.errstate(over="ignore", invalid="ignore"):   # as the CLI runs
        with pytest.raises(NumericOverflowError, match="'replicate'"):
            replicate_terminal(policy, huge, spec)


# ---------------------------------------------------------------------------
# evaluation identities


def test_zero_policy_loss_equals_initial_risk():
    policy = fresh_policy()
    zero_net(policy)
    policy.set_premium(0.0)
    batch = price_batch(n=64, seed=4)
    ev = eval_hedger(policy, batch, call_spec(strike=0.9))
    assert ev.repl_loss == ev.init_risk
    assert ev.init_risk > 0


def test_all_otm_zero_policy_has_zero_loss():
    policy = fresh_policy()
    zero_net(policy)
    policy.set_premium(0.0)
    batch = price_batch(n=32, seed=5)
    ev = eval_hedger(policy, batch, call_spec(strike=1e6))
    assert ev.repl_loss == 0.0 and ev.init_risk == 0.0
    assert np.all(ev.payoff == 0.0)


def test_hedge_export_schema(tmp_path):
    policy = fresh_policy()
    ev = eval_hedger(policy, price_batch(n=7), call_spec())
    out = tmp_path / "pairs.csv"
    write_hedge_export(ev, out)
    lines = out.read_text().splitlines()
    assert lines[0] == HEDGE_EXPORT_HEADER == "path_id,S_T,payoff,portfolio_T"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) >= 0.0


# ---------------------------------------------------------------------------
# adaptedness


def test_positions_ignore_future_prices():
    policy = fresh_policy(hidden=6, layers=2)
    spec = call_spec()
    batch = price_batch(n=16, seq_len=10, seed=6)
    before = positions(policy, batch, spec)
    bumped = batch.values.copy()
    bumped[:, 6:, :] *= 1.9  # strictly after t_5
    after = positions(policy, PathBatch(values=bumped, labels=batch.labels,
                                        dt=batch.dt), spec)
    assert np.array_equal(before[:, :6, :], after[:, :6, :])
    assert not np.array_equal(before[:, 6:, :], after[:, 6:, :])


def test_proxy_policy_never_sees_untradable_dim():
    # payoff on dim 0, trading only dim 1
    spec = HedgingSpec(payoff=Payoff(kind="call", strike=1.0, dims=(0,)),
                       tradable=(1,), maturity=1.0)
    policy = fresh_policy(n_tradable=1)
    batch = price_batch(n=12, seq_len=6, d=2, seed=7)
    controls = positions(policy, batch, spec)
    assert controls.shape == (12, 5, 1)
    bumped = batch.values.copy()
    bumped[:, :, 0] *= 3.0  # perturb the non-tradable dimension everywhere
    bumped = PathBatch(values=bumped, labels=batch.labels, dt=batch.dt)
    assert np.array_equal(controls, positions(policy, bumped, spec))
    with no_grad():   # nor does the portfolio value
        assert np.array_equal(replicate_terminal(policy, batch, spec).data,
                              replicate_terminal(policy, bumped, spec).data)


# ---------------------------------------------------------------------------
# Black-Scholes baseline


def test_bs_strategy_constant_path_identity():
    spec = call_spec(strike=3.0, maturity=30 / 252)
    values = np.full((4, 31, 1), 3.0)
    batch = PathBatch(values=values, labels=["a"], dt=1 / 252)
    res = bs_delta_strategy(batch, spec, sigma=0.5)
    ref = bs_price(np.array([3.0]), 3.0, 0.5, 30 / 252)[0]
    assert np.allclose(res.premium, ref)
    assert np.allclose(res.portfolio_T, ref)       # zero increments
    assert abs(res.repl_loss - ref * ref) < 1e-15  # payoff is 0 at the money


def test_bs_strategy_error_shrinks_with_rebalancing_frequency():
    # same 30-day option, rebalanced 15 vs 60 times over its life
    maturity = 30 / 252
    losses = {}
    for n_points in (16, 61):
        params = GbmParams(sigma=np.array([0.3]), corr=np.eye(1),
                           dt=maturity / (n_points - 1))
        prices = simulate_gbm(params, 4000, n_points, np.array([1.0]), seed=31)
        spec = call_spec(strike=1.0, maturity=maturity)
        losses[n_points] = bs_delta_strategy(prices, spec, sigma=0.3).repl_loss
    assert losses[61] < losses[16]


def test_bs_strategy_rejects_calendar_mismatch():
    params = GbmParams(sigma=np.array([0.3]), corr=np.eye(1))  # dt = 1/252
    prices = simulate_gbm(params, 10, 61, np.array([1.0]), seed=31)  # 60 days
    with pytest.raises(DataError, match="calendar"):
        bs_delta_strategy(prices, call_spec(strike=1.0, maturity=30 / 252), sigma=0.3)


def test_bs_strategy_rejects_proxy_and_spread():
    batch = price_batch(d=2)
    proxy = HedgingSpec(payoff=Payoff(kind="call", strike=1.0, dims=(0,)),
                        tradable=(1,), maturity=1.0)
    with pytest.raises(DataError):
        bs_delta_strategy(batch, proxy, sigma=0.3)
    spread = HedgingSpec(payoff=Payoff(kind="spread_call", strike=0.1, dims=(0, 1)),
                         tradable=(0, 1), maturity=1.0)
    with pytest.raises(DataError):
        bs_delta_strategy(batch, spread, sigma=0.3)
    with pytest.raises(DataError):
        bs_delta_strategy(price_batch(), call_spec(), sigma=0.0)


def test_train_hedger_refuses_sampled_starts_at_or_below_zero():
    class SignFlipped:
        def sample(self, n, seed):
            batch = price_batch(n=n, seed=seed)
            return PathBatch(values=-batch.values, labels=batch.labels, dt=batch.dt)

    spec = call_spec(strike=1.0, s0=np.array([1.0]))
    with pytest.raises(DataError, match="but 8 of 8 paths start at or below zero"):
        train_hedger(SignFlipped(), spec, TrainConfig(iterations=2, batch_size=8))



def test_hedger_container_holds_the_trained_policy(tmp_path):
    """`hedger.json` holds the trained policy's parameter arrays, its spec
    and start levels, and the hash of the cfg it was trained with."""
    spec = call_spec(strike=1.0)
    cfg = TrainConfig(iterations=30, batch_size=64, lr=1e-2, hidden=8, layers=1)
    policy, _, _ = train_hedger(TwoStateSampler(), spec, cfg)
    path = tmp_path / "hedger.json"
    save_hedger(policy, spec, cfg, path)
    raw = store.read_json(path)
    assert raw["kind"] == "hedger" and raw["trained_iterations"] == 30
    assert raw["spec"] == spec.to_dict()
    assert raw["cfg"] == cfg.to_dict() and raw["cfg_hash"] == cfg.content_hash()
    assert np.array_equal(store.block_array(raw["s0_tradable"]), policy.s0_tradable)
    assert sorted(raw["params"]) == policy.params.names()
    for name, t in policy.params.items():
        assert np.array_equal(store.block_array(raw["params"][name]), t.data)
