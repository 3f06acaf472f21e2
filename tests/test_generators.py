import re

import numpy as np
import pytest

from commodgen import generators as G
from commodgen.autodiff import ParamSet, Tensor, concat
from commodgen.dataio import DataError, PathBatch, fit_normalizer
from commodgen.generators import (GeneratorModel, LossCurve, TrainConfig,
                                  TrainingError, check_loss, load_checkpoint,
                                  save_checkpoint, train_generator)
from commodgen.hedging import HedgingSpec, Payoff, rebase_batch, train_hedger
from commodgen.losses import transition_moment_loss
from commodgen.rng import rng_for
from commodgen.stochastic import GbmParams, simulate_gbm
from commodgen import store

ALL_KINDS = ("GBM", "CEGEN", "TSGAN", "COTGAN", "SIGGAN")
NEURAL_KINDS = ("CEGEN", "TSGAN", "COTGAN", "SIGGAN")


def gbm_batch(n=256, seq_len=12, sigma=0.3, seed=11):
    params = GbmParams(sigma=np.array([sigma]), corr=np.eye(1))
    return simulate_gbm(params, n, seq_len, np.array([1.0]), seed=seed, labels=["x"])


def tiny_cfg(**over):
    base = dict(iterations=3, batch_size=32, hidden=8, pretrain_iterations=2,
                sinkhorn_iterations=8, sig_depth=3, latent_dim=4)
    base.update(over)
    return TrainConfig(**base)


def qvar(values):
    return np.sum(np.diff(values, axis=1) ** 2, axis=(1, 2)).mean()


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip_and_hash_stability():
    cfg = TrainConfig(iterations=7, lr=3e-4, noise_dim=2)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.content_hash() == cfg.content_hash()
    assert TrainConfig().content_hash() != cfg.content_hash()


@pytest.mark.parametrize("bad", [
    dict(iterations=-1), dict(batch_size=0), dict(lr=0.0), dict(lr=-1.0),
    dict(sinkhorn_epsilon=0.0), dict(causal_weight=-0.1), dict(critic_lr=0.0),
    dict(noise_dim=0), dict(sig_depth=0), dict(bins=0), dict(clip_norm=0.0),
    dict(lr=float("nan")), dict(clip_norm=float("inf")), dict(hidden=2.0),
    dict(batch_size=True), dict(iterations=2.5), dict(seed=1e30), dict(lr="x"),
    dict(critic_lr="a"), dict(noise_dim=2.0),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_unknown_kind_rejected():
    with pytest.raises(DataError):
        train_generator("VAE", gbm_batch(16), tiny_cfg())


# ---------------------------------------------------------------------------
# universal sampling contracts


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_untrained_model_samples_finite(kind):
    data = gbm_batch(64)
    model, curve = train_generator(kind, data, tiny_cfg(iterations=0))
    assert len(curve.iterations) == 0
    assert model.trained_iterations == 0
    out = model.sample(9, seed=5)
    assert out.values.shape == (9, data.seq_len, data.dim)
    assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sampling_is_deterministic_per_seed(kind):
    model, _ = train_generator(kind, gbm_batch(64), tiny_cfg())
    a = model.sample(7, seed=3).values
    b = model.sample(7, seed=3).values
    c = model.sample(7, seed=4).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", NEURAL_KINDS)
def test_sample_builds_no_nets(kind, monkeypatch):
    # `sample()` runs the nets the trainer built; building them anew would
    # need a re-attach path beside registration
    model, _ = train_generator(kind, gbm_batch(64), tiny_cfg())

    def refuse(*args, **kwargs):
        raise AssertionError("sample() built a net")

    monkeypatch.setattr(G, "Mlp", refuse)
    monkeypatch.setattr(G, "RecurrentCell", refuse)
    monkeypatch.setattr(ParamSet, "add", refuse)
    assert model.sample(3, seed=1).values.shape == (3, 12, 1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_s0_rebase_is_exact(kind):
    model, _ = train_generator(kind, gbm_batch(64), tiny_cfg())
    out = rebase_batch(model.sample(5, seed=1), np.array([37.25]))
    assert np.all(out.values[:, 0, 0] == 37.25)


def test_s0_dimension_mismatch_rejected():
    model, _ = train_generator("GBM", gbm_batch(32), tiny_cfg())
    with pytest.raises(DataError):
        rebase_batch(model.sample(2, seed=0), np.array([1.0, 2.0]))


def test_sample_respects_normalizer():
    data = gbm_batch(64)
    norm = fit_normalizer(data)
    normalized = norm.apply(data)
    model, _ = train_generator("GBM", normalized, tiny_cfg(iterations=1),
                               normalizer=norm)
    out = model.sample(200, seed=8)
    # inverted paths should live at the raw price level, not near 1.0
    assert abs(out.values[:, 0, :].mean() - data.values[:, 0, :].mean()) < 0.05


@pytest.mark.parametrize("kind", ["CEGEN", "COTGAN"])
def test_training_is_reproducible(kind):
    data = gbm_batch(64)
    m1, c1 = train_generator(kind, data, tiny_cfg())
    m2, c2 = train_generator(kind, data, tiny_cfg())
    assert c1.gen_loss == c2.gen_loss
    assert m1.params.names() == m2.params.names()
    for (name, p1), (_, p2) in zip(m1.params.items(), m2.params.items()):
        assert np.array_equal(p1.data, p2.data), name


# ---------------------------------------------------------------------------
# GBM


def test_gbm_calibration_recovers_sigma():
    data = gbm_batch(n=400, seq_len=40, sigma=0.42, seed=3)
    model, _ = train_generator("GBM", data, tiny_cfg(iterations=1))
    assert abs(model.gbm.sigma[0] - 0.42) / 0.42 < 0.05


def test_gbm_untrained_keeps_default_sigma():
    model, _ = train_generator("GBM", gbm_batch(sigma=0.5), tiny_cfg(iterations=0))
    assert model.gbm.sigma[0] == 0.2
    assert np.array_equal(model.gbm.corr, np.eye(1))


def test_gbm_terminal_mean_is_martingale():
    data = gbm_batch(n=128, seq_len=25, sigma=0.35, seed=9)
    model, _ = train_generator("GBM", data, tiny_cfg(iterations=1))
    out = rebase_batch(model.sample(10_000, seed=42), np.array([1.0]))
    terminal = out.values[:, -1, 0]
    stderr = terminal.std(ddof=1) / np.sqrt(terminal.size)
    assert abs(terminal.mean() - 1.0) < 3.0 * stderr


# ---------------------------------------------------------------------------
# CEGEN


def test_cegen_matches_gbm_quadratic_variation():
    # 1-d GBM, sigma=0.3: after training, sample QVar within 15% of real
    data = gbm_batch(n=5000, seq_len=12, sigma=0.3, seed=11)
    cfg = TrainConfig(iterations=300, batch_size=256, seed=0)
    model, curve = train_generator("CEGEN", data, cfg)
    samp = model.sample(5000, seed=99).values
    assert abs(qvar(samp) / qvar(data.values) - 1.0) < 0.15
    # the loss curve should have come down along the way
    first, last = curve.quartile_means()
    assert last < first


def test_cegen_trained_beats_untrained_on_qvar():
    data = gbm_batch(n=1000, seq_len=12, sigma=0.3, seed=2)
    cold, _ = train_generator("CEGEN", data, tiny_cfg(iterations=0))
    hot, _ = train_generator("CEGEN", data, TrainConfig(iterations=150, batch_size=128))
    target = qvar(data.values)
    gap_cold = abs(qvar(cold.sample(1000, seed=7).values) - target)
    gap_hot = abs(qvar(hot.sample(1000, seed=7).values) - target)
    assert gap_hot < gap_cold


def test_cegen_step_records_few_graph_nodes(monkeypatch):
    """One CEGEN training step (rollout plus transition loss, batch 32, 30
    steps) records two graph nodes: the Euler rollout is one `euler_scan`
    and the loss one op.  With one op per dense layer the step recorded
    699; built from small ops throughout, twice as many."""
    ops = []
    result = Tensor._result
    monkeypatch.setattr(Tensor, "_result",
                        staticmethod(lambda *args: ops.append(args[-1]) or result(*args)))
    train_generator("CEGEN", gbm_batch(n=64, seq_len=30), TrainConfig(iterations=1, batch_size=32))
    assert ops == ["euler_scan", "transition_moment_loss"]


def test_cegen_sample_transition_loss_tracks_real():
    data = gbm_batch(n=1000, seq_len=10, sigma=0.3, seed=5)
    model, _ = train_generator("CEGEN", data, TrainConfig(iterations=150, batch_size=128))
    fake = model.sample(1000, seed=13)
    out = transition_moment_loss(data.values, fake.values, bins=5)
    assert out.value.item() < 1.0
    assert out.used_buckets > 0


# ---------------------------------------------------------------------------
# adversarial kinds


def test_cotgan_step_records_few_graph_nodes(monkeypatch):
    """One COTGAN training step (batch 64, 30 steps, 30 Sinkhorn
    iterations) records 86 graph nodes: each run of a recurrent cell over
    the sequence is one op (the generator and four critic runs), each head
    reads the (n, T, k) states whole as one `mlp` op, with no reshape on
    either side, and each Sinkhorn sweep is one op (six per divergence).
    The critic's loss is the generator loss negated as a number, not a
    `neg` node.  With a reshape around each head the step recorded 96;
    with one op per recurrent step, 742; built from small ops, 4516."""
    ops = []
    result = Tensor._result
    monkeypatch.setattr(Tensor, "_result",
                        staticmethod(lambda *args: ops.append(args[-1]) or result(*args)))
    train_generator("COTGAN", gbm_batch(n=128, seq_len=30),
                    TrainConfig(iterations=1, batch_size=64, sinkhorn_iterations=30))
    assert ops.count("gated_scan") == 5
    assert ops.count("sinkhorn_sweeps") == 6
    assert "neg" not in ops
    assert len(ops) == 86


def test_tsgan_step_records_few_graph_nodes(monkeypatch):
    """One TSGAN joint step (batch 64, 30 steps, no pretraining) records 65
    graph nodes: each of its eleven recurrent-cell runs (the generator's,
    supervisor's, embedder's and discriminator's, over the generator,
    embedding and discriminator phases, with one embedding of the minibatch
    shared by the first two) is one op, and each head call one `mlp` on the
    (n, T, k) states, with no reshape on either side.  With a reshape
    around each head the step recorded 75; with one op per recurrent step,
    1156."""
    ops = []
    result = Tensor._result
    monkeypatch.setattr(Tensor, "_result",
                        staticmethod(lambda *args: ops.append(args[-1]) or result(*args)))
    train_generator("TSGAN", gbm_batch(n=128, seq_len=30),
                    TrainConfig(iterations=1, batch_size=64, pretrain_iterations=0))
    assert ops.count("gated_scan") == 11
    assert "reshape" not in ops
    assert len(ops) == 65


def test_siggan_step_records_few_graph_nodes(monkeypatch):
    """One SIGGAN training step (batch 128, two Monte Carlo futures) records
    32 graph nodes: the signature of the fake futures is one op and each
    call of the generator net one `mlp`.  With the signature built from
    slice, reshape, mul, div and add ops the step recorded 160."""
    ops = []
    result = Tensor._result
    monkeypatch.setattr(Tensor, "_result",
                        staticmethod(lambda *args: ops.append(args[-1]) or result(*args)))
    train_generator("SIGGAN", gbm_batch(n=64, seq_len=12),
                    TrainConfig(iterations=1, batch_size=128, sig_depth=4))
    assert ops.count("signature") == 1
    assert len(ops) <= 50


def test_cotgan_curve_records_both_sides():
    _, curve = train_generator("COTGAN", gbm_batch(64), tiny_cfg(iterations=4))
    assert len(curve.iterations) == 4
    for g, d in zip(curve.gen_loss, curve.disc_loss):
        assert d == -g


def test_tsgan_curve_has_disc_column():
    _, curve = train_generator("TSGAN", gbm_batch(64), tiny_cfg(iterations=3))
    assert len(curve.iterations) == 3
    assert all(d is not None and np.isfinite(d) for d in curve.disc_loss)


def test_siggan_rollout_covers_odd_lengths():
    # seq_len=11 with p=q=3 needs truncation of the last rolled chunk
    data = gbm_batch(n=64, seq_len=11)
    model, _ = train_generator("SIGGAN", data, tiny_cfg())
    out = model.sample(6, seed=2)
    assert out.values.shape == (6, 11, 1)
    assert np.all(np.isfinite(out.values))


def training_rollout(model, n, seed):
    """The kind's rollout on the model's nets with gradients on, fed the
    draws `sample(n, seed)` makes and assembled the way training assembles it."""
    cfg, d, seq_len, nets = model.cfg, model.dim, model.seq_len, model.nets
    noise = rng_for(seed, model.kind.lower(), "sample")
    noise_dim = d if cfg.noise_dim is None else cfg.noise_dim
    if model.kind == "CEGEN":
        x0 = np.tile(model.start_levels / model.cegen_scale, (n, 1))
        paths = G._cegen_rollout(nets, x0, noise.standard_normal((n, seq_len - 1, d)),
                                 model.dt)
        assert paths.requires_grad
        return paths.data * model.cegen_scale
    if model.kind == "SIGGAN":
        p, q = cfg.past_len, cfg.future_len
        starts = rng_for(seed, "siggan", "starts").integers(0, len(model.sig_pool), size=n)
        past = model.sig_pool[starts]
        chunks = -(-(seq_len - p) // q)
        rolled = G._siggan_rollout(nets, past, noise.standard_normal((chunks, n, noise_dim)))
        assert rolled.shape[1] == chunks * q and (chunks - 1) * q < seq_len - p <= chunks * q
        return concat([Tensor(past), rolled], axis=1).data[:, :seq_len]
    z = noise.standard_normal((n, seq_len, noise_dim))
    if model.kind == "COTGAN":
        return G._cotgan_rollout(nets, z).data
    return nets["rec"](G._tsgan_rollout(nets, z)).data


@pytest.mark.parametrize("kind,seq_len", [(k, 12) for k in NEURAL_KINDS] +
                         [("SIGGAN", 11), ("SIGGAN", 13), ("SIGGAN", 6)])
def test_sample_equals_training_rollout(kind, seq_len):
    # seq_len 11 and 13 with p = q = 3 leave a partial last chunk; 6 is one chunk
    model, _ = train_generator(kind, gbm_batch(64, seq_len=seq_len), tiny_cfg(noise_dim=2))
    out = model.sample(7, seed=4).values
    assert out.shape == (7, seq_len, 1)
    assert np.array_equal(out, training_rollout(model, 7, seed=4))


def test_cotgan_samples_in_blocks(monkeypatch):
    """`sample()` runs COTGAN's rollout `COTGAN_SAMPLE_PATHS` paths at a
    time: blocks of 3 give the 7 paths one block gives, up to the rounding
    of the head's matmuls over fewer rows."""
    model, _ = train_generator("COTGAN", gbm_batch(64), tiny_cfg())
    whole = model.sample(7, seed=4).values
    monkeypatch.setattr(G, "COTGAN_SAMPLE_PATHS", 3)
    blocks = model.sample(7, seed=4).values
    assert blocks.shape == whole.shape
    np.testing.assert_allclose(blocks, whole, rtol=1e-12, atol=0)


def test_siggan_needs_long_enough_sequences():
    data = gbm_batch(n=16, seq_len=5)
    with pytest.raises(DataError):
        train_generator("SIGGAN", data, tiny_cfg(past_len=3, future_len=3))


@pytest.mark.parametrize("kind", NEURAL_KINDS + ("hedger",))
def test_every_parameter_is_updated(kind, monkeypatch):
    # optimiser groups select parameters by name prefix, so a misspelled
    # prefix freezes its parameters silently; two steps must move them all
    initial = {}
    take_grads = ParamSet.take_grads

    def first_take(self):
        # the first gradient collection precedes every update
        if not initial:
            initial.update({name: p.data.copy() for name, p in self.items()})
        return take_grads(self)

    monkeypatch.setattr(ParamSet, "take_grads", first_take)
    cfg = tiny_cfg(iterations=2)
    if kind == "hedger":
        sampler, _ = train_generator("GBM", gbm_batch(64), cfg)
        spec = HedgingSpec(payoff=Payoff(kind="call", strike=1.0))
        params = train_hedger(sampler, spec, cfg)[0].params
    else:
        params = train_generator(kind, gbm_batch(64), cfg)[0].params
    assert sorted(initial) == params.names()
    assert [name for name, p in params.items() if np.array_equal(p.data, initial[name])] == []


# ---------------------------------------------------------------------------
# failure guards


def test_divergence_guard_aborts_training():
    data = gbm_batch(64)
    huge = PathBatch(values=data.values * 1e8, labels=["x"], dt=data.dt)
    # the reconstruction error of an untrained autoencoder on 1e8-scale
    # inputs is astronomically past the divergence limit
    with pytest.raises(TrainingError, match="diverged"):
        train_generator("TSGAN", huge, tiny_cfg())


def test_check_loss_flags_nan_with_iteration_and_term():
    with pytest.raises(TrainingError, match="iteration 17.*generator loss"):
        check_loss(float("nan"), 17, "generator loss")
    check_loss(3.5, 0, "ok")  # finite and small: no exception


# ---------------------------------------------------------------------------
# loss curve file format


def test_loss_curve_csv_roundtrip(tmp_path):
    curve = LossCurve()
    curve.append(0, 1.5, -1.5)
    curve.append(1, 0.75, None)
    curve.append(2, 0.7501, -0.25)
    path = tmp_path / "curve.csv"
    curve.write_csv(path)
    header, rows = store.read_csv(path)
    assert header == ["iteration", "gen_loss", "disc_loss"]
    assert [int(it) for it, _, _ in rows] == curve.iterations
    assert [float(g) for _, g, _ in rows] == curve.gen_loss      # repr floats are exact
    assert [float(d) if d else None for _, _, d in rows] == curve.disc_loss
    assert rows[1][2] == ""                                      # None is an empty cell


def test_quartile_means():
    curve = LossCurve()
    for i, v in enumerate([4.0, 4.0, 3.0, 2.0, 1.0, 1.0, 0.5, 0.5]):
        curve.append(i, v)
    first, last = curve.quartile_means()
    assert first == 4.0 and last == 0.5


# ---------------------------------------------------------------------------
# checkpoints


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_checkpoint_roundtrip_preserves_sampling(tmp_path, kind):
    data = gbm_batch(64)
    norm = fit_normalizer(data)
    model, _ = train_generator(kind, norm.apply(data), tiny_cfg(), normalizer=norm)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.kind == kind
    assert loaded.labels == model.labels
    a = model.sample(6, seed=21).values
    b = loaded.sample(6, seed=21).values
    assert np.array_equal(a, b)
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_rejects_wrong_kind(tmp_path):
    model, _ = train_generator("GBM", gbm_batch(32), tiny_cfg(iterations=1))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    raw = store.read_json(path)
    raw["kind"] = "CEGEN"           # a GBM's contents under another kind
    store.write_json(path, raw)
    with pytest.raises(DataError, match="CEGEN checkpoint lacks parameter"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,edit,needle", [
    ("COTGAN", lambda raw: raw["params"].pop("critic.h.wz"),
     "COTGAN checkpoint lacks parameter 'critic.h.wz'"),
    ("SIGGAN", lambda raw: raw.update(sig_pool={"shape": [2, 2, 1], "data": [1.0] * 4}),
     "SIGGAN checkpoint needs a 'sig_pool' block of shape (n >= 1, 3, 1)"),
    ("GBM", lambda raw: raw.update(gbm=None), "GBM checkpoint needs a 'gbm' block"),
], ids=["critic", "sig-pool", "gbm"])
def test_checkpoint_rejects_contents_another_cfg_would_have(tmp_path, kind, edit, needle):
    model, _ = train_generator(kind, gbm_batch(32), tiny_cfg(iterations=1))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    raw = store.read_json(path)
    edit(raw)
    store.write_json(path, raw)
    with pytest.raises(DataError, match=re.escape(f"{path}: {needle}")):
        load_checkpoint(path)


def test_checkpoint_rejects_an_edited_cfg(tmp_path):
    model, _ = train_generator("CEGEN", gbm_batch(32), tiny_cfg(iterations=1))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    raw = store.read_json(path)
    raw["cfg"]["lr"] = 0.5          # loads without it, as if trained at lr 0.5
    store.write_json(path, raw)
    with pytest.raises(DataError, match=re.escape(f"{path}: cfg does not match the stored "
                                                  f"cfg_hash")):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version_or_format(tmp_path):
    model, _ = train_generator("GBM", gbm_batch(32), tiny_cfg(iterations=1))
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    raw = store.read_json(path)
    raw["version"] = 99
    store.write_json(path, raw)
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)
    raw["format"] = "something-else"
    store.write_json(path, raw)
    with pytest.raises(DataError, match="not a generator checkpoint"):
        load_checkpoint(path)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    data = gbm_batch(48)
    m1, _ = train_generator("CEGEN", data, tiny_cfg())
    m2, _ = train_generator("CEGEN", data, tiny_cfg())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(m1, p1)
    save_checkpoint(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
