import contextlib
import copy
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from commodgen import cli, store
from commodgen.cli import (ConfigError, DEFAULT_CONFIG, build_train_config,
                           config_hash, merge_config)
from commodgen.dataio import load_csv, read_dataset, windowize
from commodgen.generators import KINDS, TrainConfig, load_checkpoint
from commodgen.metrics import REPORT_HEADER
from commodgen.stochastic import GbmParams, simulate_gbm


def write_csv(path, n_rows=46, d=2, seed=3, sigma=0.3):
    params = GbmParams(sigma=np.full(d, sigma), corr=np.eye(d))
    batch = simulate_gbm(params, 1, n_rows, np.full(d, 5.0), seed=seed,
                         labels=[f"c{i}" for i in range(d)])
    days = np.busday_offset("2021-01-04", np.arange(n_rows))
    lines = ["date," + ",".join(batch.labels)]
    for i, day in enumerate(days):
        row = ",".join(repr(float(v)) for v in batch.values[0, i, :])
        lines.append(f"{day},{row}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(path, **sections):
    path.write_text(json.dumps(sections))
    return path


def manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


def preprocess(tmp_path):
    """A small preprocessed dataset container in `tmp_path` plus its source CSV."""
    csv = write_csv(tmp_path / "prices.csv")
    out = tmp_path / "pre"
    cfg = write_config(tmp_path / "pre.json",
                       data={"source": str(csv), "window": 12})
    assert cli.main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "dataset.json", csv


@pytest.fixture
def dataset(tmp_path):
    return preprocess(tmp_path)


def test_runtime_imports_only_numpy_and_stdlib():
    """numpy is the only runtime dependency: importing every `commodgen`
    module and pricing one option loads no other third-party module.  The
    snapshot leaves out what the interpreter loaded at start-up."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        before = set(sys.modules)
        import commodgen
        for info in pkgutil.iter_modules(commodgen.__path__):
            importlib.import_module("commodgen." + info.name)
        from commodgen.stochastic import bs_delta, bs_price
        bs_price(10.0, 10.0, 0.5, 0.1)
        bs_delta(10.0, 10.0, 0.5, 0.1)
        allowed = set(sys.stdlib_module_names) | {"numpy", "commodgen"}
        print(sorted({m.split(".")[0] for m in set(sys.modules) - before} - allowed))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# configuration


def test_merge_override_and_reject_unknown():
    merged = merge_config(DEFAULT_CONFIG, {"seed": 7, "data": {"window": 20}})
    assert merged["seed"] == 7 and merged["data"]["window"] == 20
    assert merged["data"]["stride"] == 1          # untouched defaults survive
    with pytest.raises(ConfigError, match="unknown config key 'nope'"):
        merge_config(DEFAULT_CONFIG, {"nope": 1})
    with pytest.raises(ConfigError, match="data.nope"):
        merge_config(DEFAULT_CONFIG, {"data": {"nope": 1}})
    with pytest.raises(ConfigError, match="must be an object"):
        merge_config(DEFAULT_CONFIG, {"data": 5})
    with pytest.raises(ConfigError, match="unknown config key 'hedge.maturity'"):
        merge_config(DEFAULT_CONFIG, {"hedge": {"maturity": 0.5}})   # the window span


def test_train_block_accepts_any_trainconfig_field():
    merged = merge_config(DEFAULT_CONFIG, {"generator": {"train": {"iterations": 3}}})
    tc = build_train_config(merged["generator"]["train"], seed=9)
    assert tc.iterations == 3 and tc.seed == 9
    with pytest.raises(ConfigError, match="unknown training option.*warmup"):
        build_train_config({"warmup": 5}, seed=0)
    with pytest.raises(ConfigError, match="bad training option"):
        build_train_config({"lr": -1.0}, seed=0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("patch", [
    {"seed": -1},
    {"data": {"window": 1}},
    {"data": {"stride": 0}},
    {"data": {"quantile_level": 0.0}},
    {"eval": {"n_samples": 1}},
    {"hedge": {"case": "digital"}},
    {"generator": {"train": {"critic_lr": -0.5}}},
    {"hedge": {"strike": NAN}},
    {"generator": {"train": {"lr": NAN}}},
    {"generator": {"train": {"clip_norm": INF}}},
    {"hedge": {"train": {"critic_lr": INF}}},
    {"generator": {"train": {"iterations": 2.5}}},
    {"generator": {"train": {"hidden": 2.0}}},
    {"generator": {"train": {"batch_size": True}}},
    {"generator": {"train": {"seed": 1e30}}},
    {"generator": {"train": {"lr": "x"}}},
    {"generator": {"train": {"critic_lr": "a"}}},
    {"hedge": {"train": {"lr": 0}}},
    {"hedge": {"train": {"warmup": 5}}},
    {"data": {"quantile_level": "x"}},
    {"data": {"source": 5}},
    {"data": {"dataset": 5}},
    {"generator": {"checkpoint": 5}},
    {"hedge": {"underlying": 5}},
    {"hedge": {"tradable": ["coal", 1]}},
    {"seed": True},
    {"data": {"filter": "no"}},
    {"generator": {"normalize": 3}},
    {"eval": {"normalized": "x"}},
    {"hedge": {"rebase": "no"}},
    {"hedge": {"strike": True}},
    {"generator": {"train": {"critic_lr": True}}},
])
def test_validate_rejects_bad_values(patch):
    cfg = merge_config(DEFAULT_CONFIG, patch)
    key, node = [], patch
    while isinstance(node, dict):
        (name, node), = node.items()
        key.append(name)
    with pytest.raises(ConfigError, match=re.escape(".".join(key))):
        cli.validate_config(cfg)


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"generator": {"train": {"lr": NaN}}}'],
                         ids=["non-utf8", "nan"])
def test_unreadable_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text)
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flags,patch", [(["--seed", "3"], {"seed": True}),
                                         (["--out", "run"], {"out": 5})],
                         ids=["seed", "out"])
def test_flags_do_not_hide_bad_config_values(tmp_path, capsys, monkeypatch, flags, patch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "c.json", **patch)
    assert cli.main(["train-gen", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(patch))} must be") and err.count("\n") == 1, err


def test_config_hash_ignores_output_dir():
    a = merge_config(DEFAULT_CONFIG, {"out": "runs/a"})
    b = merge_config(DEFAULT_CONFIG, {"out": "runs/b"})
    assert config_hash(a) == config_hash(b)
    c = merge_config(DEFAULT_CONFIG, {"seed": 1})
    assert config_hash(a) != config_hash(c)


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_writes_container_and_manifest(tmp_path):
    csv = write_csv(tmp_path / "p.csv", n_rows=30, d=2)
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"source": str(csv), "window": 10})
    assert cli.main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    batch = read_dataset(out / "dataset.json")
    assert batch.values.shape == (21, 10, 2)
    m = manifest(out)
    assert m["meta"]["shape"] == [21, 10, 2]
    assert set(m["files"]) == {"dataset.json"}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert on_disk == set(m["files"])           # dir holds exactly what's listed
    assert m["files"]["dataset.json"] == store.file_sha256(out / "dataset.json")


def test_preprocess_no_filter_is_plain_windowing(tmp_path):
    csv = write_csv(tmp_path / "p.csv", n_rows=30, d=1, sigma=0.8)
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"source": str(csv), "window": 8})
    assert cli.main(["preprocess", "--config", str(cfg), "--out", str(out),
                     "--no-filter"]) == 0
    expected = windowize(load_csv(csv), length=8)
    got = read_dataset(out / "dataset.json")
    assert np.array_equal(got.values, expected.values)


def test_preprocess_rerun_byte_identical(tmp_path):
    csv = write_csv(tmp_path / "p.csv")
    cfg = write_config(tmp_path / "c.json", data={"source": str(csv), "window": 9})
    for name in ("a", "b"):
        assert cli.main(["preprocess", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "dataset.json").read_bytes() == \
           (tmp_path / "b" / "dataset.json").read_bytes()
    assert manifest(tmp_path / "a")["files"] == manifest(tmp_path / "b")["files"]


def test_preprocess_missing_source_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", data={"source": str(tmp_path / "no.csv")})
    assert cli.main(["preprocess", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 3
    assert "no input CSV" in capsys.readouterr().err


def test_preprocess_of_its_own_output_exits_3(tmp_path, dataset, capsys):
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)})
    # the command removes its previous dataset.json before it reads the input
    assert_one_line_exit_3(["preprocess", "--config", str(cfg), "--out", str(ds.parent)],
                           capsys, "no dataset container")


# ---------------------------------------------------------------------------
# train-gen / eval-gen


def test_train_eval_roundtrip_gbm(tmp_path, dataset):
    ds, _ = dataset
    train_out, eval_out = tmp_path / "train", tmp_path / "eval"
    cfg = write_config(tmp_path / "t.json", data={"dataset": str(ds)},
                       generator={"kind": "GBM"})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(train_out)]) == 0
    model = load_checkpoint(train_out / "generator.json")
    assert model.kind == "GBM" and model.normalizer is not None
    assert not (train_out / "losses.csv").exists()   # nothing iterative to log
    assert set(manifest(train_out)["files"]) == {"generator.json"}

    cfg2 = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                        generator={"checkpoint": str(train_out / "generator.json")},
                        eval={"n_samples": 64})
    assert cli.main(["eval-gen", "--config", str(cfg2), "--out", str(eval_out)]) == 0
    header, rows = store.read_csv(eval_out / "report.csv")
    assert header == REPORT_HEADER.split(",")
    assert [r[0] for r in rows] == ["GBM", "GBM"]
    assert sorted(int(r[1]) for r in rows) == [0, 1]
    assert manifest(eval_out)["meta"] == {"kind": "GBM", "n_samples": 64,
                                          "low_confidence": False}
    # fewer than LOW_CONFIDENCE_N paths put the 5%/95% quantiles on extreme
    # order statistics: the manifest flags the report
    cfg3 = write_config(tmp_path / "e10.json", data={"dataset": str(ds)},
                        generator={"checkpoint": str(train_out / "generator.json")},
                        eval={"n_samples": 10})
    assert cli.main(["eval-gen", "--config", str(cfg3), "--out", str(eval_out)]) == 0
    assert manifest(eval_out)["meta"]["low_confidence"] is True


def test_train_gen_writes_loss_curve(tmp_path, dataset):
    ds, _ = dataset
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       generator={"kind": "CEGEN",
                                  "train": {"iterations": 4, "batch_size": 8}})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "losses.csv").read_text().strip().split("\n")
    assert lines[0] == "iteration,gen_loss,disc_loss"
    assert len(lines) == 5 and lines[1].endswith(",")   # no discriminator column
    m = manifest(out)
    assert set(m["files"]) == {"generator.json", "losses.csv"}
    assert m["meta"] == {"kind": "CEGEN", "iterations": 4}


def test_cegen_without_usable_bucket_exits_4_with_one_line(tmp_path, dataset, capsys):
    """With one path per batch no bucket of the transition loss has two real
    and two fake paths, so there is nothing to train on."""
    ds, _ = dataset
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       generator={"kind": "CEGEN",
                                  "train": {"iterations": 4, "batch_size": 1}})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "iteration 0" in err[0] and "transition loss" in err[0]
    assert "batch_size" in err[0] and "bins" in err[0]
    assert json.loads((out / "diagnostic.json").read_text())["error"] == "TrainingError"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("train,needle", [
    ({"sig_depth": 30}, "more than 2000000 coefficients; refusing"),
    ({"sig_depth": 10**6}, "more than 2000000 coefficients; refusing"),
    ({"past_len": 10**19}, f"cannot provide past {10**19} + future 3 pairs"),
], ids=["sig-depth-30", "sig-depth-1e6", "past-len-1e19"])
def test_oversized_siggan_exits_3_within_seconds(tmp_path, dataset, train, needle):
    """A signature too long to fit or a past longer than the windows exits 3
    with one line before anything of that size is allocated or summed.  The
    command runs in a subprocess so that a regression times out instead of
    hanging the suite."""
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       generator={"kind": "SIGGAN", "train": {"iterations": 1, **train}})
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-m", "commodgen.cli", "train-gen", "--config",
                          str(cfg), "--out", str(tmp_path / "run")], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=30)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert needle in out.stderr
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_eval_requires_checkpoint(tmp_path, dataset, capsys):
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)})
    assert cli.main(["eval-gen", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
    cfg2 = write_config(tmp_path / "c2.json", data={"dataset": str(ds)},
                        generator={"checkpoint": str(tmp_path / "gone.json")})
    assert cli.main(["eval-gen", "--config", str(cfg2),
                     "--out", str(tmp_path / "run2")]) == 3
    assert "gone.json" in capsys.readouterr().err


def test_eval_rejects_window_mismatch(tmp_path, dataset):
    ds, csv = dataset
    train_out = tmp_path / "train"
    cfg = write_config(tmp_path / "t.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(train_out)]) == 0
    other = tmp_path / "pre10"
    cfg_pre = write_config(tmp_path / "p10.json",
                           data={"source": str(csv), "window": 10})
    assert cli.main(["preprocess", "--config", str(cfg_pre), "--out", str(other)]) == 0
    cfg_eval = write_config(tmp_path / "e.json",
                            data={"dataset": str(other / "dataset.json")},
                            generator={"checkpoint": str(train_out / "generator.json")})
    assert cli.main(["eval-gen", "--config", str(cfg_eval),
                     "--out", str(tmp_path / "run")]) == 3


@pytest.mark.parametrize("command", ["eval-gen", "hedge"])
def test_columns_in_another_order_exit_3(tmp_path, dataset, capsys, command):
    """The same prices with their columns swapped would score and hedge each
    commodity against the checkpoint's paths of another."""
    ds, csv = dataset
    train_out = tmp_path / "train"
    cfg = write_config(tmp_path / "t.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(train_out)]) == 0
    header, rows = store.read_csv(csv)
    swapped = tmp_path / "swapped.csv"
    store.write_csv(swapped, [header[0], header[2], header[1]],
                    [[r[0], r[2], r[1]] for r in rows])
    cfg = write_config(tmp_path / "s.json", data={"source": str(swapped), "window": 12},
                       generator={"checkpoint": str(train_out / "generator.json")},
                       hedge={"underlying": "c0", "train": {"iterations": 2, "batch_size": 8}})
    assert_one_line_exit_3([command, "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, "dataset windows are 12 steps of ['c1', 'c0'] but the "
                                   "checkpoint generates 12 steps of ['c0', 'c1']")


def divergent_config(tmp_path, scale=1.0):
    """A train-gen config whose training aborts: raw-scale reconstruction on
    ~1e4 levels blows past the divergence limit.  At `scale` 1e200 the
    squared reconstruction error overflows instead."""
    csv = tmp_path / "huge.csv"
    days = np.busday_offset("2021-01-04", np.arange(40))
    vals = (1e4 + np.arange(40)[:, None] * 10.0 + np.array([0.0, 7.0])) * scale
    lines = ["date,a,b"] + [f"{day},{float(v[0])!r},{float(v[1])!r}"
                            for day, v in zip(days, vals)]
    csv.write_text("\n".join(lines) + "\n")
    return write_config(tmp_path / "diverge.json",
                        data={"source": str(csv), "window": 10},
                        generator={"kind": "TSGAN", "normalize": False,
                                   "train": {"iterations": 5, "batch_size": 8,
                                             "pretrain_iterations": 2}})


def test_divergent_training_exits_4_with_diagnostic(tmp_path):
    out = tmp_path / "run"
    cfg = divergent_config(tmp_path)
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(out)]) == 4
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["error"] == "TrainingError" and "diverged" in diag["message"]
    assert not (out / "manifest.json").exists()   # incomplete run leaves no marker


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_training_exits_4_with_one_line(tmp_path, capsys):
    """numpy's overflow warning stays out of the CLI's output, even when the
    caller has turned warnings into errors."""
    cfg = divergent_config(tmp_path, scale=1e200)
    code = cli.main(["train-gen", "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == ["error: non-finite result in op 'mul'"]


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, dataset):
    ds, _ = dataset
    out = tmp_path / "run"
    good = write_config(tmp_path / "g.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(good), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    bad = divergent_config(tmp_path)
    assert cli.main(["train-gen", "--config", str(bad), "--out", str(out)]) == 4
    assert {p.name for p in out.iterdir()} == {"diagnostic.json"}   # no stale checkpoint


def test_rerun_removes_outputs_it_no_longer_writes(tmp_path, dataset):
    ds, _ = dataset
    out = tmp_path / "run"
    cegen = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                         generator={"kind": "CEGEN",
                                    "train": {"iterations": 2, "batch_size": 8}})
    assert cli.main(["train-gen", "--config", str(cegen), "--out", str(out)]) == 0
    assert (out / "losses.csv").exists()
    gbm = write_config(tmp_path / "g.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(gbm), "--out", str(out)]) == 0
    assert set(manifest(out)["files"]) == {"generator.json"}
    assert {p.name for p in out.iterdir()} == {"generator.json", "manifest.json"}


def test_commands_share_an_output_directory(tmp_path, dataset):
    """eval-gen and hedge read the generator.json train-gen left in their
    own output directory, and keep it."""
    ds, _ = dataset
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(out / "generator.json")},
                       eval={"n_samples": 32},
                       hedge={"underlying": "c0",
                              "train": {"iterations": 2, "batch_size": 8}})
    plain = write_config(tmp_path / "t.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(plain), "--out", str(out)]) == 0
    for command in ("eval-gen", "hedge"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert set(manifest(out)["files"]) == set(cli.OUTPUTS["hedge"])
    assert {p.name for p in out.iterdir()} == {"generator.json", "report.csv",
                                               "manifest.json", *cli.OUTPUTS["hedge"]}


def test_manifests_record_blas_and_thread_settings(tmp_path, dataset, monkeypatch):
    ds, _ = dataset
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       hedge={"underlying": "c0", "train": {"iterations": 2, "batch_size": 8}})
    for command in ("train-gen", "hedge"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        blas = manifest(out)["versions"]["blas"]
        assert set(blas) == {"name", "version", "threads_env", "cpu_affinity"}
        assert set(blas["threads_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        assert blas["threads_env"]["OMP_NUM_THREADS"] == "1"
        assert blas["cpu_affinity"] >= 1


def test_successful_rerun_clears_stale_diagnostic(tmp_path, dataset):
    ds, _ = dataset
    out = tmp_path / "run"
    bad = divergent_config(tmp_path)
    assert cli.main(["train-gen", "--config", str(bad), "--out", str(out)]) == 4
    assert (out / "diagnostic.json").exists()
    good = write_config(tmp_path / "g.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(good), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert not (out / "diagnostic.json").exists()


# ---------------------------------------------------------------------------
# malformed containers


def _truncate(path):
    path.write_text(path.read_text()[:200])


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


def _edit(**changes):
    def apply(path):
        raw = store.read_json(path)
        for key, value in changes.items():
            if value is None:
                del raw[key]
            else:
                raw[key] = value
        store.write_json(path, raw)
    return apply


def _edit_in(key, **changes):
    """Change fields of a container's `key` object, writing NaN as json.dumps does."""
    def apply(path):
        raw = json.loads(path.read_text())
        raw[key].update(changes)
        path.write_text(json.dumps(raw))
    return apply


@pytest.fixture
def gbm_runs(tmp_path, dataset):
    """A trained GBM checkpoint and a hedger container, both from `dataset`."""
    ds, _ = dataset
    train_out, hedge_out = tmp_path / "train", tmp_path / "hedge"
    cfg = write_config(tmp_path / "t.json", data={"dataset": str(ds)},
                       hedge={"underlying": "c0",
                              "train": {"iterations": 2, "batch_size": 8}})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(train_out)]) == 0
    assert cli.main(["hedge", "--config", str(cfg), "--out", str(hedge_out)]) == 0
    return ds, train_out / "generator.json", hedge_out / "hedger.json"


def assert_one_line_exit_3(argv, capsys, needle):
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


def _edit_params(changes):
    """Drop (None) or replace named parameters of a checkpoint."""
    def apply(path):
        raw = store.read_json(path)
        for name, value in changes.items():
            if value is None:
                del raw["params"][name]
            else:
                raw["params"][name] = value
        store.write_json(path, raw)
    return apply


def train_checkpoint(tmp_path, ds, kind: str):
    """A generator checkpoint of `kind`, briefly trained on the dataset `ds`."""
    out = tmp_path / f"train-{kind}"
    cfg = write_config(tmp_path / f"{kind}.json", data={"dataset": str(ds)},
                       generator={"kind": kind, "train": {"iterations": 1, "batch_size": 32,
                                                          "hidden": 4, "bins": 1}})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "generator.json"


@pytest.mark.parametrize("kind,corrupt,needle", [
    ("GBM", _truncate, "not valid JSON"),
    ("GBM", _replace_with_directory, "Is a directory"),
    ("GBM", _edit(dim=None), "lacks key 'dim'"),
    ("GBM", _edit(format="commodgen-dataset"), "not a generator checkpoint"),
    ("GBM", _edit(version=7), "unsupported generator checkpoint version 7"),
    ("GBM", _edit(kind="VAE"), "kind 'VAE'"),
    ("GBM", _edit(start_levels={"shape": [2]}), "lacks key 'data'"),
    ("GBM", _edit(cfg={"lr": "fast"}), "malformed generator checkpoint"),
    ("GBM", _edit_in("cfg", lr=NAN), "not valid JSON (NaN is not a JSON number)"),
    ("GBM", _edit_in("cfg", iterations=2.5), "malformed generator checkpoint"),
    ("CEGEN", _edit_params({"drift.b0": None}), "CEGEN checkpoint lacks parameter 'drift.b0'"),
    ("CEGEN", _edit_params({"drift.w0": None}), "CEGEN checkpoint lacks parameter 'drift.w0'"),
    ("CEGEN", _edit_params({"drift.w0": {"shape": [2, 2], "data": [0.0] * 4}}),
     "parameter 'drift.w0' has shape (2, 2), but a CEGEN of this cfg and dim 2 registers (3, 4)"),
    ("CEGEN", _edit_in("cfg", layers=1), "parameter 'diff.b2' is not registered by a CEGEN"),
    ("CEGEN", _edit(cegen_scale={"shape": [3], "data": [1.0] * 3}),
     "CEGEN checkpoint needs a 'cegen_scale' block of shape (2,)"),
    ("CEGEN", _edit(dt=-1), "dt must be a finite number > 0, got -1"),
    ("CEGEN", _edit(dt=0), "dt must be a finite number > 0, got 0"),
    ("CEGEN", _edit(seq_len=2.7), "seq_len must be an integer >= 2, got 2.7"),
    ("CEGEN", _edit(dim=4.0), "dim must be an integer >= 1, got 4.0"),
    ("GBM", _edit(trained_iterations=-3), "trained_iterations must be an integer >= 0, got -3"),
    ("GBM", _edit(labels="c0"), "labels must be a list of strings, got 'c0'"),
    ("CEGEN", _edit(cegen_scale={"shape": [2], "data": [-1.0, 1.0]}),
     "cegen_scale must be an array > 0 or null"),
    ("CEGEN", _edit(cegen_scale={"shape": [2], "data": [1.0, 0.0]}),
     "cegen_scale must be an array > 0 or null"),
    ("GBM", _edit(start_levels={"shape": [2], "data": [1.0, 1.0], "extra": 1}),
     "an array block holds only 'shape' and 'data', got ['data', 'extra', 'shape']"),
    ("GBM", _edit_in("normalizer", labels="c0"),
     "normalizer labels must be a list of strings, got 'c0'"),
    ("GBM", _edit_in("gbm", dt=True), "gbm dt must be a finite number > 0, got True"),
], ids=["truncated", "directory", "no-dim", "dataset-format", "version", "unknown-kind",
        "no-data-block", "ill-typed-cfg", "nan-cfg", "float-iterations-cfg",
        "no-bias", "no-weight", "weight-shape", "cfg-layers", "cegen-scale",
        "negative-dt", "zero-dt", "float-seq-len", "float-dim", "negative-iterations",
        "string-labels", "negative-cegen-scale", "zero-cegen-scale", "extra-block-key",
        "string-normalizer-labels", "true-gbm-dt"])
@pytest.mark.parametrize("command", ["eval-gen", "hedge"])
def test_malformed_checkpoint_exits_3(tmp_path, dataset, capsys, kind, corrupt, needle,
                                      command):
    ds, _ = dataset
    checkpoint = train_checkpoint(tmp_path, ds, kind)
    corrupt(checkpoint)
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(checkpoint)},
                       hedge={"underlying": "c0"})
    assert_one_line_exit_3([command, "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, needle)


# a fixed set of drawn cases, the same on every run, with nothing stored
EDITED_LEAVES = settings(derandomize=True, database=None, deadline=None, max_examples=120)
CONTAINER_KEYS = ("kind", "cfg", "cfg_hash", "seq_len", "dim", "labels", "dt", "start_levels",
                  "normalizer", "params", "gbm", "sig_pool", "cegen_scale",
                  "trained_iterations", "values", "format", "version")
EXTRA_KEY = "<an extra key in the leaf's innermost object>"
# small values only: a drawn size never allocates much
AWKWARD = st.sampled_from([-1, -3, 0, 2.5, -2.5, "x", True, [1.0], EXTRA_KEY])


def _leaves(node, path=()):
    """Paths to every leaf of a JSON tree and to every list, whose first
    entry stands for the rest."""
    if isinstance(node, dict):
        return [leaf for key in sorted(node) for leaf in _leaves(node[key], path + (key,))]
    if isinstance(node, list) and node:
        return [path] + _leaves(node[0], path + (0,))
    return [path]


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """The JSON of a dataset container and of the GBM, CEGEN and SIGGAN
    checkpoints trained on it, by name ("dataset" or the kind)."""
    tmp = tmp_path_factory.mktemp("containers")
    ds, _ = preprocess(tmp)
    paths = {"dataset": ds, **{kind: train_checkpoint(tmp, ds, kind)
                               for kind in ("GBM", "CEGEN", "SIGGAN")}}
    return {name: store.read_json(path) for name, path in paths.items()}


@EDITED_LEAVES
@given(target=st.sampled_from(["dataset", "GBM", "CEGEN", "SIGGAN"]),
       key=st.sampled_from(CONTAINER_KEYS), pick=st.integers(0, 999), value=AWKWARD)
@example(target="CEGEN", key="dt", pick=0, value=-1)
def test_one_edited_leaf_exits_with_one_error_line(containers, target, key, pick, value):
    """`eval-gen` on a container with one leaf set to an awkward value exits
    0, 2, 3 or 4, and on failure prints one `error:` line and no manifest.
    `key` names the top-level field holding the leaf and `pick` the leaf
    within it; an edited dataset is read with the unedited GBM checkpoint."""
    raw = copy.deepcopy(containers[target])
    assume(key in raw)
    leaves = _leaves(raw[key], (key,))
    path = leaves[pick % len(leaves)]
    nodes = [raw]
    for step in path[:-1]:
        nodes.append(nodes[-1][step])
    if value == EXTRA_KEY:
        [node for node in nodes if isinstance(node, dict)][-1]["extra"] = 1
    else:
        nodes[-1][path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        ds, checkpoint, out = tmp / "dataset.json", tmp / "generator.json", tmp / "run"
        store.write_json(ds, raw if target == "dataset" else containers["dataset"])
        store.write_json(checkpoint, containers["GBM"] if target == "dataset" else raw)
        cfg = write_config(tmp / "e.json", data={"dataset": str(ds)},
                           generator={"checkpoint": str(checkpoint)}, eval={"n_samples": 64})
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval-gen", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
                err.getvalue()
            assert not (out / "manifest.json").exists()


def test_checkpoint_dim_is_checked_before_any_net_is_built(tmp_path, dataset):
    """A CEGEN checkpoint edited to `dim: 10**6` is refused on its two labels
    (exit 3) before its diffusion net would draw hidden x dim² weights, a
    draw that fails (exit 4) under the 512 MB address-space limit the run
    sets on itself."""
    ds, _ = dataset
    checkpoint = train_checkpoint(tmp_path, ds, "CEGEN")
    _edit(dim=10**6)(checkpoint)
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(checkpoint)})
    code = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from commodgen import cli
        sys.exit(cli.main(["eval-gen", "--config", {str(cfg)!r},
                           "--out", {str(tmp_path / "run")!r}]))
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert "2 labels and start_levels of shape (2,) for 1000000 dimensions" in out.stderr


def test_hedge_on_sampled_paths_starting_at_or_below_zero_exits_3(tmp_path, dataset,
                                                                   capsys):
    # a head bias of -1000 makes every sampled path start far below zero
    ds, _ = dataset
    checkpoint = train_checkpoint(tmp_path, ds, "COTGAN")
    _edit_params({"gen.out.b1": {"shape": [2], "data": [-1e3] * 2}})(checkpoint)
    cfg = write_config(tmp_path / "h.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(checkpoint)},
                       hedge={"underlying": "c0"})
    assert_one_line_exit_3(["hedge", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, "but 128 of 128 paths start at or below zero")


def test_hedger_container_as_generator_checkpoint_exits_3(tmp_path, gbm_runs, capsys):
    ds, _, hedger = gbm_runs
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(hedger)})
    assert_one_line_exit_3(["eval-gen", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, "kind 'hedger' is not a generator kind")


@pytest.mark.parametrize("edit,needle", [
    (_edit(labels="c0"), "malformed dataset container (labels must be a list of strings"),
    (_edit(dt="0.00397"), "malformed dataset container (dt must be a finite number > 0"),
    (_edit(dt=True), "malformed dataset container (dt must be a finite number > 0, got True"),
    (_edit_in("values", extra=1), "an array block holds only 'shape' and 'data'"),
], ids=["string-labels", "string-dt", "true-dt", "extra-block-key"])
def test_ill_typed_dataset_field_exits_3(tmp_path, dataset, capsys, edit, needle):
    ds, _ = dataset
    edit(ds)
    cfg = write_config(tmp_path / "t.json", data={"dataset": str(ds)})
    assert_one_line_exit_3(["train-gen", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, f"{ds}: {needle}")


def test_malformed_dataset_exits_3(tmp_path, gbm_runs, capsys):
    ds, checkpoint, _ = gbm_runs
    _truncate(ds)
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(checkpoint)})
    assert_one_line_exit_3(["eval-gen", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, "dataset container is not valid JSON")


@pytest.mark.parametrize("missing,needle", [(0, "no dataset container at"),
                                            (1, "no generator checkpoint at")],
                         ids=["dataset", "checkpoint"])
def test_missing_container_exits_3(tmp_path, gbm_runs, capsys, missing, needle):
    paths = gbm_runs[:2]
    paths[missing].unlink()
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(paths[0])},
                       generator={"checkpoint": str(paths[1])})
    assert_one_line_exit_3(["eval-gen", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, f"{needle} {paths[missing]}")


# ---------------------------------------------------------------------------
# hedge


def test_hedge_gbm_on_the_fly(tmp_path, dataset):
    ds, _ = dataset
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       hedge={"underlying": "c0",
                              "train": {"iterations": 20, "batch_size": 16}})
    assert cli.main(["hedge", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "hedge_report.csv").read_text().strip().split("\n")
    assert lines[0] == "model,case,init_risk,repl_loss"
    model, case, init_risk, repl = lines[1].split(",")
    assert model == "GBM" and case == "call"
    assert float(init_risk) > 0 and float(repl) >= 0
    spec = store.read_json(out / "hedger.json")["spec"]
    assert spec["payoff"]["kind"] == "call" and spec["tradable"] == [0]
    m = manifest(out)
    expected = {"hedger.json", "hedge_report.csv", "hedge_export.csv",
                "hedge_losses.csv", "hedge_test_losses.csv"}
    assert set(m["files"]) == expected
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert on_disk == expected


def test_hedge_spread_uses_checkpoint(tmp_path, dataset):
    ds, _ = dataset
    train_out, out = tmp_path / "train", tmp_path / "run"
    cfg = write_config(tmp_path / "t.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(cfg), "--out", str(train_out)]) == 0
    cfg2 = write_config(tmp_path / "h.json", data={"dataset": str(ds)},
                        generator={"checkpoint": str(train_out / "generator.json")},
                        hedge={"case": "spread", "underlying": ["c1", "c0"],
                               "strike": 0.5,
                               "train": {"iterations": 10, "batch_size": 16}})
    assert cli.main(["hedge", "--config", str(cfg2), "--out", str(out)]) == 0
    spec = store.read_json(out / "hedger.json")["spec"]
    assert spec["payoff"] == {"kind": "spread_call", "strike": 0.5, "dims": [1, 0]}
    assert spec["tradable"] == [1, 0]
    row = (out / "hedge_report.csv").read_text().strip().split("\n")[1]
    assert row.startswith("GBM,spread,")


@pytest.mark.parametrize("hedge,needle", [
    ({"underlying": "gas"}, "'gas' not in dataset columns"),
    ({"underlying": "c0", "tradable": []}, "hedge.tradable must name at least one label"),
    ({"underlying": "c0", "tradable": ["c1", "c1"]}, "hedge.tradable names label 'c1' twice"),
    ({"underlying": []}, "hedge.underlying must name at least one label"),
    ({"case": "spread", "underlying": ["c0", "c0"]}, "hedge.underlying names label 'c0' twice"),
], ids=["unknown-underlying", "empty-tradable", "repeated-tradable", "empty-underlying",
        "repeated-underlying"])
def test_hedge_bad_labels_exit_2(tmp_path, dataset, capsys, hedge, needle):
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       hedge={**hedge, "train": {"iterations": 2, "batch_size": 8}})
    assert cli.main(["hedge", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
    assert needle in capsys.readouterr().err


def test_hedge_nongbm_needs_checkpoint(tmp_path, dataset, capsys):
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       generator={"kind": "CEGEN"},
                       hedge={"underlying": "c0"})
    assert cli.main(["hedge", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
    assert "generator.checkpoint" in capsys.readouterr().err


def test_hedge_out_of_memory_exits_4(tmp_path, dataset, capsys):
    """A batch far beyond the address space fails its first allocation at
    once, whatever the overcommit setting, and never touches real memory."""
    ds, _ = dataset
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       hedge={"underlying": "c0", "train": {"batch_size": 10**12}})
    assert cli.main(["hedge", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,sections", [
    pytest.param("eval-gen", {"eval": {"n_samples": 2**62}}, id="eval.n_samples"),
    pytest.param("hedge", {"hedge": {"underlying": "c0", "train": {"batch_size": 2**62}}},
                 id="hedge.train.batch_size"),
    pytest.param("hedge", {"hedge": {"underlying": "c0", "train": {"iterations": 10**19}}},
                 id="hedge.train.iterations"),
    pytest.param("train-gen", {"generator": {"kind": "CEGEN", "train": {"bins": 10**19}}},
                 id="CEGEN.bins"),
    pytest.param("train-gen", {"generator": {"kind": "SIGGAN", "train": {"hidden": 10**19}}},
                 id="SIGGAN.hidden"),
    pytest.param("train-gen", {"generator": {"kind": "SIGGAN", "train": {"noise_dim": 2**62}}},
                 id="SIGGAN.noise_dim"),
])
def test_unallocatable_size_exits_4(tmp_path, dataset, capsys, command, sections):
    """A size whose array's byte count overflows numpy's index type cannot
    be allocated at all: numpy raises ValueError before asking for memory,
    and the command ends as out of memory does, with one line and no
    manifest."""
    ds, _ = dataset
    cfg = {"data": {"dataset": str(ds)}, **sections}
    if command == "eval-gen":
        gbm = tmp_path / "gbm"
        assert cli.main(["train-gen", "--config", str(write_config(tmp_path / "g.json",
                                                                   data=cfg["data"])),
                         "--out", str(gbm)]) == 0
        cfg["generator"] = {"checkpoint": str(gbm / "generator.json")}
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main([command, "--config", str(write_config(tmp_path / "c.json", **cfg)),
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate: ") and err.count("\n") == 1, err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("generator,message,exit_at_0", [
    pytest.param({"kind": "CEGEN", "train": {"bins": 10**5}},
                 r"generator\.train\.bins = 100000 needs at least 26399912 bytes", 0,
                 id="CEGEN.bins"),
    pytest.param({"kind": "COTGAN"},
                 r"generator\.train\.batch_size = 128 and generator\.train\."
                 r"sinkhorn_iterations = 30 need at least 3528000 bytes", 0,
                 id="COTGAN.sinkhorn_tape"),
    pytest.param({"kind": "SIGGAN", "train": {"sig_depth": 5}},
                 r"generator\.train\.sig_depth = 5 needs at least 2484888 bytes", 4,
                 id="SIGGAN.regression"),
])
def test_train_arrays_beyond_the_memory_budget_exit_4(tmp_path, dataset, capsys, monkeypatch,
                                                      generator, message, exit_at_0):
    """Training refuses, before its loop, a config whose largest arrays
    alone would exceed the memory budget (here a soft address-space limit
    of 1 MB): CEGEN's transition-loss buckets (bins 10**5 over 11 steps),
    COTGAN's Sinkhorn tape (30 iterations over the 35 windows) and SIGGAN's
    signature regression (depth 5 over the windows' 245 past-future pairs).
    One line naming the keys and the bytes, exit 4, no manifest.  At 0
    iterations neither of the first two arrays is allocated and the run is
    not refused, but the regression is fitted and still refused."""
    import resource
    monkeypatch.setattr(resource, "getrlimit", lambda which: (10**6, resource.RLIM_INFINITY))
    ds, _ = dataset

    def train_gen(iterations):
        train = {**generator.get("train", {}), "iterations": iterations}
        cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                           generator={**generator, "train": train})
        capsys.readouterr()
        return cli.main(["train-gen", "--config", str(cfg), "--out", str(tmp_path / "run")])

    assert train_gen(1) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: cannot allocate: {message} .* 1000000 bytes .*\n", err), err
    assert not (tmp_path / "run" / "manifest.json").exists()
    assert train_gen(0) == exit_at_0


def test_hedge_rebase_pins_export_starts(tmp_path, dataset):
    ds, _ = dataset
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       hedge={"underlying": "c0", "strike": 5.0,
                              "train": {"iterations": 5, "batch_size": 8}})
    assert cli.main(["hedge", "--config", str(cfg), "--out", str(out)]) == 0
    data = read_dataset(ds)
    n = data.values.shape[0]
    export = (out / "hedge_export.csv").read_text().strip().split("\n")
    assert len(export) == n + 1


# ---------------------------------------------------------------------------
# report consolidation


METRIC_HEADER = "model,dim,p05,avg,p95,qvar,corr"


def fake_run(tmp_path, name, rows, header=METRIC_HEADER, filename="report.csv"):
    run = tmp_path / name
    run.mkdir()
    (run / filename).write_text("\n".join([header] + rows) + "\n")
    return run


def test_report_marks_per_group_minima(tmp_path, capsys):
    a = fake_run(tmp_path, "a", ["GBM,0,3.00e-01,2.00e-01,1.00e-01,5.00e-02,1.00e-03",
                                 "GBM,1,4.00e-01,1.00e-01,2.00e-01,6.00e-02,1.00e-03"])
    b = fake_run(tmp_path, "b", ["CEGEN,0,1.00e-01,3.00e-01,1.00e-01,9.00e-02,2.00e-03",
                                 "CEGEN,1,5.00e-01,5.00e-02,3.00e-01,2.00e-02,2.00e-03"])
    out = tmp_path / "cmp"
    assert cli.main(["report", str(a), str(b), "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == METRIC_HEADER
    table = {(c[0], c[1]): c for c in (line.split(",") for line in lines[1:])}
    assert table[("CEGEN", "0")][2] == "1.00e-01*"      # p05 min, dim 0
    assert table[("GBM", "0")][3] == "2.00e-01*"        # avg min, dim 0
    assert table[("GBM", "0")][4] == "1.00e-01*"        # p95 tie: both marked
    assert table[("CEGEN", "0")][4] == "1.00e-01*"
    assert table[("GBM", "0")][2] == "3.00e-01"         # losers unmarked
    assert table[("GBM", "1")][6] == "1.00e-03*"
    assert set(manifest(out)["files"]) == {"comparison.csv"}


def test_report_single_run_passthrough(tmp_path):
    rows = ["GBM,0,1.00e-01,2.00e-01,3.00e-01,4.00e-02,5.00e-03"]
    a = fake_run(tmp_path, "a", rows)
    out = tmp_path / "cmp"
    assert cli.main(["report", str(a), "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[1:] == rows                            # no marks in a 1-row group


def test_report_schema_mismatch_names_files(tmp_path, capsys):
    a = fake_run(tmp_path, "a", ["GBM,0,1.0,2.0,3.0,4.0,5.0"])
    b = fake_run(tmp_path, "b", ["GBM,call,1.0,2.0"], header=cli.HEDGE_REPORT_HEADER)
    assert cli.main(["report", str(a), str(b), "--out", str(tmp_path / "cmp")]) == 3
    err = capsys.readouterr().err
    assert "schema mismatch" in err and str(b / "report.csv") in err


def test_report_rejects_non_numeric_cells(tmp_path, capsys):
    a = fake_run(tmp_path, "a", ["GBM,0,1.0,2.0,oops,4.0,5.0"])
    assert cli.main(["report", str(a), "--out", str(tmp_path / "cmp")]) == 3
    assert "non-numeric" in capsys.readouterr().err


def test_report_missing_report_file(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["report", str(empty), "--out", str(tmp_path / "cmp")]) == 3
    assert "no report.csv" in capsys.readouterr().err


def test_failed_report_clears_previous_comparison(tmp_path):
    a = fake_run(tmp_path, "a", ["GBM,0,1.0,2.0,3.0,4.0,5.0"])
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "cmp"
    assert cli.main(["report", str(a), "--out", str(out)]) == 0
    assert cli.main(["report", str(empty), "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["preprocess", "report"])
def test_non_utf8_csv_exits_3(tmp_path, capsys, command):
    if command == "preprocess":
        csv = write_csv(tmp_path / "p.csv")
        csv.write_bytes(csv.read_bytes() + b"\xff\xfe,1.0,2.0\n")
        cfg = write_config(tmp_path / "c.json", data={"source": str(csv)})
        argv = ["preprocess", "--config", str(cfg)]
    else:
        run = tmp_path / "a"
        run.mkdir()
        (run / "report.csv").write_bytes(METRIC_HEADER.encode() + b"\nGBM\xff,0,1,2,3,4,5\n")
        argv = ["report", str(run)]
    assert_one_line_exit_3(argv + ["--out", str(tmp_path / "out")], capsys, "not UTF-8")


def test_report_joins_hedge_reports(tmp_path):
    header = "model,case,init_risk,repl_loss"
    a = fake_run(tmp_path, "a", ["GBM,call,2.00e+00,5.00e-02"],
                 header=header, filename="hedge_report.csv")
    b = fake_run(tmp_path, "b", ["CEGEN,call,2.00e+00,3.00e-02"],
                 header=header, filename="hedge_report.csv")
    out = tmp_path / "cmp"
    assert cli.main(["report", str(a), str(b), "--out", str(out)]) == 0
    lines = (out / "hedge_comparison.csv").read_text().strip().split("\n")
    cells = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert cells["CEGEN"][3] == "3.00e-02*"
    assert cells["GBM"][3] == "5.00e-02"
    assert cells["GBM"][2] == "2.00e+00*" and cells["CEGEN"][2] == "2.00e+00*"


def test_report_over_the_readme_flow(tmp_path, dataset):
    """Run directories that went through train-gen, eval-gen and hedge hold
    both report kinds; each joins into its own comparison."""
    ds, _ = dataset
    runs = []
    for kind in ("CEGEN", "GBM"):
        out = tmp_path / kind.lower()
        cfg = write_config(tmp_path / f"{kind}.json", data={"dataset": str(ds)},
                           generator={"kind": kind,
                                      "checkpoint": str(out / "generator.json"),
                                      "train": {"iterations": 2, "batch_size": 8}},
                           eval={"n_samples": 32},
                           hedge={"underlying": "c0",
                                  "train": {"iterations": 2, "batch_size": 8}})
        for command in ("train-gen", "eval-gen", "hedge"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        runs.append(str(out))
    out = tmp_path / "summary"
    assert cli.main(["report", *runs, "--out", str(out)]) == 0
    assert set(manifest(out)["files"]) == set(cli.OUTPUTS["report"])
    for name, header in (("comparison.csv", REPORT_HEADER),
                         ("hedge_comparison.csv", cli.HEDGE_REPORT_HEADER)):
        lines = (out / name).read_text().strip().split("\n")
        assert lines[0] == header
        assert {line.split(",")[0] for line in lines[1:]} == {"CEGEN", "GBM"}


# ---------------------------------------------------------------------------
# bundled dataset


def test_bundled_preprocess_shape(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["preprocess", "--out", str(out)]) == 0
    assert manifest(out)["meta"]["shape"] == [271, 30, 4]
    assert manifest(out)["meta"]["labels"] == ["elec", "gas", "oil", "coal"]


def test_seed_flag_changes_hash_and_samples(tmp_path, dataset):
    ds, _ = dataset
    outs = {}
    for seed in ("0", "1"):
        out = tmp_path / f"run{seed}"
        cfg = write_config(tmp_path / f"c{seed}.json", data={"dataset": str(ds)})
        assert cli.main(["train-gen", "--config", str(cfg), "--out", str(out),
                         "--seed", seed]) == 0
        outs[seed] = manifest(out)
    assert outs["0"]["config_hash"] != outs["1"]["config_hash"]


# ---------------------------------------------------------------------------
# fuzzed configuration


def _config_leaves(cfg, prefix=""):
    for key, value in cfg.items():
        if key == "train":
            yield from (f"{prefix}train.{name}" for name in TrainConfig.__dataclass_fields__)
        elif isinstance(value, dict):
            yield from _config_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_fuzzed_config_values_exit_cleanly(tmp_path, dataset, capsys, monkeypatch):
    """Every leaf of DEFAULT_CONFIG and every TrainConfig field under both
    `train` blocks (`generator.train` for each kind), set to each awkward
    value in turn: the command exits 0, 2, 3 or 4, and a failure prints one
    `error:` line and leaves no manifest.  No value sizes an array beyond a
    few thousand elements.  At 1, `past_len` exits 2 naming itself (a past
    of one point has no signature) and `future_len` trains."""
    ds, csv = dataset
    checkpoint = tmp_path / "gbm"
    base_cfg = write_config(tmp_path / "gbm.json", data={"dataset": str(ds)})
    assert cli.main(["train-gen", "--config", str(base_cfg), "--out", str(checkpoint)]) == 0
    rng = random.Random(7)

    def word():
        return "".join(rng.choices("abcxyz", k=4))

    at_one = {"generator.train.past_len": 2, "generator.train.future_len": 0}
    failures, codes = [], []
    for key in _config_leaves(DEFAULT_CONFIG):
        command = ("train-gen" if key.startswith("generator.train.") else
                   "eval-gen" if key.startswith("eval.") else "hedge")
        for kind in KINDS if command == "train-gen" else ["GBM"]:
            for value in [word(), [word()], {word(): 1}, None, True, 2.5, NAN, INF, -INF, -1, 0, 1]:
                cfg = {"out": "run",
                       "data": {"dataset": str(ds), "source": str(csv), "window": 12},
                       "generator": {"kind": kind, "train": {
                           "iterations": 1, "batch_size": 8, "hidden": 4, "latent_dim": 2,
                           "pretrain_iterations": 1, "sinkhorn_iterations": 2, "sig_depth": 2}},
                       "hedge": {"underlying": "c0", "train": {"iterations": 1, "batch_size": 8}}}
                if command == "eval-gen":
                    cfg["generator"]["checkpoint"] = str(checkpoint / "generator.json")
                *sections, leaf = key.split(".")
                node = cfg
                for section in sections:
                    node = node.setdefault(section, {})
                node[leaf] = value
                case = tmp_path / f"case-{len(codes)}"
                case.mkdir()
                monkeypatch.chdir(case)
                (case / "c.json").write_text(json.dumps(cfg))
                code = cli.main([command, "--config", "c.json"])
                err = capsys.readouterr().err
                codes.append(code)
                if code not in (0, 2, 3, 4) or code and (
                        not err.startswith("error: ") or err.count("\n") != 1
                        or list(case.rglob("manifest.json"))) or (
                        value == 1 and type(value) is int and key in at_one
                        and (code != at_one[key] or code and leaf not in err)):
                    failures.append(f"{key}={value!r} ({command}, {kind}): exit {code}, {err!r}")
    assert not failures, "\n".join(failures)
    assert {0, 2, 3} <= set(codes)
