import json

import numpy as np
import pytest

from commodgen import cli, store
from commodgen.cli import (ConfigError, DEFAULT_CONFIG, build_train_config,
                           config_hash, consolidate, merge_config)
from commodgen.dataio import load_csv, read_dataset, windowize
from commodgen.generators import load_checkpoint
from commodgen.hedging import load_hedger
from commodgen.metrics import REPORT_HEADER
from commodgen.rng import rng_for
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


@pytest.fixture
def dataset(tmp_path):
    """A small preprocessed dataset container plus its source CSV."""
    csv = write_csv(tmp_path / "prices.csv")
    out = tmp_path / "pre"
    cfg = write_config(tmp_path / "pre.json",
                       data={"source": str(csv), "window": 12})
    assert cli.main(["preprocess", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "dataset.json", csv


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


def test_train_block_accepts_any_trainconfig_field():
    merged = merge_config(DEFAULT_CONFIG, {"generator": {"train": {"iterations": 3}}})
    tc = build_train_config(merged["generator"]["train"], seed=9)
    assert tc.iterations == 3 and tc.seed == 9
    with pytest.raises(ConfigError, match="unknown training option.*warmup"):
        build_train_config({"warmup": 5}, seed=0)
    with pytest.raises(ConfigError, match="bad training option"):
        build_train_config({"lr": -1.0}, seed=0)


@pytest.mark.parametrize("patch", [
    {"seed": -1},
    {"data": {"window": 1}},
    {"data": {"stride": 0}},
    {"data": {"quantile_level": 0.0}},
    {"eval": {"n_samples": 1}},
    {"hedge": {"case": "digital"}},
    {"hedge": {"maturity": -0.5}},
    {"hedge": {"strike": float("nan")}},
])
def test_validate_rejects_bad_values(patch):
    cfg = merge_config(DEFAULT_CONFIG, patch)
    with pytest.raises(ConfigError):
        cli.validate_config(cfg)


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


def divergent_config(tmp_path):
    """A train-gen config whose training aborts: raw-scale reconstruction on
    ~1e4 levels blows past the divergence limit."""
    csv = tmp_path / "huge.csv"
    days = np.busday_offset("2021-01-04", np.arange(40))
    vals = 1e4 + np.arange(40)[:, None] * 10.0 + np.array([0.0, 7.0])
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


@pytest.mark.parametrize("corrupt,needle", [
    (_truncate, "not valid JSON"),
    (_replace_with_directory, "Is a directory"),
    (_edit(dim=None), "lacks key 'dim'"),
    (_edit(format="commodgen-dataset"), "not a generator checkpoint"),
    (_edit(version=7), "unsupported generator checkpoint version 7"),
    (_edit(kind="VAE"), "kind 'VAE'"),
    (_edit(start_levels={"shape": [2]}), "lacks key 'data'"),
    (_edit(cfg={"lr": "fast"}), "malformed generator checkpoint"),
], ids=["truncated", "directory", "no-dim", "dataset-format", "version", "unknown-kind",
        "no-data-block", "ill-typed-cfg"])
@pytest.mark.parametrize("command", ["eval-gen", "hedge"])
def test_malformed_checkpoint_exits_3(tmp_path, gbm_runs, capsys, corrupt, needle, command):
    ds, checkpoint, _ = gbm_runs
    corrupt(checkpoint)
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(checkpoint)},
                       hedge={"underlying": "c0"})
    assert_one_line_exit_3([command, "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, needle)


def test_hedger_container_as_generator_checkpoint_exits_3(tmp_path, gbm_runs, capsys):
    ds, _, hedger = gbm_runs
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(hedger)})
    assert_one_line_exit_3(["eval-gen", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, "kind 'hedger' is not a generator kind")


def test_malformed_dataset_exits_3(tmp_path, gbm_runs, capsys):
    ds, checkpoint, _ = gbm_runs
    _truncate(ds)
    cfg = write_config(tmp_path / "e.json", data={"dataset": str(ds)},
                       generator={"checkpoint": str(checkpoint)})
    assert_one_line_exit_3(["eval-gen", "--config", str(cfg), "--out", str(tmp_path / "run")],
                           capsys, "dataset container is not valid JSON")


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
    policy, spec, _ = load_hedger(out / "hedger.json")
    assert spec.payoff.kind == "call" and spec.tradable == (0,)
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
    _, spec, _ = load_hedger(out / "hedger.json")
    assert spec.payoff.kind == "spread_call"
    assert spec.payoff.strike == 0.5 and spec.payoff.dims == (1, 0)
    assert spec.tradable == (1, 0)
    row = (out / "hedge_report.csv").read_text().strip().split("\n")[1]
    assert row.startswith("GBM,spread,")


def test_hedge_unknown_label_exit_2(tmp_path, dataset, capsys):
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       hedge={"underlying": "gas",
                              "train": {"iterations": 2, "batch_size": 8}})
    assert cli.main(["hedge", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
    assert "'gas' not in dataset columns" in capsys.readouterr().err


def test_hedge_nongbm_needs_checkpoint(tmp_path, dataset, capsys):
    ds, _ = dataset
    cfg = write_config(tmp_path / "c.json", data={"dataset": str(ds)},
                       generator={"kind": "CEGEN"},
                       hedge={"underlying": "c0"})
    assert cli.main(["hedge", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
    assert "generator.checkpoint" in capsys.readouterr().err


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
    b = fake_run(tmp_path, "b", ["GBM,call,1.0,2.0"],
                 header="model,case,init_risk,repl_loss",
                 filename="hedge_report.csv")
    assert cli.main(["report", str(a), str(b), "--out", str(tmp_path / "cmp")]) == 3
    err = capsys.readouterr().err
    assert "schema mismatch" in err and "hedge_report.csv" in err


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
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    cells = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert cells["CEGEN"][3] == "3.00e-02*"
    assert cells["GBM"][3] == "5.00e-02"
    assert cells["GBM"][2] == "2.00e+00*" and cells["CEGEN"][2] == "2.00e+00*"


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