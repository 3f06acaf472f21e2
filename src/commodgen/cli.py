"""Config-driven experiment commands.

Subcommands
-----------
preprocess   CSV -> jump-filtered, windowed dataset container
train-gen    dataset -> generator checkpoint (+ loss-curve CSV)
eval-gen     checkpoint + dataset -> metric report CSV
hedge        checkpoint (or on-the-fly GBM) + dataset -> hedger checkpoint,
             replication report, payoff-vs-portfolio export
report       run dirs -> consolidated comparison tables with per-group minima marked

Global flags: --config FILE, --seed N, --out DIR, --no-filter.  Exit codes:
0 success, 2 config error, 3 data error, 4 numeric/training failure, out of
memory or an array too big to exist; every failure prints one `error:` line.

Configuration is a JSON object deep-merged over the defaults below; unknown
keys are rejected.  Each value must have its key's type (`CONFIG_SCHEMA`,
`TrainConfig`'s annotations): an integer is never true/false or 2.0; a number
is finite and never true/false (an integer stays as written); a flag is
true/false; a path or label is a string (labels also a list of strings); null
only where the default is null.  A bad value exits 2 naming its key.  All keys:

  seed                  master seed: training (unless train.seed set) and sampling
  out                   output directory (flag --out overrides)
  data.source           "bundled" or a CSV path ("date" column + price columns)
  data.dataset          preprocessed dataset container; overrides source when set
  data.filter           apply the jump filter before windowing (--no-filter clears)
  data.quantile_level   jump-filter threshold quantile
  data.window           window length in business days
  data.stride           window start spacing
  generator.kind        GBM | CEGEN | TSGAN | COTGAN | SIGGAN
  generator.checkpoint  existing generator checkpoint (eval-gen, hedge)
  generator.normalize   train on initial-value-ratio scaled windows
  generator.train.*     any TrainConfig field (iterations, batch_size, lr, ...)
  eval.n_samples        generated sample count for metric reports
  eval.normalized       compare in normalized space when the model has a normalizer
  eval.unit_scale       divide both sides by the real per-dim mean level
  hedge.case            call | proxy | spread
  hedge.underlying      payoff label (spread: [long, short]); defaults per case
  hedge.tradable        tradable labels; defaults per case
  hedge.strike          strike; default mean start level (spread: 42.41)
  hedge.rebase          rescale every window (and sampler path) to the common
                        mean start level, so the fixed strike is the same
                        claim on every window; false evaluates at raw levels
  hedge.train.*         TrainConfig fields for the hedger fit

Every artifact is deterministic given the config; a rerun at the same BLAS
thread count reproduces byte-identical files (the manifest's timestamp
aside; its `versions.blas` records the BLAS and its thread settings).  Each
command first removes from its output directory the files it writes itself
(`OUTPUTS`) together with any `manifest.json` and `diagnostic.json`, and
writes `manifest.json` last, listing the sha256 of every file it produced;
what another command wrote there (the `generator.json` that `eval-gen` and
`hedge` may read, say) stays.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import os
import pathlib
import sys

import numpy as np

from . import __version__, store
from .autodiff import NumericOverflowError
from .dataio import (DataError, PathBatch, bundled_dataset_path, filter_table,
                     fit_normalizer, load_csv, read_dataset, windowize,
                     write_dataset)
from .generators import (KINDS, TRAIN_TYPES, ConfigError, TrainConfig, TrainingError,
                         check_field, load_checkpoint, save_checkpoint, train_generator)
from .hedging import (HedgingSpec, Payoff, eval_hedger, rebase_batch,
                      save_hedger, train_hedger, write_hedge_export)
from .metrics import emit_report, metric_report, unit_scale_pair

HEDGE_REPORT_HEADER = "model,case,init_risk,repl_loss"
HEDGE_CASES = ("call", "proxy", "spread")
SPREAD_DEFAULT_STRIKE = 42.41

# each report kind a run directory may hold -> the comparison `report` joins it into
REPORT_KINDS = {"report.csv": "comparison.csv", "hedge_report.csv": "hedge_comparison.csv"}

# how numpy's ValueError starts when a requested array's byte size overflows
# its index type: a request no memory can meet, so it ends as a MemoryError does
ARRAY_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded",
                 "Maximum allowed size exceeded")

# the files each command may write into its output directory
OUTPUTS = {
    "preprocess": ("dataset.json",),
    "train-gen": ("generator.json", "losses.csv"),
    "eval-gen": ("report.csv",),
    "hedge": ("hedger.json", "hedge_export.csv", "hedge_report.csv",
              "hedge_losses.csv", "hedge_test_losses.csv"),
    "report": tuple(REPORT_KINDS.values()),
}


# every config leaf -> (default, kind, bound), kind and bound as check_field takes them
CONFIG_SCHEMA = {
    "seed": (0, int, ">= 0"),
    "out": ("runs/latest", str, "other than ''"),
    "data.source": ("bundled", str, None),
    "data.dataset": (None, str | None, None),
    "data.filter": (True, bool, None),
    "data.quantile_level": (0.95, float, "in (0, 1]"),
    "data.window": (30, int, ">= 2"),
    "data.stride": (1, int, ">= 1"),
    "generator.kind": ("GBM", KINDS, None),
    "generator.checkpoint": (None, str | None, None),
    "generator.normalize": (True, bool, None),
    "eval.n_samples": (1000, int, ">= 2"),
    "eval.normalized": (True, bool, None),
    "eval.unit_scale": (False, bool, None),
    "hedge.case": ("call", HEDGE_CASES, None),
    "hedge.underlying": (None, str | list | None, None),
    "hedge.tradable": (None, str | list | None, None),
    "hedge.strike": (None, float | None, None),
    "hedge.rebase": (True, bool, None),
}


def _defaults() -> dict:
    """Each schema default in its section, plus the empty `train` blocks."""
    cfg: dict = {}
    for key, (default, _, _) in CONFIG_SCHEMA.items():
        section, _, leaf = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[leaf] = default
    cfg["generator"]["train"], cfg["hedge"]["train"] = {}, {}
    return cfg


DEFAULT_CONFIG = _defaults()


# --------------------------------------------------------------- configuration

def merge_config(base: dict, override: dict, prefix: str = "") -> dict:
    """Deep merge `override` into `base`, rejecting keys absent from `base`
    except in an empty-dict default (a `train` block)."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        current = base[key]
        if isinstance(current, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object")
            out[key] = (merge_config(current, value, f"{prefix}{key}.") if current
                        else copy.deepcopy(value))
        else:
            out[key] = value
    return out


def validate_config(cfg: dict) -> None:
    """Check every leaf of a merged config against CONFIG_SCHEMA and both
    `train` blocks against TrainConfig's fields."""
    for key, (_, kind, bound) in CONFIG_SCHEMA.items():
        section, _, leaf = key.rpartition(".")
        check_field(key, (cfg[section] if section else cfg)[leaf], kind, bound)
    for section in ("generator", "hedge"):
        build_train_config(cfg[section]["train"], cfg["seed"], f"{section}.train")


def load_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        try:
            user = store.read_json(args.config)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except ValueError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = merge_config(cfg, user)
        validate_config(cfg)        # a flag below must not hide a bad value in the file
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["out"] = args.out
    if getattr(args, "no_filter", False):
        cfg["data"]["filter"] = False
    validate_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    """Experiment identity: everything but where the artifacts land."""
    return store.content_hash({k: v for k, v in cfg.items() if k != "out"})


def build_train_config(train: dict, seed: int, key: str = "train") -> TrainConfig:
    """The TrainConfig of the `train` block at `key`; `seed` fills an unset seed."""
    unknown = sorted(set(train) - set(TRAIN_TYPES))
    if unknown:
        raise ConfigError("unknown training option(s): "
                          + ", ".join(f"{key}.{name}" for name in unknown))
    try:
        return TrainConfig(**{"seed": seed, **train})
    except ConfigError as exc:      # check_field's messages start with the field name
        raise ConfigError(f"bad training option: {key}.{exc}") from None


# --------------------------------------------------------------------- runtime

def write_manifest(out_dir: pathlib.Path, command: str, cfg_hash: str,
                   meta: dict | None = None) -> None:
    """Mark `command` complete, keyed by config hash, listing those of its
    outputs that exist."""
    names = sorted(name for name in OUTPUTS[command] if (out_dir / name).exists())
    store.write_json(out_dir / "manifest.json", {
        "config_hash": cfg_hash,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": {"commodgen": __version__, "numpy": np.__version__, "blas": _blas()},
        "files": {name: store.file_sha256(out_dir / name) for name in names},
        "meta": meta or {},
    })


def _blas() -> dict:
    """The BLAS numpy calls and the thread settings it ran under: a fit's
    last bits can depend on the thread count."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_affinity": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                             else os.cpu_count())}


def _out_dir(path, command: str) -> pathlib.Path:
    """Create the output directory and remove what a previous run of
    `command` left there: its outputs and the completion markers."""
    out = pathlib.Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for name in OUTPUTS[command] + ("manifest.json", "diagnostic.json"):
        (out / name).unlink(missing_ok=True)
    return out


def _load_table(cfg: dict):
    src = cfg["data"]["source"]
    path = bundled_dataset_path() if src == "bundled" else pathlib.Path(src)
    if src != "bundled" and not path.exists():
        raise DataError(f"no input CSV at {path}")
    return load_csv(path)


def resolve_dataset(cfg: dict) -> PathBatch:
    """The evaluation/reference windows: a container if given, else source + pipeline."""
    d = cfg["data"]
    if d["dataset"]:
        path = pathlib.Path(d["dataset"])
        if not path.exists():
            raise DataError(f"no dataset container at {path}")
        return read_dataset(path)
    table = _load_table(cfg)
    if d["filter"]:
        table = filter_table(table, quantile_level=d["quantile_level"])
    return windowize(table, length=d["window"], stride=d["stride"])


def _write_diagnostic(out_dir: pathlib.Path, cfg_hash: str, exc: Exception) -> None:
    store.write_json(out_dir / "diagnostic.json", {
        "error": type(exc).__name__, "message": str(exc), "config_hash": cfg_hash,
    })


def _fit_generator(cfg: dict, data: PathBatch):
    """Train (or calibrate) the configured generator kind on `data`."""
    g = cfg["generator"]
    tc = build_train_config(g["train"], cfg["seed"])
    normalizer = fit_normalizer(data) if g["normalize"] else None
    train_data = normalizer.apply(data) if normalizer is not None else data
    return train_generator(g["kind"], train_data, tc, normalizer=normalizer)


def _load_generator(cfg: dict, data: PathBatch):
    """The configured checkpoint's model, refused unless it generates paths
    of `data`'s window length and columns, in the same order."""
    path = pathlib.Path(cfg["generator"]["checkpoint"])
    if not path.exists():
        raise DataError(f"no generator checkpoint at {path}")
    model = load_checkpoint(path)
    if (data.seq_len, data.dim, data.labels) != (model.seq_len, model.dim, model.labels):
        raise DataError(f"dataset windows are {data.seq_len} steps of {data.labels} but "
                        f"the checkpoint generates {model.seq_len} steps of {model.labels}")
    return model


# -------------------------------------------------------------------- commands

def cmd_preprocess(cfg: dict) -> int:
    out = _out_dir(cfg["out"], "preprocess")
    batch = resolve_dataset(cfg)
    write_dataset(batch, out / "dataset.json")
    shape = list(batch.values.shape)
    write_manifest(out, "preprocess", config_hash(cfg),
                   meta={"shape": shape, "labels": batch.labels})
    print(f"dataset: {shape[0]} windows x {shape[1]} steps x {shape[2]} dims "
          f"-> {out / 'dataset.json'}")
    return 0


def cmd_train_gen(cfg: dict) -> int:
    out = _out_dir(cfg["out"], "train-gen")
    cfg_hash = config_hash(cfg)
    data = resolve_dataset(cfg)
    try:
        model, curve = _fit_generator(cfg, data)
    except (TrainingError, NumericOverflowError) as exc:
        _write_diagnostic(out, cfg_hash, exc)
        raise
    save_checkpoint(model, out / "generator.json")
    if curve.iterations:
        curve.write_csv(out / "losses.csv")
    write_manifest(out, "train-gen", cfg_hash,
                   meta={"kind": model.kind, "iterations": model.trained_iterations})
    tail = f", final loss {curve.gen_loss[-1]:.4g}" if curve.iterations else ""
    print(f"trained {model.kind} ({model.trained_iterations} iterations{tail}) "
          f"-> {out / 'generator.json'}")
    return 0


def cmd_eval_gen(cfg: dict) -> int:
    out = _out_dir(cfg["out"], "eval-gen")
    if not cfg["generator"]["checkpoint"]:
        raise ConfigError("eval-gen needs generator.checkpoint")
    data = resolve_dataset(cfg)
    model = _load_generator(cfg, data)
    fake = model.sample(cfg["eval"]["n_samples"], seed=cfg["seed"])
    real_v, fake_v = data.values, fake.values
    if cfg["eval"]["normalized"] and model.normalizer is not None:
        real_v = model.normalizer.apply(data).values
        fake_v = model.normalizer.apply(fake).values
    if cfg["eval"]["unit_scale"]:
        real_v, fake_v = unit_scale_pair(real_v, fake_v)
    report = metric_report(real_v, fake_v, model=model.kind)
    emit_report(report, out / "report.csv")
    write_manifest(out, "eval-gen", config_hash(cfg),
                   meta={"kind": model.kind, "n_samples": cfg["eval"]["n_samples"],
                         "low_confidence": report.low_confidence})
    print(f"avg marginal metric {report.avg.mean():.3e}, corr {report.corr:.3e} "
          f"-> {out / 'report.csv'}")
    return 0


def _resolve_labels(spec_value, labels: list, what: str) -> list:
    names = [spec_value] if isinstance(spec_value, str) else list(spec_value)
    if not names:
        raise ConfigError(f"{what} must name at least one label")
    for i, name in enumerate(names):
        if name not in labels:
            raise ConfigError(f"{what} label '{name}' not in dataset columns "
                              f"{', '.join(labels)}")
        if name in names[:i]:
            raise ConfigError(f"{what} names label '{name}' twice")
    return names


def build_hedging_spec(cfg: dict, data: PathBatch) -> HedgingSpec:
    """Resolve case defaults against the dataset's labels and start levels."""
    h = cfg["hedge"]
    case, labels = h["case"], data.labels
    starts = data.values[:, 0, :].mean(axis=0)
    if case == "spread":
        und = h["underlying"] if h["underlying"] is not None else ["coal", "gas"]
        und = _resolve_labels(und, labels, "hedge.underlying")
        if len(und) != 2:
            raise ConfigError("spread case needs two underlying labels [long, short]")
        dims = tuple(labels.index(u) for u in und)
        strike = h["strike"] if h["strike"] is not None else SPREAD_DEFAULT_STRIKE
        payoff = Payoff(kind="spread_call", strike=float(strike), dims=dims)
        tradable = h["tradable"] if h["tradable"] is not None else und
    else:
        und = h["underlying"] if h["underlying"] is not None else "gas"
        und = _resolve_labels(und, labels, "hedge.underlying")
        if len(und) != 1:
            raise ConfigError(f"{case} case takes a single underlying label")
        dims = (labels.index(und[0]),)
        strike = h["strike"] if h["strike"] is not None else float(starts[dims[0]])
        payoff = Payoff(kind="call", strike=float(strike), dims=dims)
        default_tradable = ["coal"] if case == "proxy" else und
        tradable = h["tradable"] if h["tradable"] is not None else default_tradable
    tradable = _resolve_labels(tradable, labels, "hedge.tradable")
    return HedgingSpec(payoff=payoff,
                       tradable=tuple(labels.index(t) for t in tradable),
                       maturity=(data.seq_len - 1) * data.dt,
                       s0=starts if h["rebase"] else None)


def cmd_hedge(cfg: dict) -> int:
    out = _out_dir(cfg["out"], "hedge")
    cfg_hash = config_hash(cfg)
    data = resolve_dataset(cfg)
    spec = build_hedging_spec(cfg, data)
    if spec.s0 is not None:
        data = rebase_batch(data, spec.s0)
    spec.check_batch(data)
    if cfg["generator"]["checkpoint"]:
        model = _load_generator(cfg, data)
    elif cfg["generator"]["kind"] == "GBM":
        model, _ = _fit_generator(cfg, data)      # calibrated on the fly
    else:
        raise ConfigError(f"hedging with kind={cfg['generator']['kind']} needs "
                          f"generator.checkpoint (train-gen writes generator.json)")
    tc = build_train_config(cfg["hedge"]["train"], cfg["seed"])
    try:
        policy, train_curve, test_curve = train_hedger(model, spec, tc,
                                                       test_data=data)
    except (TrainingError, NumericOverflowError) as exc:
        _write_diagnostic(out, cfg_hash, exc)
        raise
    ev = eval_hedger(policy, data, spec)
    save_hedger(policy, spec, tc, out / "hedger.json")
    write_hedge_export(ev, out / "hedge_export.csv")
    store.write_csv(out / "hedge_report.csv", HEDGE_REPORT_HEADER.split(","),
                    [[model.kind, cfg["hedge"]["case"],
                      f"{ev.init_risk:.6e}", f"{ev.repl_loss:.6e}"]])
    if train_curve.iterations:
        train_curve.write_csv(out / "hedge_losses.csv")
    if test_curve.iterations:
        test_curve.write_csv(out / "hedge_test_losses.csv")
    write_manifest(out, "hedge", cfg_hash,
                   meta={"case": cfg["hedge"]["case"], "kind": model.kind,
                         "strike": spec.payoff.strike})
    print(f"hedger[{model.kind}/{cfg['hedge']['case']}]: "
          f"init_risk={ev.init_risk:.4e} repl_loss={ev.repl_loss:.4e} "
          f"-> {out / 'hedge_report.csv'}")
    return 0


# ---------------------------------------------------------------- consolidation

def _group_sort_key(value: str):
    try:
        return (0, float(value), "")
    except ValueError:
        return (1, 0.0, value)


def consolidate(paths: list, out_path: pathlib.Path) -> int:
    """Join per-run CSVs sharing one schema; mark per-group column minima.

    Rows are grouped by the second column (dim or case); within groups of two
    or more rows, the smallest value in each numeric column gets a trailing
    `*` (ties all marked), mirroring the bold-minimum convention of model
    comparison tables.
    """
    tables = [(p, *store.read_csv(p)) for p in paths]
    header = tables[0][1]
    bad = [str(p) for p, h, _ in tables if h != header]
    if bad:
        raise DataError(f"schema mismatch: {', '.join(bad)} "
                        f"(expected columns {','.join(header)})")
    if len(header) < 3:
        raise DataError(f"{tables[0][0]}: too few columns to compare")
    rows = []
    for p, _, tr in tables:
        for cells in tr:
            for c in range(2, len(header)):
                try:
                    float(cells[c])
                except ValueError:
                    raise DataError(f"{p}: non-numeric value '{cells[c]}' "
                                    f"in column {header[c]}") from None
            rows.append(cells)
    rows.sort(key=lambda cells: _group_sort_key(cells[1]))
    groups: dict = {}
    for i, cells in enumerate(rows):
        groups.setdefault(cells[1], []).append(i)
    marked = [list(cells) for cells in rows]
    for idx in groups.values():
        if len(idx) < 2:
            continue
        for c in range(2, len(header)):
            lo = min(float(rows[i][c]) for i in idx)
            for i in idx:
                if float(rows[i][c]) == lo:
                    marked[i][c] += "*"
    store.write_csv(out_path, header, marked)
    return len(marked)


def cmd_report(args: argparse.Namespace) -> int:
    out = _out_dir(args.out or "runs/comparison", "report")
    paths = []
    for run in args.runs:
        run_dir = pathlib.Path(run)
        found = [run_dir / name for name in REPORT_KINDS if (run_dir / name).exists()]
        if not found:
            raise DataError(f"no report.csv or hedge_report.csv under {run_dir}")
        paths.extend(found)
    groups = {comparison: [p for p in paths if p.name == name]
              for name, comparison in REPORT_KINDS.items()}
    rows = {comparison: consolidate(group, out / comparison)
            for comparison, group in groups.items() if group}
    write_manifest(out, "report", store.content_hash([str(p) for p in paths]),
                   meta={"runs": [str(r) for r in args.runs]})
    for comparison, n in rows.items():
        print(f"comparison of {len(groups[comparison])} report(s), {n} rows "
              f"-> {out / comparison}")
    return 0


# ------------------------------------------------------------------ entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commodgen",
        description="Synthetic commodity path generation, scoring, and deep hedging.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [("preprocess", "filter and window a price CSV"),
                       ("train-gen", "train a path generator"),
                       ("eval-gen", "score a generator against reference windows"),
                       ("hedge", "train and evaluate a deep hedger")]:
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file merged over defaults")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--no-filter", action="store_true",
                        help="skip the jump filter")
    rp = sub.add_parser("report", help="consolidate run reports into one table")
    rp.add_argument("runs", nargs="+", help="run directories to join")
    rp.add_argument("--out", help="output directory (default runs/comparison)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Non-finite values end a command through NumericOverflowError (one
        # `error:` line), so numpy's floating-point warnings are noise here.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "report":
                return cmd_report(args)
            cfg = load_config(args)
            handler = {"preprocess": cmd_preprocess, "train-gen": cmd_train_gen,
                       "eval-gen": cmd_eval_gen, "hedge": cmd_hedge}[args.command]
            return handler(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TrainingError, NumericOverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        if not str(exc).startswith(ARRAY_TOO_BIG):
            raise
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
