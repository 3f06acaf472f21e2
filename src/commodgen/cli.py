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
0 success, 2 config error, 3 data error, 4 numeric/training failure.

Configuration is a JSON object deep-merged over the defaults below; unknown
keys are rejected.  All keys:

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
  hedge.maturity        years; default: the window span
  hedge.rebase          rescale every window (and sampler path) to the common
                        mean start level, so the fixed strike is the same
                        claim on every window; false evaluates at raw levels
  hedge.train.*         TrainConfig fields for the hedger fit

Every artifact is deterministic given the config; a rerun reproduces
byte-identical files (the manifest's timestamp aside).  Each command first
removes from its output directory the files it writes itself (`OUTPUTS`)
together with any `manifest.json` and `diagnostic.json`, and writes
`manifest.json` last, listing the sha256 of every file it produced; what
another command wrote there (the `generator.json` that `eval-gen` and `hedge`
may read, say) stays.
"""

from __future__ import annotations

import argparse
import copy
import datetime
import json
import pathlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, store
from .autodiff import NumericOverflowError
from .dataio import (DataError, PathBatch, bundled_dataset_path, filter_table,
                     fit_normalizer, load_csv, read_dataset, windowize,
                     write_dataset)
from .generators import (KINDS, TrainConfig, TrainingError, load_checkpoint,
                         save_checkpoint, train_generator)
from .hedging import (HedgingSpec, Payoff, eval_hedger, rebase_batch,
                      save_hedger, train_hedger, write_hedge_export)
from .metrics import emit_report, metric_report, unit_scale_pair

HEDGE_REPORT_HEADER = "model,case,init_risk,repl_loss"
HEDGE_CASES = ("call", "proxy", "spread")
SPREAD_DEFAULT_STRIKE = 42.41

# each report kind a run directory may hold -> the comparison `report` joins it into
REPORT_KINDS = {"report.csv": "comparison.csv", "hedge_report.csv": "hedge_comparison.csv"}

# the files each command may write into its output directory
OUTPUTS = {
    "preprocess": ("dataset.json",),
    "train-gen": ("generator.json", "losses.csv"),
    "eval-gen": ("report.csv",),
    "hedge": ("hedger.json", "hedge_export.csv", "hedge_report.csv",
              "hedge_losses.csv", "hedge_test_losses.csv"),
    "report": tuple(REPORT_KINDS.values()),
}


class ConfigError(ValueError):
    """Unknown key, bad value, or inconsistent command usage."""


DEFAULT_CONFIG = {
    "seed": 0,
    "out": "runs/latest",
    "data": {
        "source": "bundled",
        "dataset": None,
        "filter": True,
        "quantile_level": 0.95,
        "window": 30,
        "stride": 1,
    },
    "generator": {
        "kind": "GBM",
        "checkpoint": None,
        "normalize": True,
        "train": {},
    },
    "eval": {
        "n_samples": 1000,
        "normalized": True,
        "unit_scale": False,
    },
    "hedge": {
        "case": "call",
        "underlying": None,
        "tradable": None,
        "strike": None,
        "maturity": None,
        "rebase": True,
        "train": {},
    },
}


# --------------------------------------------------------------- configuration

def merge_config(base: dict, override: dict, prefix: str = "") -> dict:
    """Deep merge `override` into `base`, rejecting keys absent from `base`.

    Empty-dict defaults (the `train` blocks) accept arbitrary sub-keys; those
    are validated later against TrainConfig's fields.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        current = base[key]
        if isinstance(current, dict) and current:
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object")
            out[key] = merge_config(current, value, f"{prefix}{key}.")
        elif isinstance(current, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object")
            out[key] = copy.deepcopy(value)
        else:
            out[key] = value
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: dict) -> None:
    d, g, e, h = cfg["data"], cfg["generator"], cfg["eval"], cfg["hedge"]
    _require(isinstance(cfg["seed"], int) and cfg["seed"] >= 0,
             "seed must be a non-negative integer")
    _require(isinstance(cfg["out"], str) and cfg["out"] != "",
             "out must be a non-empty path")
    _require(isinstance(d["window"], int) and d["window"] >= 2,
             "data.window must be an integer >= 2")
    _require(isinstance(d["stride"], int) and d["stride"] >= 1,
             "data.stride must be an integer >= 1")
    _require(0.0 < d["quantile_level"] <= 1.0,
             "data.quantile_level must lie in (0, 1]")
    _require(g["kind"] in KINDS,
             f"generator.kind must be one of {', '.join(KINDS)}")
    _require(isinstance(e["n_samples"], int) and e["n_samples"] >= 2,
             "eval.n_samples must be an integer >= 2")
    _require(h["case"] in HEDGE_CASES,
             f"hedge.case must be one of {', '.join(HEDGE_CASES)}")
    if h["strike"] is not None:
        _require(isinstance(h["strike"], (int, float)) and np.isfinite(h["strike"]),
                 "hedge.strike must be a finite number")
    if h["maturity"] is not None:
        _require(isinstance(h["maturity"], (int, float)) and h["maturity"] > 0,
                 "hedge.maturity must be positive")


def load_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = merge_config(cfg, user)
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


def build_train_config(train: dict, seed: int) -> TrainConfig:
    kwargs = dict(train)
    kwargs.setdefault("seed", seed)
    try:
        return TrainConfig(**kwargs)
    except TypeError:
        known = set(TrainConfig.__dataclass_fields__)
        bad = sorted(set(kwargs) - known)
        raise ConfigError(f"unknown training option(s): {', '.join(bad)}") from None
    except ValueError as exc:
        raise ConfigError(f"bad training option: {exc}") from None


# --------------------------------------------------------------------- runtime

@dataclass
class RunManifest:
    """Completion marker: what a command produced, keyed by config hash."""

    config_hash: str
    command: str
    created: str
    versions: dict
    files: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"config_hash": self.config_hash, "command": self.command,
                "created": self.created, "versions": self.versions,
                "files": self.files, "meta": self.meta}


def write_manifest(out_dir: pathlib.Path, command: str, cfg_hash: str,
                   meta: dict | None = None) -> None:
    """Mark `command` complete, listing those of its outputs that exist."""
    names = [name for name in OUTPUTS[command] if (out_dir / name).exists()]
    manifest = RunManifest(
        config_hash=cfg_hash,
        command=command,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        versions={"commodgen": __version__, "numpy": np.__version__},
        files={name: store.file_sha256(out_dir / name) for name in sorted(names)},
        meta=meta or {},
    )
    store.write_json(out_dir / "manifest.json", manifest.to_dict())


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


def _dataset_id(cfg: dict) -> str:
    return cfg["data"]["dataset"] or cfg["data"]["source"]


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


def _load_generator(cfg: dict):
    path = pathlib.Path(cfg["generator"]["checkpoint"])
    if not path.exists():
        raise DataError(f"no generator checkpoint at {path}")
    return load_checkpoint(path)


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
    model = _load_generator(cfg)
    data = resolve_dataset(cfg)
    if data.seq_len != model.seq_len or data.dim != model.dim:
        raise DataError(f"dataset windows are {data.seq_len} x {data.dim} but the "
                        f"checkpoint generates {model.seq_len} x {model.dim}")
    fake = model.sample(cfg["eval"]["n_samples"], seed=cfg["seed"])
    real_v, fake_v = data.values, fake.values
    if cfg["eval"]["normalized"] and model.normalizer is not None:
        real_v = model.normalizer.apply(data).values
        fake_v = model.normalizer.apply(fake).values
    if cfg["eval"]["unit_scale"]:
        real_v, fake_v = unit_scale_pair(real_v, fake_v)
    report = metric_report(real_v, fake_v, model=model.kind,
                           dataset_id=_dataset_id(cfg))
    emit_report(report, out / "report.csv")
    write_manifest(out, "eval-gen", config_hash(cfg),
                   meta={"kind": model.kind, "n_samples": cfg["eval"]["n_samples"]})
    print(f"avg marginal metric {report.avg.mean():.3e}, corr {report.corr:.3e} "
          f"-> {out / 'report.csv'}")
    return 0


def _resolve_labels(spec_value, labels: list, what: str) -> list:
    names = [spec_value] if isinstance(spec_value, str) else list(spec_value)
    for name in names:
        if name not in labels:
            raise ConfigError(f"{what} label '{name}' not in dataset columns "
                              f"{', '.join(labels)}")
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
    maturity = h["maturity"] if h["maturity"] is not None \
        else (data.seq_len - 1) * data.dt
    return HedgingSpec(payoff=payoff,
                       tradable=tuple(labels.index(t) for t in tradable),
                       maturity=float(maturity),
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
        model = _load_generator(cfg)
        if model.seq_len != data.seq_len or model.dim != data.dim:
            raise DataError(f"checkpoint generates {model.seq_len} x {model.dim} "
                            f"paths but the dataset windows are "
                            f"{data.seq_len} x {data.dim}")
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
    save_hedger(policy, spec, tc, out / "hedger.json",
                trained_iterations=tc.iterations)
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
    except (TrainingError, NumericOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
