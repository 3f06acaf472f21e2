"""End-to-end benchmark of the commodgen CLI.

    python3 perfbench/run.py --workload cegen-hedge --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout.  One client runs in a closed loop:
each CLI command is a fresh Python process started after the previous one
exits, the way a researcher chains `train-gen -> eval-gen -> hedge`.  A
round is

    train-gen at 0 iterations   (set-up probe)
    train-gen                   (the chain: train, score, hedge)
    eval-gen
    hedge

and rounds repeat, at least two, while another fits in `--seconds`; every
metric is a median over rounds.  All rounds use the same seed, so their
loss, report and hedge CSVs must be byte-identical.

Every command runs through `tracer.py --loops`, which is `python3 -m
commodgen.cli` with a timer around the training loop (`train_generator`,
`train_hedger`).  `setup_s`, `eval_gen_s` and `wall_s` are process wall
times taken from outside; the per-iteration times divide the time inside
the loop, which a difference of two process wall times would bury under
the jitter of process start-up and imports.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs two untraced
rounds and one with `tracer.py` wrapping every layer boundary, interleaved
command by command (untraced, traced, untraced), and prints the per-layer
metrics of `layers.py`; the tracing overhead is each traced command's wall
time minus the median of its two untraced runs, summed over the chain.  On
`siggan` the overhead (~0.5 s) is within a command's run-to-run noise, so
there it can read below zero.  The traced artifacts must hash the same as
the untraced ones, and the traced training command runs twice so that its
op counts can be checked to repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The full record (machine stamp, every command's wall time and
peak RSS, failed checks, quality scores, artifact digests) goes to
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gate as gates
import layers
from tracer import LOOPS

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

EVAL_SAMPLES = 10_000
# Generators always train from the README reference seed; `--seed` drives the
# eval sample and the hedger's draws.  CEGEN's work per step depends on its
# training path (populated transition buckets ranged 30-68 of 145 over
# seeds 0-9, and time per step with them), so a seeded training would time
# the seed, not the code, and op counts could not be compared between runs.
TRAIN_SEED = 0
HEDGE_TRAIN = {"batch_size": 256, "lr": 1e-2}
MIN_ROUNDS = 2
RUN_LIMIT_S = 140.0         # no round starts that would end after this
DEADLINE_S = 170.0          # commands still running then are killed
COMMAND_TIMEOUT_S = 120.0
STEPS = ("train0", "train", "eval", "hedge")
CHAIN = ("train", "eval", "hedge")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("train_iter_ms", "ms"),
              ("hedge_iter_ms", "ms"), ("eval_gen_s", "s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    """README reference batch shapes at benchmark-sized iteration counts.

    The counts keep every loss curve descending and every timed loop over a
    second long, while two rounds fit in about 40 s.
    """

    generator: dict
    train_iters: int
    hedge_on_checkpoint: bool      # False: hedge on an on-the-fly GBM
    hedge_iters: int


# The GBM hedge's loss curve descends from 30 iterations on.  On a shared
# 2-core VM the speed wanders on a scale of seconds, so a timed loop of 1.4 s
# (60 iterations) varied by 12% from process to process; 120 averages more.
GBM_HEDGE_ITERS = 120

WORKLOADS = {
    # The README flow: ~2k tiny ops per step, a neural sampler under the hedger.
    # Both timed loops run for several seconds (~7.5 s training, ~5 s hedge).
    "cegen-hedge": Workload({"kind": "CEGEN", "train": {"batch_size": 256}},
                            train_iters=60, hedge_on_checkpoint=True, hedge_iters=100),
    # Unrolled Sinkhorn and recurrent cells, ~6.7k ops per step.  A generator
    # this briefly trained cannot drive a hedger (its hedge diverges), so the
    # hedge step runs on the calibrated GBM: the hedger with neural sampling
    # bypassed, the other side of `hedging.sampler_wait_share`.
    "cotgan": Workload({"kind": "COTGAN", "train": {"batch_size": 64, "critic_lr": 1e-6,
                                                    "sinkhorn_iterations": 30}},
                       train_iters=20, hedge_on_checkpoint=False, hedge_iters=GBM_HEDGE_ITERS),
    # Few ops on large arrays (780-coefficient signatures), the one-off
    # signature regression in set-up; hedges on GBM like `cotgan`.
    "siggan": Workload({"kind": "SIGGAN", "train": {"batch_size": 128, "lr": 3e-3,
                                                    "sig_depth": 4}},
                       train_iters=80, hedge_on_checkpoint=False, hedge_iters=GBM_HEDGE_ITERS),
}


@dataclass
class Proc:
    code: int | None
    wall_s: float
    rss_mb: float
    loop_ms: float = 0.0    # inside train_generator / train_hedger
    files: dict = field(default_factory=dict)    # manifest digests


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_proc(argv: list, log: pathlib.Path, timeout: float) -> Proc:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:       # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def step_configs(wl: Workload, seed: int, rdir: pathlib.Path) -> dict:
    """(subcommand, config) of every step of one round."""
    base = {"seed": seed, "data": {"source": "bundled"},
            "eval": {"n_samples": EVAL_SAMPLES}}

    def generator(iters: int, **extra) -> dict:
        return {**wl.generator, **extra, "train": {**wl.generator["train"],
                                                   "iterations": iters, "seed": TRAIN_SEED}}

    def hedge(iters: int) -> dict:
        return {"case": "call", "train": {**HEDGE_TRAIN, "iterations": iters}}

    checkpoint = str(rdir / "train" / "generator.json")
    hedge_gen = (generator(wl.train_iters, checkpoint=checkpoint)
                 if wl.hedge_on_checkpoint else {"kind": "GBM"})
    return {
        "train0": ("train-gen", {**base, "generator": generator(0)}),
        "train": ("train-gen", {**base, "generator": generator(wl.train_iters)}),
        "eval": ("eval-gen", {**base, "generator": generator(wl.train_iters,
                                                             checkpoint=checkpoint)}),
        "hedge": ("hedge", {**base, "generator": hedge_gen, "hedge": hedge(wl.hedge_iters)}),
    }


class Runner:
    def __init__(self, wl: Workload, seed: int, rundir: pathlib.Path, start: float):
        self.wl, self.seed, self.rundir, self.start = wl, seed, rundir, start
        self.gate = gates.Gate()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def step(self, rdir: pathlib.Path, step: str, traced: bool = False,
             name: str | None = None) -> Proc:
        """Run one CLI command of a round and make its exit/manifest checks."""
        name = name or step
        command, cfg = step_configs(self.wl, self.seed, rdir)[step]
        cfg_path = rdir / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = rdir / name
        spans = rdir / f"{name}.spans.json"
        argv = [sys.executable, str(HERE / "tracer.py"), *([] if traced else ["--loops"]),
                str(spans), "--", command, "--config", str(cfg_path), "--out", str(out)]
        proc = run_proc(argv, rdir / f"{name}.log", min(COMMAND_TIMEOUT_S, self.remaining()))
        proc.files = self.gate.command(f"{rdir.name}/{name}", proc.code, out)
        if proc.files:
            proc.loop_ms = layers.Trace(spans).total_ms(LOOPS)
        return proc

    def round(self, label: str) -> tuple[dict, dict]:
        """Run every step once, untraced, and check the chain's outputs.

        Returns the Proc of each step and the round's quality scores."""
        rdir = self.rundir / label
        rdir.mkdir(parents=True)
        procs = {s: self.step(rdir, s) for s in STEPS}
        return procs, self.check_round(label)

    def paired_rounds(self) -> tuple[list, dict, dict]:
        """Rounds round0 and round1 untraced and `traced` traced, interleaved
        command by command, so each traced command runs between its two
        untraced runs and slow drift in machine speed cancels from the
        tracing overhead.  Returns the untraced rounds, the traced round and
        the quality scores of round1."""
        labels = (("round0", False), ("traced", True), ("round1", False))
        procs: dict = {label: {} for label, _ in labels}
        for label, _ in labels:
            (self.rundir / label).mkdir(parents=True)
        for s in STEPS:
            for label, traced in labels:
                procs[label][s] = self.step(self.rundir / label, s, traced)
        quality = {label: self.check_round(label) for label, _ in labels}
        return [procs["round0"], procs["round1"]], procs["traced"], quality["round1"]

    def check_round(self, label: str) -> dict:
        """Check the chain's outputs of one round; returns its quality scores."""
        rdir = self.rundir / label
        g = self.gate
        final_loss = g.loss_curve(f"{label}/train", rdir / "train" / "losses.csv")
        g.loss_curve(f"{label}/hedge", rdir / "hedge" / "hedge_losses.csv")
        report = g.finite_report(f"{label}/eval", rdir / "eval" / "report.csv")
        ratio = g.hedge_ratio(f"{label}/hedge", rdir / "hedge" / "hedge_report.csv")
        return {"final_gen_loss": final_loss,
                "avg_marginal": (statistics.fmean(float(r["avg"]) for r in report)
                                 if report else None),
                "hedge_repl_over_init": ratio}


def median(values) -> float:
    return statistics.median(list(values))


def end_to_end(wl: Workload, rounds: list) -> dict:
    """Medians over rounds.  `train_iter_ms` subtracts the loop time of the
    0-iteration probe (network init, SIGGAN's signature regression), so
    one-off set-up inside the training call is not spread over the steps."""
    return {
        "wall_s": median(sum(r[s].wall_s for s in CHAIN) for r in rounds),
        "setup_s": median(r["train0"].wall_s for r in rounds),
        "train_iter_ms": median(r["train"].loop_ms - r["train0"].loop_ms for r in rounds)
                         / wl.train_iters,
        "hedge_iter_ms": median(r["hedge"].loop_ms for r in rounds) / wl.hedge_iters,
        "eval_gen_s": median(r["eval"].wall_s for r in rounds),
        "peak_rss_mb": median(max(r[s].rss_mb for s in CHAIN) for r in rounds),
    }


def stamp(seed: int) -> dict:
    """The machine and code a result came from."""
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or None
    code = hashlib.sha256()
    for path in sorted((SRC / "commodgen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            code.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": code.hexdigest(),
        "seed": seed,
    }


def trace_round(runner: Runner, wl: Workload, untraced: list,
                procs: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced round, plus what it recorded."""
    g = runner.gate
    tdir = runner.rundir / "traced"
    repeat = runner.step(tdir, "train", traced=True, name="train_repeat")
    for s in STEPS:     # wrappers change no computation
        g.check(procs[s].files == untraced[0][s].files,
                f"traced/{s}: artifacts differ from the untraced run's")
    probe = run_proc([sys.executable, "-X", "importtime", "-c", "import commodgen.cli"],
                     tdir / "importtime.log", runner.remaining())
    g.check(probe.code == 0, f"import probe: exit code {probe.code}")
    if g.failures:
        return {}, {}
    traces = {s: layers.Trace(tdir / f"{s}.spans.json") for s in STEPS}
    again = layers.Trace(tdir / "train_repeat.spans.json")
    ops = layers.op_counts(traces["train"])
    g.check(ops == layers.op_counts(again), "traced train: op counts do not repeat")
    sink = traces["train"].ops_under({"losses.sinkhorn_divergence"})
    g.check(sink == again.ops_under({"losses.sinkhorn_divergence"}),
            "traced train: Sinkhorn op counts do not repeat")
    breakdown = layers.parse_importtime((tdir / "importtime.log").read_text())
    overhead = sum(procs[s].wall_s - median(r[s].wall_s for r in untraced) for s in CHAIN)
    metrics = layers.layer_metrics(traces, wl.train_iters, wl.hedge_iters, EVAL_SAMPLES,
                                   breakdown, overhead)
    top_imports = sorted(((k, v) for k, v in breakdown.items() if "." not in k
                          or k.startswith(("scipy.", "commodgen."))),
                         key=lambda kv: -kv[1])[:12]
    record = {"import_ms_by_module": dict(top_imports),
              "op_counts_per_run": ops,
              "top_self_ms": {s: layers.top_self_time(traces[s]) for s in CHAIN},
              "traced_wall_s": {s: procs[s].wall_s for s in STEPS}}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "commodgen" / "cli.py").is_file():
        print(f"error: no commodgen sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))    # runs run_proc's cleanup
    start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    rundir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(wl, args.seed, rundir, start)
    # the build: byte-compile the sources once, as an installed package ships
    # them, so no command pays for compiling and the first run is like the rest
    build = run_proc([sys.executable, "-m", "compileall", "-q", str(SRC / "commodgen")],
                     rundir / "build.log", COMMAND_TIMEOUT_S)
    runner.gate.check(build.code == 0, f"build: compileall exit code {build.code}")

    rounds: list = []
    if args.trace:
        rounds, traced_procs, quality = runner.paired_rounds()
    while not args.trace:
        t_round = time.perf_counter()
        procs, quality = runner.round(f"round{len(rounds)}")
        rounds.append(procs)
        now = time.perf_counter()
        next_end = now - start + (now - t_round)
        if len(rounds) >= MIN_ROUNDS and next_end > min(args.seconds, RUN_LIMIT_S):
            break
    for i in range(1, len(rounds)):
        for s in CHAIN:
            runner.gate.same_bytes(f"round{i}/{s}", rundir / "round0" / s, rundir / f"round{i}" / s)

    metrics = end_to_end(wl, rounds)
    units = dict(END_TO_END)
    record = {}
    if args.trace:
        record["end_to_end_untraced"] = metrics
        metrics, traced = trace_round(runner, wl, rounds, traced_procs)
        record.update(traced)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    g = runner.gate
    failed_ratio = len(g.failures) / g.attempted
    result = {"correct": not g.failures, "attempted": g.attempted,
              "failed": len(g.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
              if not g.failures else {}}

    r0 = rounds[0]
    record.update({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "stamp": stamp(args.seed),
        "workload_params": {"generator": wl.generator, "train_iters": wl.train_iters,
                            "hedge_on_checkpoint": wl.hedge_on_checkpoint,
                            "hedge_iters": wl.hedge_iters, "hedge_train": HEDGE_TRAIN,
                            "eval_samples": EVAL_SAMPLES},
        "rounds": len(rounds),
        "commands": {s: [{"wall_s": r[s].wall_s, "loop_ms": r[s].loop_ms,
                          "rss_mb": r[s].rss_mb, "exit": r[s].code}
                         for r in rounds] for s in STEPS},
        "failed_ratio": failed_ratio, "failures": g.failures,
        "quality": quality,     # of the last untraced round
        "digests": {s: r0[s].files for s in CHAIN},
        "elapsed_s": time.perf_counter() - start,
        "result": result,
    })
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for failure in g.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'failed_ratio':36s} {failed_ratio:14.6g} ratio ({len(g.failures)}/{g.attempted} checks)")
    print(f"quality (information only): {json.dumps(record['quality'])}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
