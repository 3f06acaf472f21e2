"""Per-layer metrics from the span files that `tracer.py` writes.

A span's self time is its duration minus the part its child spans cover;
spans of one process are properly nested, so that part is the sum of the
children's durations.  A layer's time is the total duration of its outermost
spans, so recursion and nested calls inside one layer are not counted twice.
"""

from __future__ import annotations

import json
import statistics

from tracer import OP_FUNCTIONS, TENSOR_OPS

OPS = frozenset(OP_FUNCTIONS) | {f"autodiff.Tensor.{m}" for m in TENSOR_OPS}
TRAIN = "generators.train_generator"
HEDGER = "hedging.train_hedger"
SAMPLE = "generators.GeneratorModel.sample"

# (name, unit, better): every metric `layer_metrics` returns, in this order.
PER_LAYER = (
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_scipy_stats_ms", "ms", "lower"),
    ("dataio.pipeline_ms", "ms", "lower"),
    ("autodiff.ops_per_step", "count", "lower"),
    ("autodiff.op_self_ms_per_step", "ms", "lower"),
    ("autodiff.backward_ms_per_step", "ms", "lower"),
    ("autodiff.adam_ms_per_step", "ms", "lower"),
    ("losses.sinkhorn_ms_per_step", "ms", "lower"),
    ("losses.sinkhorn_ops_per_call", "count", "lower"),
    ("losses.sinkhorn_converged_ratio", "ratio", "higher"),
    ("losses.critic_features_ms_per_step", "ms", "lower"),
    ("losses.transition_ms_per_step", "ms", "lower"),
    ("losses.transition_bucket_use", "ratio", "higher"),
    ("losses.sig_loss_ms_per_step", "ms", "lower"),
    ("losses.sig_fit_ms", "ms", "lower"),
    ("signature.levels_ms_per_step", "ms", "lower"),
    ("signature.levels_calls_per_step", "count", "lower"),
    ("nets.unroll_ms_per_step", "ms", "lower"),
    ("nets.mlp_ms_per_step", "ms", "lower"),
    ("generators.sample_ms_per_1k_paths", "ms", "lower"),
    ("generators.checkpoint_write_ms", "ms", "lower"),
    ("generators.checkpoint_read_ms", "ms", "lower"),
    ("hedging.replicate_ms_per_iter", "ms", "lower"),
    ("hedging.sampler_wait_share", "ratio", "lower"),
    ("hedging.eval_ms", "ms", "lower"),
    ("metrics.report_ms", "ms", "lower"),
    ("store.write_ms", "ms", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("store.read_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Trace:
    """Spans of one traced command, with derived durations and op counts."""

    def __init__(self, path):
        with open(path) as fh:
            raw = json.load(fh)
        self.counters = raw["counters"]
        self.import_ms = raw["import_ms"]
        names = raw["names"]
        spans = raw["spans"]
        self.name = [names[s[0]] for s in spans]
        self.parent = [s[1] for s in spans]
        self.dur = [(s[3] - s[2]) * 1e-3 for s in spans]          # ms
        self.self_ms = list(self.dur)
        self.ops = [1 if n in OPS else 0 for n in self.name]       # ops in subtree
        # children follow their parent in the list, so one reverse pass suffices
        for i in range(len(spans) - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                self.self_ms[p] -= self.dur[i]
                self.ops[p] += self.ops[i]

    def select(self, names, within=None, outside=None):
        """Indices of outermost spans named in `names`, optionally only those
        under a span named in `within` and under none named in `outside`."""
        names = set(names)
        flags = []       # per span: (inside a selected name, inside within, inside outside)
        chosen = []
        for i, name in enumerate(self.name):
            p = self.parent[i]
            if p >= 0:
                sel, win, out = flags[p]
                pname = self.name[p]
                sel = sel or pname in names
                win = win or (within is not None and pname in within)
                out = out or (outside is not None and pname in outside)
            else:
                sel, win, out = False, False, False
            flags.append((sel, win, out))
            if name in names and not sel and (within is None or win) and not out:
                chosen.append(i)
        return chosen

    def total_ms(self, names, **where) -> float:
        return sum(self.dur[i] for i in self.select(names, **where))

    def count(self, names, **where) -> int:
        return len(self.select(names, **where))

    def ops_under(self, names, **where) -> int:
        return sum(self.ops[i] for i in self.select(names, **where))

    def ops_within(self, within):
        """Indices of every op span that runs under a span named in `within`."""
        win = [False] * len(self.name)
        for i, name in enumerate(self.name):
            p = self.parent[i]
            win[i] = p >= 0 and (win[p] or self.name[p] in within)
            if win[i] and name in OPS:
                yield i

    def op_self_ms(self, within) -> float:
        return sum(self.self_ms[i] for i in self.ops_within(within))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: dict, train_iters: int, hedge_iters: int,
                  n_samples: int, import_breakdown: dict,
                  overhead_s: float) -> dict:
    """Every PER_LAYER metric from the traced commands of one round.

    `traces` maps train0/train/eval/hedge to a Trace.  Per-step values
    subtract the 0-iteration command, so one-off set-up inside the training
    call is not spread over the steps.  Metrics of a layer the workload never
    calls read 0.
    """
    t0, tn, ev, hn = (traces[k] for k in ("train0", "train", "eval", "hedge"))
    train = {TRAIN}

    def per_step(fn) -> float:
        return (fn(tn) - fn(t0)) / train_iters

    def step_ms(*names) -> float:
        return per_step(lambda t: t.total_ms(names, within=train))

    sink = tn.counters
    chain = (tn, ev, hn)
    return {
        "cli.import_ms": statistics.median(t.import_ms for t in traces.values()),
        "cli.import_scipy_stats_ms": import_breakdown.get("scipy.stats", 0.0),
        "dataio.pipeline_ms": tn.total_ms({"dataio.load_csv", "dataio.filter_table",
                                           "dataio.windowize", "dataio.fit_normalizer",
                                           "dataio.Normalizer.apply"}),
        "autodiff.ops_per_step": per_step(lambda t: t.ops_under(train)),
        "autodiff.op_self_ms_per_step": per_step(lambda t: t.op_self_ms(train)),
        "autodiff.backward_ms_per_step": step_ms("autodiff.Tensor.backward"),
        "autodiff.adam_ms_per_step": step_ms("autodiff.adam_step",
                                             "autodiff.clip_by_global_norm"),
        "losses.sinkhorn_ms_per_step": step_ms("losses.sinkhorn_divergence"),
        "losses.sinkhorn_ops_per_call": _ratio(
            tn.ops_under({"losses.sinkhorn_divergence"}),
            tn.count({"losses.sinkhorn_divergence"})),
        "losses.sinkhorn_converged_ratio": _ratio(sink["sinkhorn_converged"],
                                                  sink["sinkhorn_calls"]),
        "losses.critic_features_ms_per_step": step_ms("losses.CausalCritic.features"),
        "losses.transition_ms_per_step": step_ms("losses.transition_moment_loss"),
        "losses.transition_bucket_use": _ratio(
            sink["buckets_used"], sink["buckets_used"] + sink["buckets_skipped"]),
        "losses.sig_loss_ms_per_step": step_ms(
            "losses.ConditionalSigMetric.loss_given_prediction"),
        "losses.sig_fit_ms": tn.total_ms({"losses.ConditionalSigMetric.fit",
                                          "losses.ConditionalSigMetric.predict"}),
        "signature.levels_ms_per_step": step_ms("signature.signature_levels"),
        "signature.levels_calls_per_step": per_step(
            lambda t: t.count({"signature.signature_levels"}, within=train)),
        "nets.unroll_ms_per_step": step_ms("nets.unroll_states"),
        "nets.mlp_ms_per_step": step_ms("nets.Mlp.__call__"),
        "generators.sample_ms_per_1k_paths": ev.total_ms({SAMPLE}) * 1000.0 / n_samples,
        "generators.checkpoint_write_ms": tn.total_ms({"generators.save_checkpoint"}),
        "generators.checkpoint_read_ms": ev.total_ms({"generators.load_checkpoint"}),
        "hedging.replicate_ms_per_iter": hn.total_ms(
            {"hedging.replicate_terminal"}, within={HEDGER},
            outside={"hedging.eval_hedger"}) / hedge_iters,
        "hedging.sampler_wait_share": _ratio(hn.total_ms({SAMPLE}, within={HEDGER}),
                                             hn.total_ms({HEDGER})),
        "hedging.eval_ms": hn.total_ms({"hedging.eval_hedger"}),
        "metrics.report_ms": ev.total_ms({"metrics.metric_report"}),
        "store.write_ms": sum(t.total_ms({"store.write_json"}) for t in chain),
        "store.bytes_written": sum(t.counters["store_bytes_written"] for t in chain),
        "store.read_ms": sum(t.total_ms({"store.read_json", "store.file_sha256"})
                             for t in chain),
        "trace.overhead_s": overhead_s,
    }


def top_self_time(trace: Trace, limit: int = 15) -> list:
    """The span names with the most self time in one command, for the record."""
    totals: dict = {}
    for name, ms in zip(trace.name, trace.self_ms):
        totals[name] = totals.get(name, 0.0) + ms
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return [[name, round(ms, 3)] for name, ms in ranked]


def op_counts(trace: Trace, within=frozenset({TRAIN})) -> dict:
    """Calls per op name under the training call; must repeat exactly."""
    counts: dict = {}
    for i in trace.ops_within(within):
        counts[trace.name[i]] = counts.get(trace.name[i], 0) + 1
    return dict(sorted(counts.items()))


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in ms per module from `python -X importtime`."""
    out: dict = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative_us = int(parts[1])
        except ValueError:          # the header line
            continue
        name = parts[2].strip()
        out[name] = max(out.get(name, 0.0), cumulative_us / 1e3)
    return out
