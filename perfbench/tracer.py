"""Run one `commodgen` CLI command with every layer boundary traced.

    python3 perfbench/tracer.py SPANS.json -- train-gen --config c.json --out d
    python3 perfbench/tracer.py --loops SPANS.json -- hedge --config c.json --out d

The wrappers are installed from outside the package, after import and before
the command runs.  Each call into a public function or method of a
`commodgen` module becomes one span (name, parent, start, end) kept in memory
and written to SPANS.json when the command ends, together with counters read
off return values: Sinkhorn convergence, transition-bucket use and bytes the
store layer wrote.

A function is wrapped at the name its caller resolves.  Module globals bound
by `from .x import f`, and module-level dicts holding functions (the
activation table in `nets`), are rebound to the same wrapper as the defining
module's name; methods are wrapped on their class, so `GeneratorModel.sample`
is traced wherever it is called from.  The wrappers only time and count:
they pass arguments and results through unchanged.

With `--loops` only the two training loops are wrapped, `train_generator`
and `train_hedger` at the names `cli` calls them by: one span each, which
times the loop from inside the process, free of start-up and import jitter.
Untraced benchmark commands run this way.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("autodiff", "rng", "dataio", "stochastic", "signature", "nets",
           "losses", "generators", "metrics", "hedging", "store", "cli")

# Tensor methods that record a graph node (or call ops that do); with the
# module functions `concat`, `logsumexp` and `stack_along` these are the ops
# counted by `autodiff.ops_per_step`.
TENSOR_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
              "__matmul__", "__getitem__", "exp", "log", "sqrt", "tanh",
              "sigmoid", "relu", "softplus", "sum", "mean", "reshape",
              "transpose")
OP_FUNCTIONS = ("autodiff.concat", "autodiff.logsumexp", "autodiff.stack_along")
LOOPS = ("generators.train_generator", "hedging.train_hedger")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name_id, parent, start_us, end_us]
        self._stack: list[int] = []
        self.counters = {"sinkhorn_calls": 0, "sinkhorn_converged": 0,
                         "buckets_used": 0, "buckets_skipped": 0,
                         "store_bytes_written": 0}

    def wrap(self, name: str, fn, observe=None):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter, self.t0

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, clock() - t0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock() - t0
                stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str, **extra) -> None:
        payload = {"names": self.names, "counters": self.counters, **extra,
                   "spans": [[s[0], s[1], round(s[2] * 1e6), round(s[3] * 1e6)]
                             for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _observe_sinkhorn(counters, args, result):
    counters["sinkhorn_calls"] += 1
    counters["sinkhorn_converged"] += bool(result.converged)


def _observe_transition(counters, args, result):
    counters["buckets_used"] += result.used_buckets
    counters["buckets_skipped"] += result.skipped_buckets


def _observe_write(counters, args, result):
    counters["store_bytes_written"] += os.path.getsize(args[0])


OBSERVERS = {"losses.sinkhorn_divergence": _observe_sinkhorn,
             "losses.transition_moment_loss": _observe_transition,
             "store.write_json": _observe_write}


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__call__"


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the commodgen modules."""
    modules = {m: importlib.import_module(f"commodgen.{m}") for m in MODULES}
    wrapped: dict[int, object] = {}    # id(original) -> wrapper
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _public(attr):
                name = f"{short}.{attr}"
                wrapped[id(obj)] = tracer.wrap(name, obj, OBSERVERS.get(name))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn):
                        continue
                    if not (_public(meth) or (obj.__name__ == "Tensor" and meth in TENSOR_OPS)):
                        continue
                    wrapper = tracer.wrap(f"{short}.{obj.__name__}.{meth}", fn)
                    wrapped.setdefault(id(fn), wrapper)
                    setattr(obj, meth, wrapper)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]


def install_loops(tracer: Tracer) -> None:
    """Wrap only the training loops, at the names `cli` calls them by."""
    cli = importlib.import_module("commodgen.cli")
    for name in LOOPS:
        attr = name.split(".")[1]
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))


def main(argv: list[str]) -> int:
    loops = argv[:1] == ["--loops"]
    argv = argv[loops:]
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py [--loops] SPANS.json -- <commodgen command> [args]",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    start = time.perf_counter()
    import commodgen.cli
    import_ms = (time.perf_counter() - start) * 1e3
    (install_loops if loops else install)(tracer)
    code = 1
    try:
        code = commodgen.cli.main(argv[2:])
    finally:
        tracer.dump(argv[0], exit_code=code, import_ms=import_ms)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
