"""Reverse-mode automatic differentiation over dense float64 blocks.

A `Tensor` wraps a numpy array together with the recipe for routing an
output gradient back to its parents.  Each op builds the routing closure at
forward time; `backward()` topologically sorts the reachable graph and runs
the closures once in reverse order.  The vocabulary is small and fixed:
elementwise arithmetic, matmul, exp/log/sqrt, tanh/sigmoid/softplus,
sum/mean reductions, slicing, reshape/transpose and concatenation.  That is
enough for every network and loss in this package, and keeping it small
keeps the gradient of every op individually testable.

Ops never mutate their inputs.  Non-finite values in any op result raise
`NumericOverflowError` naming the op, so a diverging training loop fails
loudly instead of propagating NaNs.  Ops set no `np.errstate` of their own:
the CLI enters one around each command, so library callers outside it may
see numpy's `RuntimeWarning` (overflow, divide by zero, invalid value) just
before the `NumericOverflowError`.  Subgraphs that cannot influence any
parameter (no parent requires a gradient) are not recorded at all.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .rng import rng_for


class NumericOverflowError(ArithmeticError):
    """An op produced a non-finite value (overflow, log of <= 0, 0/0, ...)."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Context in which ops record no graph; outputs are plain constants."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _accumulate(node: "Tensor", grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = grad.copy() if grad.base is not None or grad is node.data else grad
    else:
        node.grad = node.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"
        self._consumed = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        if not np.isfinite(data).all():
            raise NumericOverflowError(f"non-finite result in op '{op}'")
        out = object.__new__(Tensor)
        out.data = data
        out.grad = None
        out._consumed = False
        out._op = op
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- bookkeeping ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = _apply("add", np.add, self.data, other.data)

        def backward(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(g, other.data.shape))

        return Tensor._result(data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            _accumulate(self, -g)

        return Tensor._result(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = _apply("sub", np.subtract, self.data, other.data)

        def backward(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(-g, other.data.shape))

        return Tensor._result(data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = _apply("mul", np.multiply, self.data, other.data)

        def backward(g):
            _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor._result(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = _apply("div", np.divide, self.data, other.data)

        def backward(g):
            _accumulate(self, _unbroadcast(g / other.data, self.data.shape))
            _accumulate(other, _unbroadcast(-g * data / other.data, other.data.shape))

        return Tensor._result(data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._lift(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        e = float(exponent)
        data = _apply("pow", np.power, self.data, e)

        def backward(g):
            _accumulate(self, g * e * _apply("pow", np.power, self.data, e - 1.0))

        return Tensor._result(data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs 2d+ operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        data = _apply("matmul", np.matmul, a, b)

        def backward(g):
            _accumulate(self, _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape))
            _accumulate(other, _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape))

        return Tensor._result(data, (self, other), backward, "matmul")

    # -- pointwise nonlinearities ------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g):
            _accumulate(self, g * data)

        return Tensor._result(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g):
            _accumulate(self, g / self.data)

        return Tensor._result(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g):
            _accumulate(self, g * 0.5 / data)

        return Tensor._result(data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g):
            _accumulate(self, g * (1.0 - data * data))

        return Tensor._result(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = _sigmoid(self.data)

        def backward(g):
            _accumulate(self, g * data * (1.0 - data))

        return Tensor._result(data, (self,), backward, "sigmoid")

    def softplus(self) -> "Tensor":
        # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), stable for large |x|
        data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))
        sig = _sigmoid(self.data)

        def backward(g):
            _accumulate(self, g * sig)

        return Tensor._result(data, (self,), backward, "softplus")

    # -- reductions and shape ops --------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g):
            if axis is None:
                _accumulate(self, np.broadcast_to(g, shape).astype(np.float64, copy=True))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                _accumulate(self, np.broadcast_to(gg, shape).astype(np.float64, copy=True))

        return Tensor._result(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def reshape(self, shape) -> "Tensor":
        shape = tuple(shape)
        old = self.data.shape
        data = self.data.reshape(shape)

        def backward(g):
            _accumulate(self, g.reshape(old))

        return Tensor._result(data, (self,), backward, "reshape")

    def transpose(self, axes=None) -> "Tensor":
        data = np.transpose(self.data, axes)
        inverse = None if axes is None else tuple(np.argsort(axes))

        def backward(g):
            _accumulate(self, np.transpose(g, inverse))

        return Tensor._result(data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, index, g)
            _accumulate(self, full)

        out = Tensor._result(np.array(data, dtype=np.float64, copy=True), (self,), backward, "slice")
        return out

    # -- backward pass -----------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into `.grad` of every reachable leaf.

        `seed` defaults to ones and must match the output shape.  A trace can
        be consumed only once; building a second trace requires re-running the
        forward pass (parameters themselves can of course be reused).
        """
        if not self.requires_grad:
            raise RuntimeError("output does not require gradients; nothing to backpropagate")
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed gradient needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {seed.shape} != output shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in order:
            if node._parents and node._consumed:
                raise RuntimeError("graph trace already consumed by a previous backward(); "
                                   "re-run the forward pass before differentiating again")

        _accumulate(self, seed)
        for node in reversed(order):
            if node._parents:
                node._consumed = True
                if node.grad is not None:
                    node._backward(node.grad)
                    node.grad = None if node is not self else node.grad


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically symmetric logistic function; never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _apply(op: str, fn, *arrays):
    try:
        return fn(*arrays)
    except ValueError as exc:
        shapes = " vs ".join(str(np.shape(a)) for a in arrays)
        raise ValueError(f"{op}: incompatible shapes {shapes}") from exc


def _axis_count(shape: tuple, axis) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    n = 1
    for a in axes:
        n *= shape[a]
    return n


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    data = _apply("concat", lambda *arrs: np.concatenate(arrs, axis=axis), *[t.data for t in tensors])
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return Tensor._result(data, tuple(tensors), backward, "concat")


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """log(sum(exp(t))) along an axis, shift-stabilised, as one op.

    The shift is a constant that cancels analytically, so the gradient is
    the output gradient times the softmax weights exp(t - shift) / sum.  The
    forward and backward make the same numpy calls, in the same order, as the
    sub/exp/sum/log/add chain of ops they fuse, so both are bit-identical to it.
    """
    shift = np.max(t.data, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    e = np.exp(np.subtract(t.data, shift))
    s = e.sum(axis=axis, keepdims=True)
    data = np.add(np.log(s), shift)
    if not keepdims:
        data = np.squeeze(data, axis=axis)

    def backward(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accumulate(t, (gg / s) * e)

    return Tensor._result(data, (t,), backward, "logsumexp")


# ---------------------------------------------------------------------------
# parameters and optimisation


class ParamSet:
    """Named trainable tensors with deterministic initialisation.

    Initial values are drawn from a stream keyed on (seed, "init", name), so
    parameter values do not depend on registration order.  Shapes are fixed
    at creation.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter '{name}' already registered")
        t = Tensor(np.array(value, dtype=np.float64, copy=True), requires_grad=True)
        self._params[name] = t
        return t

    def add_xavier(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        scale = math.sqrt(2.0 / (fan_in + fan_out))
        draw = rng_for(self.seed, "init", name).standard_normal((fan_in, fan_out))
        return self.add(name, scale * draw)

    def add_zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape, dtype=np.float64))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        return ((k, self._params[k]) for k in self.names())

    def take_grads(self) -> dict[str, np.ndarray]:
        """Collect and clear accumulated gradients (zeros where none)."""
        grads = {}
        for name, p in self.items():
            grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad
            p.grad = None
        return grads

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, value in state.items():
            value = np.asarray(value, dtype=np.float64)
            if name in self._params:
                if self._params[name].data.shape != value.shape:
                    raise ValueError(f"parameter '{name}' shape mismatch: "
                                     f"{self._params[name].data.shape} != {value.shape}")
                self._params[name].data = value.copy()
            else:
                self.add(name, value)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for Adam with bias correction."""

    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be non-negative")


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: AdamState):
    """One Adam update on the named subset in `grads`; returns (params, state)."""
    state.step += 1
    t = state.step
    for name in sorted(grads):
        g = np.asarray(grads[name], dtype=np.float64)
        p = params[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter '{name}' shape {p.data.shape}")
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - ADAM_BETA1) * g if m is None else ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = (1.0 - ADAM_BETA2) * g * g if v is None else ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float = 10.0):
    """Scale all gradients down so the joint l2 norm is at most `max_norm`."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        grads = {k: g * factor for k, g in grads.items()}
    return grads, total


class Optimizer:
    """Clipped Adam over the parameters whose names start with one of
    `prefixes` (the default "" takes them all).

    `step(grads)` takes the full gradient dict of `ParamSet.take_grads()`,
    keeps this group's entries, negates them when the group ascends (a
    critic maximising the loss the generator minimises), clips them to
    `clip_norm` jointly and applies one Adam update; it returns the pre-clip
    gradient norm.  Two optimisers may share one `state` (step counter and
    moments) by assignment.
    """

    def __init__(self, params: ParamSet, lr: float, clip_norm: float,
                 prefixes: tuple = ("",)):
        self.params = params
        self.state = AdamState(lr=lr)
        self.clip_norm = clip_norm
        self.prefixes = prefixes

    def step(self, grads: dict[str, np.ndarray], ascend: bool = False) -> float:
        group = {k: -g if ascend else g for k, g in grads.items() if k.startswith(self.prefixes)}
        group, norm = clip_by_global_norm(group, self.clip_norm)
        adam_step(self.params, group, self.state)
        return norm
