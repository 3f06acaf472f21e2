"""Reverse-mode automatic differentiation over dense float64 blocks.

A `Tensor` wraps a numpy array together with the recipe for routing an
output gradient back to its parents.  Each op states its forward value and
each operand's gradient as a function of the output's; two helpers route
it: `_unary` hands it to the one operand, and `_binary` sums it down to the
shape of each operand that requires one (undoing numpy broadcasting).
`backward()` topologically sorts the reachable graph and runs each node's
routing once in reverse order.  The vocabulary is small and fixed:
elementwise arithmetic, matmul, exp/log/sqrt, tanh/sigmoid/softplus,
sum/mean reductions, slicing, reshape/transpose and concatenation.  That is
enough for every network and loss in this package, and keeping it small
keeps the gradient of every op individually testable.  Hot paths are fused
ops that other modules record over the private helpers (`Tensor._result`,
`_recording`, `_accumulate`, `_check_finite`), which cuts the per-op
overhead: `mlp` and `gated_scan` (a whole `nets.Mlp` call and a whole
`nets.RecurrentCell` run), `euler_scan` (CEGEN's Euler scheme), `replicate`
(a hedger's terminal portfolio value) and the loss kernels.  Ops call numpy
directly, so a shape mismatch raises numpy's own `ValueError`.

Ops never mutate their inputs.  Non-finite values in any op result raise
`NumericOverflowError` naming the op, so a diverging training loop fails
loudly instead of propagating NaNs; a fused op also checks the
intermediates that a saturating step inside it could turn finite.  Ops set
no `np.errstate` of their own: the CLI enters one around each command, so
library callers outside it may see numpy's `RuntimeWarning` (overflow,
divide by zero, invalid value) just before the `NumericOverflowError`.
Subgraphs that cannot influence any parameter (no parent requires a
gradient) are not recorded at all, and operands that need no gradient
receive none.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

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
        _check_finite(data, op)
        out = object.__new__(Tensor)
        out.data = data
        out.grad = None
        out._consumed = False
        out._op = op
        if _recording(parents):
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"

    # -- gradient routing -------------------------------------------------------

    def _unary(self, data: np.ndarray, grad, op: str) -> "Tensor":
        """The result of a one-operand op; `grad(g)` is the operand's gradient."""
        return Tensor._result(data, (self,), lambda g: _accumulate(self, grad(g)), op)

    def _binary(self, other, data: np.ndarray, grad_self, grad_other, op: str) -> "Tensor":
        """The result of a broadcasting two-operand op: each operand that
        requires a gradient gets `grad_*(g)` summed down to its shape."""
        def backward(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(grad_self(g), self.data.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(grad_other(g), other.data.shape))

        return Tensor._result(data, (self, other), backward, op)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return self._binary(other, np.add(self.data, other.data), lambda g: g, lambda g: g, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self._unary(-self.data, lambda g: -g, "neg")

    def __sub__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return self._binary(other, np.subtract(self.data, other.data),
                            lambda g: g, lambda g: -g, "sub")

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        return self._binary(other, np.multiply(self.data, other.data),
                            lambda g: g * other.data, lambda g: g * self.data, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        data = np.divide(self.data, other.data)
        return self._binary(other, data, lambda g: g / other.data,
                            lambda g: -g * data / other.data, "div")

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs 2d+ operands, got {a.shape} @ {b.shape}")
        return self._binary(other, np.matmul(a, b),
                            lambda g: np.matmul(g, np.swapaxes(b, -1, -2)),
                            lambda g: np.matmul(np.swapaxes(a, -1, -2), g), "matmul")

    # -- pointwise nonlinearities ------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return self._unary(data, lambda g: g * data, "exp")

    def log(self) -> "Tensor":
        return self._unary(np.log(self.data), lambda g: g / self.data, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return self._unary(data, lambda g: g * 0.5 / data, "sqrt")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return self._unary(data, lambda g: g * (1.0 - data * data), "tanh")

    def sigmoid(self) -> "Tensor":
        data = _sigmoid(self.data)
        return self._unary(data, lambda g: g * data * (1.0 - data), "sigmoid")

    def softplus(self) -> "Tensor":
        return self._unary(_softplus(self.data), lambda g: g * _sigmoid(self.data), "softplus")

    # -- reductions and shape ops --------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def grad(g):
            g = g if axis is None or keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).astype(np.float64, copy=True)

        return self._unary(self.data.sum(axis=axis, keepdims=keepdims), grad, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def reshape(self, shape) -> "Tensor":
        old = self.data.shape
        return self._unary(self.data.reshape(tuple(shape)), lambda g: g.reshape(old), "reshape")

    def transpose(self) -> "Tensor":
        return self._unary(np.transpose(self.data), np.transpose, "transpose")

    def __getitem__(self, index) -> "Tensor":
        shape = self.data.shape

        def grad(g):
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, index, g)
            return full

        return self._unary(np.array(self.data[index], dtype=np.float64, copy=True), grad, "slice")

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


def _recording(parents) -> bool:
    """Whether an op over `parents` records a graph node (and so whether a
    fused op must keep the operands of its backward)."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), stable for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically symmetric logistic function; never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _axis_count(shape: tuple, axis) -> int:
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    n = 1
    for a in axes:
        n *= shape[a]
    return n


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return Tensor._result(data, tuple(tensors), backward, "concat")


def _check_finite(data: np.ndarray, op: str) -> None:
    """Raise `NumericOverflowError` naming `op` unless every entry is finite."""
    if not np.isfinite(data).all():
        raise NumericOverflowError(f"non-finite result in op '{op}'")


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
        """Overwrite registered parameters with `state`'s values; a name that
        is not registered raises KeyError and a changed shape ValueError."""
        for name, value in state.items():
            value = np.asarray(value, dtype=np.float64)
            if self._params[name].data.shape != value.shape:
                raise ValueError(f"parameter '{name}' shape mismatch: "
                                 f"{self._params[name].data.shape} != {value.shape}")
            self._params[name].data = value.copy()


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Clipped Adam over the parameters whose names start with one of
    `prefixes` (the default "" takes them all).

    `step(grads)` takes the full gradient dict of `ParamSet.take_grads()`,
    keeps this group's entries, negates them when the group ascends (a
    critic maximising the loss the generator minimises), scales them down
    so their joint l2 norm is at most `clip_norm` and applies one Adam
    update with bias correction; it returns the pre-clip gradient norm.
    The step count `t` and the moments `m` and `v` (dicts by parameter
    name) are plain attributes.
    """

    def __init__(self, params: ParamSet, lr: float, clip_norm: float,
                 prefixes: tuple = ("",)):
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self.prefixes = prefixes
        self.t, self.m, self.v = 0, {}, {}

    def step(self, grads: dict[str, np.ndarray], ascend: bool = False) -> float:
        group = {k: -g if ascend else g for k, g in grads.items() if k.startswith(self.prefixes)}
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in group.values()))
        if norm > self.clip_norm and norm > 0.0:
            factor = self.clip_norm / norm
            group = {k: g * factor for k, g in group.items()}
        self.t += 1
        for name in sorted(group):
            g, p = group[name], self.params[name]
            if name in self.m:
                m = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
                v = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            else:
                m, v = (1.0 - ADAM_BETA1) * g, (1.0 - ADAM_BETA2) * g * g
            self.m[name], self.v[name] = m, v
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return norm
