"""Small trainable blocks: MLPs and a single-gate recurrent cell.

A block registers its weights in a shared `ParamSet` under a caller-chosen
prefix and keeps the tensors registration returns, so it is built once per
parameter set: checkpointing operates on the flat named set and an optimiser
group is a set of name prefixes (`"gen."` takes every block registered under
`gen`).  Each call of an `Mlp` is one `mlp` op and each run of a recurrent
cell over a whole sequence one `gated_scan` op, so a block records one graph
node per call however deep the net or long the sequence.  An `Mlp`'s numpy
kernel (`forward`/`backward`) also serves ops that run the net inside a
larger fused op: CEGEN's `euler_scan` and the hedger's `replicate`.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParamSet, Tensor, _accumulate, _check_finite, _recording, gated_scan


class Mlp:
    """Fully connected stack: `layers` tanh hidden layers, then a linear head.

    `layers=0` gives a plain affine map.  Hidden weights are Xavier
    initialised, biases zero.
    """

    def __init__(self, params: ParamSet, prefix: str, in_dim: int, hidden: int,
                 out_dim: int, layers: int):
        if layers < 0:
            raise ValueError("layers must be >= 0")
        widths = [in_dim] + [hidden] * layers + [out_dim]
        self.layers = [(params.add_xavier(f"{prefix}.w{i}", a, b),
                        params.add_zeros(f"{prefix}.b{i}", (b,)))
                       for i, (a, b) in enumerate(zip(widths[:-1], widths[1:]))]
        self.params = tuple(t for layer in self.layers for t in layer)

    def forward(self, x: np.ndarray, tape: list | None, op: str) -> np.ndarray:
        """The net on rows x (n, in_dim) in numpy: each layer is x @ w + b,
        tanh on all but the last.  A non-finite pre-activation raises
        `NumericOverflowError` naming `op` (tanh would saturate it).  With a
        `tape` list, each layer's input and weight are appended to it for
        `backward`."""
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            if tape is not None:
                tape.append((x, w.data))
            x = np.add(np.matmul(x, w.data), b.data)
            _check_finite(x, op)
            if i < last:
                x = np.tanh(x)
        return x

    def backward(self, tape: list, g: np.ndarray, want_input: bool) -> np.ndarray | None:
        """Route the output gradient g back through a `forward` recorded on
        `tape`: the layers in reverse, one accumulation per weight and bias.
        Returns the input gradient when `want_input`, else None."""
        for i in reversed(range(len(self.layers))):
            (w, b), (x, wd) = self.layers[i], tape[i]
            gx = np.matmul(g, wd.T) if i or want_input else None
            _accumulate(w, np.matmul(x.T, g))
            _accumulate(b, g.sum(axis=0))
            if i:                           # through the tanh whose output x is
                t = x * x
                np.subtract(1.0, t, out=t)
                g = np.multiply(gx, t, out=gx)
        return gx

    def __call__(self, x: Tensor) -> Tensor:
        """The net on rows x (n, in_dim) as one `mlp` op."""
        x = Tensor._lift(x)
        in_dim = self.layers[0][0].data.shape[0]
        if x.ndim != 2 or x.shape[1] != in_dim:
            raise ValueError(f"mlp needs an (n, {in_dim}) input, got shape {x.shape}")
        parents = (x,) + self.params
        tape = [] if _recording(parents) else None
        data = self.forward(x.data, tape, "mlp")

        def backward(g):
            gx = self.backward(tape, g, x.requires_grad)
            if gx is not None:
                _accumulate(x, gx)

        return Tensor._result(data, parents, backward, "mlp")


class RecurrentCell:
    """Minimal gated recurrence:

        z = sigmoid(x Wz + s Uz + bz)
        c = tanh(x Wc + s Uc + bc)
        s' = z * s + (1 - z) * c

    One gate is enough for the short sequences used here.  Calling the cell
    on a sequence (n, T, in_dim) runs it from a zero state and returns its
    states (n, T, state_dim), one `gated_scan` op in the graph.
    """

    def __init__(self, params: ParamSet, prefix: str, in_dim: int, state_dim: int):
        self.weights = [w for gate in ("z", "c") for w in (
            params.add_xavier(f"{prefix}.w{gate}", in_dim, state_dim),
            params.add_xavier(f"{prefix}.u{gate}", state_dim, state_dim),
            params.add_zeros(f"{prefix}.b{gate}", (state_dim,)))]

    def __call__(self, xs: Tensor) -> Tensor:
        return gated_scan(xs, *self.weights)


def per_step(net: Mlp, seq: Tensor) -> Tensor:
    """`net` applied to every step of seq (n, T, k) at once, as (n * T, k)
    rows; returns (n, T, out_dim)."""
    n, seq_len, k = seq.shape
    return net(seq.reshape((n * seq_len, k))).reshape((n, seq_len, -1))
