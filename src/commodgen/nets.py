"""Small trainable blocks: MLPs and a single-gate recurrent cell.

A block registers its weights in a shared `ParamSet` under a caller-chosen
prefix and keeps the tensors registration returns, so it is built once per
parameter set: checkpointing operates on the flat named set and an optimiser
group is a set of name prefixes (`"gen."` takes every block registered under
`gen`).  Each dense layer is one `affine` op and each run of a recurrent
cell over a whole sequence one `gated_scan` op, so a cell records one graph
node however long the sequence.
"""

from __future__ import annotations

from .autodiff import ParamSet, Tensor, affine, gated_scan


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

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for w, b in self.layers[:-1]:
            h = affine(h, w, b).tanh()
        return affine(h, *self.layers[-1])


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
