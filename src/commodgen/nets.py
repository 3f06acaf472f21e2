"""Small trainable blocks: MLPs and a single-gate recurrent cell.

Weights live in a shared `ParamSet` under a caller-chosen prefix; a block
only remembers its parameter names, so checkpointing operates on the flat
named set and an optimiser group is a set of name prefixes (`"gen."` takes
every block registered under `gen`).  Each dense layer is one `affine` op
and each recurrent step one `gated_step` op, so an unrolled cell records one
graph node per time step besides its input slice.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParamSet, Tensor, affine, concat, gated_step


class Mlp:
    """Fully connected stack: `layers` tanh hidden layers, then a linear head.

    `layers=0` gives a plain affine map.  Hidden weights are Xavier
    initialised, biases zero.
    """

    def __init__(self, params: ParamSet, prefix: str, in_dim: int, hidden: int,
                 out_dim: int, layers: int = 2):
        if layers < 0:
            raise ValueError("layers must be >= 0")
        self.names: list[tuple[str, str]] = []
        widths = [in_dim] + [hidden] * layers + [out_dim]
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            w, bias = f"{prefix}.w{i}", f"{prefix}.b{i}"
            if w not in params:
                params.add_xavier(w, a, b)
                params.add_zeros(bias, (b,))
            self.names.append((w, bias))
        self.params = params

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for w, b in self.names[:-1]:
            h = affine(h, self.params[w], self.params[b]).tanh()
        w, b = self.names[-1]
        return affine(h, self.params[w], self.params[b])


class RecurrentCell:
    """Minimal gated recurrence:

        z = sigmoid(x Wz + s Uz + bz)
        c = tanh(x Wc + s Uc + bc)
        s' = z * s + (1 - z) * c

    One gate is enough for the short sequences used here, and each step is
    a single `gated_step` op in the graph.
    """

    def __init__(self, params: ParamSet, prefix: str, in_dim: int, state_dim: int):
        self.state_dim = state_dim
        self.params = params
        for gate in ("z", "c"):
            if f"{prefix}.w{gate}" not in params:
                params.add_xavier(f"{prefix}.w{gate}", in_dim, state_dim)
                params.add_xavier(f"{prefix}.u{gate}", state_dim, state_dim)
                params.add_zeros(f"{prefix}.b{gate}", (state_dim,))
        self.names = [f"{prefix}.{kind}{gate}" for gate in ("z", "c") for kind in "wub"]

    def initial_state(self, n: int) -> Tensor:
        return Tensor(np.zeros((n, self.state_dim)))

    def step(self, x: Tensor, state: Tensor) -> Tensor:
        return gated_step(x, state, *(self.params[name] for name in self.names))


def unroll_states(cell: RecurrentCell, xs: Tensor) -> list[Tensor]:
    """Run a cell over time-major slices of xs (n, T, in_dim); list of (n, state)."""
    n, seq_len = xs.shape[0], xs.shape[1]
    state = cell.initial_state(n)
    states = []
    for t in range(seq_len):
        state = cell.step(xs[:, t, :], state)
        states.append(state)
    return states


def states_to_sequence(states: list[Tensor]) -> Tensor:
    """Stack per-step (n, k) states into an (n, T, k) sequence tensor."""
    n, k = states[0].shape
    return concat([s.reshape((n, 1, k)) for s in states], axis=1)
