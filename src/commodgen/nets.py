"""Small trainable blocks: MLPs and a single-gate recurrent cell.

A block registers its weights in a shared `ParamSet` under a caller-chosen
prefix and keeps the tensors registration returns, so it is built once per
parameter set: checkpointing operates on the flat named set and an optimiser
group is a set of name prefixes (`"gen."` takes every block registered under
`gen`).  Each block is its own fused op over a numpy kernel: a call of an
`Mlp` on rows of any leading shape is one `mlp` op, and a run of a recurrent
cell over a whole sequence one `gated_scan` op, so a block records one graph
node per call however deep the net, long the sequence or many the rows.  An
`Mlp`'s kernel (`forward`/`backward`) also serves ops that run the net
inside a larger fused op: CEGEN's `euler_scan` and the hedger's `replicate`.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParamSet, Tensor, _accumulate, _check_finite, _recording, _sigmoid


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
        """The net on the last axis of x (..., in_dim) as one `mlp` op;
        returns (..., out_dim).  The kernel runs on x as rows."""
        x = Tensor._lift(x)
        in_dim = self.layers[0][0].data.shape[0]
        if x.ndim == 0 or x.shape[-1] != in_dim:
            raise ValueError(f"mlp needs an (..., {in_dim}) input, got shape {x.shape}")
        parents = (x,) + self.params
        tape = [] if _recording(parents) else None
        rows = self.forward(x.data.reshape((-1, in_dim)), tape, "mlp")

        def backward(g):
            gx = self.backward(tape, g.reshape(rows.shape), x.requires_grad)
            if gx is not None:
                _accumulate(x, gx.reshape(x.shape))

        return Tensor._result(rows.reshape(x.shape[:-1] + rows.shape[1:]), parents, backward,
                              "mlp")


class RecurrentCell:
    """Minimal gated recurrence:

        z = sigmoid(x Wz + s Uz + bz)
        c = tanh(x Wc + s Uc + bc)
        s' = z * s + (1 - z) * c

    One gate is enough for the short sequences used here.  `gates` holds
    the (W, U, b) of z, then of c.
    """

    def __init__(self, params: ParamSet, prefix: str, in_dim: int, state_dim: int):
        self.gates = [(params.add_xavier(f"{prefix}.w{gate}", in_dim, state_dim),
                       params.add_xavier(f"{prefix}.u{gate}", state_dim, state_dim),
                       params.add_zeros(f"{prefix}.b{gate}", (state_dim,)))
                      for gate in ("z", "c")]
        self.params = tuple(t for gate in self.gates for t in gate)

    def __call__(self, xs: Tensor) -> Tensor:
        """The cell run over the steps of xs (n, T, in_dim) from a zero state
        as one `gated_scan` op; returns the states (n, T, state_dim).

        Each step makes the numpy calls of the matmul/add/sigmoid/tanh/mul/
        sub chain it fuses.  The backward walks the steps in reverse,
        summing a state's gradient as the chain does (its output gradient,
        then the next step's terms through `z * s`, `s @ Uz`, `s @ Uc`) and
        giving each parameter (all from `ParamSet`, so all require a
        gradient) one accumulation per step, so values and gradients are
        bit-identical to the chain stepped by hand.  Each step's input
        gradient goes into its slice of one array.  Non-finite
        pre-activations raise: sigmoid and tanh would saturate them to a
        finite state.
        """
        xs = Tensor._lift(xs)
        in_dim = self.gates[0][0].data.shape[0]
        if xs.ndim != 3 or xs.shape[2] != in_dim:
            raise ValueError(f"gated_scan needs an (n, T, {in_dim}) sequence, "
                             f"got shape {xs.shape}")
        parents = (xs,) + self.params
        cell = [(w, w.data, u, u.data, b) for w, u, b in self.gates]
        xt = np.ascontiguousarray(np.swapaxes(xs.data, 0, 1))    # each step's input contiguous
        state = np.zeros((xs.shape[0], self.gates[0][1].data.shape[0]))
        data = np.empty(xs.shape[:2] + state.shape[1:])
        record, saved = _recording(parents), []     # no backward operands kept unless recorded
        for t, x in enumerate(xt):
            pre = [np.add(np.add(np.matmul(x, wd), np.matmul(state, ud)), b.data)
                   for _, wd, _, ud, b in cell]
            for p in pre:
                _check_finite(p, "gated_scan")
            z, c = _sigmoid(pre[0]), np.tanh(pre[1])
            keep = np.subtract(1.0, z)
            if record:
                saved.append((state, z, c, keep))
            state = np.add(np.multiply(z, state), np.multiply(keep, c))
            data[:, t, :] = state

        def backward(g):
            gx = np.empty_like(xs.data) if xs.requires_grad else None
            into_state = []          # step t+1's three contributions to state t's gradient
            for t in reversed(range(len(saved))):
                sd, z, c, keep = saved[t]
                gs = g[:, t, :]
                for part in into_state:
                    gs = gs + part
                gz = gs * sd + -(gs * c)
                g_pre = (gz * z * (1.0 - z), gs * keep * (1.0 - c * c))
                into_state = [gs * z] if t else []
                gxt = []
                for gp, (w, wd, u, ud, b) in zip(g_pre, cell):
                    _accumulate(b, gp.sum(axis=0))
                    if gx is not None:
                        gxt.append(np.matmul(gp, wd.T))
                    _accumulate(w, np.matmul(xt[t].T, gp))
                    if t:
                        into_state.append(np.matmul(gp, ud.T))
                    _accumulate(u, np.matmul(sd.T, gp))
                if gx is not None:
                    gx[:, t, :] = gxt[0] + gxt[1]
            if gx is not None:
                _accumulate(xs, gx)

        return Tensor._result(data, parents, backward, "gated_scan")
