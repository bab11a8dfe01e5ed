"""Minimal MLP machinery: flat parameter bundles, the SiLU layer, the tape
that runs a network's passes, with a hand-written backward, and Adam.

Everything computes in the dtype of the parameters, float32 or float64: the
passes, their buffers, the gradient and Adam's moments, which the caller
owns and `adam_step` updates in place. Production trains float32
parameters; the tests check the formulas on float64 ones, where finite
differences are a valid oracle. Parameters of a network live in one flat
array; `ParamBundle.layers`, the one reading of its layout, gives per-layer
weight/bias views of it or of a gradient, so the optimizer and checkpointing
never have to know the layer structure. `adam_step` writes the new values
into that array in place, so a tape, built on one ParamBundle, reads the
current values at every step.
`silu_layer` is the one SiLU layer, and `MlpTape` the one code that runs
it: its recorded passes for a training step and its unrecorded `forward`
for sampling, through one layer loop, into (rows x hidden) arrays the tape
keeps. The tape is a stack: a step walks its recorded passes back
last-in first-out, with no handle to name them, adding each into one zeroed
gradient.

Every layer runs on half-scale parameters (the parameters times 0.5), and a
readout doubles its product. That saves two elementwise passes per SiLU
layer: `silu_layer`'s scratch `s` holds 2 * sigmoid and its `dact` twice the
SiLU derivative, and the tape scales every gradient product by 0.5. Every
scaling is by a power of two, so activations, outputs and gradients are
bitwise those of the full-scale formulas unless an intermediate is
subnormal (below 1.2e-38 in float32). No other module knows of the halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class NonFiniteError(FloatingPointError):
    """A non-finite value showed up where the math requires finite numbers."""


def param_count(layer_shapes: Sequence[tuple[int, int]]) -> int:
    return int(sum((i + 1) * o for i, o in layer_shapes))


@dataclass
class ParamBundle:
    """Flat parameter vector plus the layer layout it encodes.

    Layout per layer: weight matrix (in_dim*out_dim values, row-major,
    shape (in_dim, out_dim)) followed by the bias (out_dim values). The dtype
    of `values` is the compute dtype: float32 stays float32, anything else
    becomes float64.
    """

    layer_shapes: list[tuple[int, int]]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        self.values = values if values.dtype == np.float32 else np.asarray(values, np.float64)
        if self.values.ndim != 1:
            raise ValueError("parameter values must be a flat 1-D array")
        expect = param_count(self.layer_shapes)
        if self.values.size != expect:
            raise ValueError(f"parameter count {self.values.size} does not match layer "
                             f"shapes (expected {expect})")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteError("parameter values must be finite")

    def layers(self, flat: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views per layer into `values`, or into `flat`, any
        array in the same layout such as a gradient (shared memory)."""
        flat = self.values if flat is None else flat
        out, off = [], 0
        for i, o in self.layer_shapes:
            w = flat[off : off + i * o].reshape(i, o)
            out.append((w, flat[off + i * o : off + (i + 1) * o]))
            off += (i + 1) * o
        return out


def init_params(
    layer_shapes: Sequence[tuple[int, int]],
    seed: int,
    zero_layers: Sequence[int] = (),
) -> ParamBundle:
    """Glorot-uniform weights (±sqrt(6/(in+out))), zero biases.

    Layers listed in zero_layers get all-zero weights too (used for output
    heads that should start as the zero map).
    """
    rng = np.random.default_rng(seed)
    values = np.zeros(param_count(layer_shapes))
    bundle = ParamBundle(list(layer_shapes), values)
    for k, (w, _) in enumerate(bundle.layers()):
        if k not in zero_layers:
            lim = np.sqrt(6.0 / sum(w.shape))
            w[:] = rng.uniform(-lim, lim, size=w.shape)
    return bundle


# ---------------------------------------------------------------------------
# The SiLU layer and the tape: passes, recorded or not, and their backward
# ---------------------------------------------------------------------------


def silu_layer(x, w_half, b_half, out, s, dact=None) -> np.ndarray:
    """One SiLU layer of weights w and bias b, given as w_half = w / 2 and
    b_half = b / 2, into the caller's buffers.

    out = x @ w_half + b_half is z / 2 for z = x @ w + b; s = 1 + tanh(z / 2)
    is 2 * sigmoid(z), an exact identity that tanh's saturation at +-1 keeps
    finite for every z, with no clip; then out = h = (z / 2) * s = z *
    sigmoid(z). With `dact`, also (2 - s) * h + s, twice the SiLU derivative
    sigmoid + h * (1 - sigmoid). h and dact / 2 are bitwise those of the
    full-scale formula, sigmoid = (1 + tanh(z * 0.5)) * 0.5, unless an
    intermediate is subnormal. The one implementation of the layer, in
    recorded passes and unrecorded ones; the tape's readouts read the same
    half-scale parameters and double their product. Returns `out`.
    """
    np.matmul(x, w_half, out=out)
    out += b_half
    np.tanh(out, out=s)
    s += 1.0
    out *= s
    if dact is not None:
        np.subtract(2.0, s, out=dact)
        dact *= out
        dact += s
    return out


class MlpTape:
    """A stack of passes recorded through one ParamBundle, the gradient they
    give, and the unrecorded `forward`.

    The tape binds its views of a half-scale copy of the parameters when it
    is built; `start` and `forward` rewrite values * 0.5 into that copy, so
    the views read the values `adam_step` wrote in place, halved. One step
    calls `start`, then `record` once per pass and `backward` once per
    recorded pass. The live passes (recorded, not yet walked back) form a
    stack: `backward` walks back the last one. Every pass runs in the next
    free slot, slot n when n passes are live, whose buffers are its SiLU
    outputs `h` and, for a recorded pass, twice their derivatives `dact`.
    `start` makes `grads` a fresh zero array, so a step's gradient outlives
    the next step; each `backward` adds its pass's weight and bias gradients
    into it.

    Every layer runs on the half-scale copy, and a readout doubles its
    product. The walk back starts from twice dL/d(output) and carries twice
    dL/dz through each SiLU layer, so every weight and bias gradient product
    is scaled by 0.5 before it adds into `grads`, and each input gradient is
    (2 dL/dz) @ (w / 2).T = dL/dz @ w.T, bitwise the full-scale ones unless
    an intermediate is subnormal.

    The tape keeps the (rows x hidden) arrays `h`, `dact`, `sigmoid` and
    `g`, one per key, so neither a step nor a sampling run allocates those
    once its row count stops changing. Everything smaller is a plain array:
    a pass's input and output, the gradient products and `grads`. Every
    buffer, `grads` and a pass's output have the parameters' dtype; `record`
    and `forward` take their input in that dtype (ScoreNetwork writes it so).
    """

    def __init__(self, params: ParamBundle):
        self._params = params
        self._half = params.values * 0.5  # rewritten by every start and forward
        self._layers = params.layers(self._half)  # (w / 2, b / 2) views
        self.grads: np.ndarray | None = None
        self._grad_layers: list[tuple[np.ndarray, np.ndarray]] = []  # the same views of grads
        self._live: list[tuple[list[int], np.ndarray]] = []  # (layers, x) per live pass
        self._buffers: dict = {}

    def start(self) -> None:
        """Begin a step with an all-zero gradient and no live pass."""
        self.grads = np.zeros_like(self._half)
        np.multiply(self._params.values, 0.5, out=self._half)
        self._grad_layers = self._params.layers(self.grads)
        self._live = []

    def _buffer(self, key, shape: tuple[int, ...]) -> np.ndarray:
        """The array kept under `key`, made (contents undefined) when there is
        none yet or its shape differs: the next user of `key` overwrites it."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self._buffers[key] = np.empty(shape, self._half.dtype)
        return buf

    def _run(self, x: np.ndarray, layers: Sequence[int], recorded: bool) -> np.ndarray:
        """Run x through `layers`, SiLU on all but the last, in the next free
        slot, and return the output, a fresh array. An unrecorded pass
        writes two of the slot's `h` arrays in turn (a layer never writes the
        one it reads) and no `dact`."""
        n = len(self._live)
        h = x
        for j, k in enumerate(layers[:-1]):
            w, b = self._layers[k]
            shape = (x.shape[0], w.shape[1])
            h = silu_layer(h, w, b, self._buffer(("h", n, j if recorded else j % 2), shape),
                           self._buffer("sigmoid", shape),
                           self._buffer(("dact", n, j), shape) if recorded else None)
        w, b = self._layers[layers[-1]]
        out = h @ w
        out += b
        out *= 2.0
        return out

    def forward(self, x: np.ndarray, layers: Sequence[int]) -> np.ndarray:
        """Run x through `layers` as `record` does, recording nothing, and
        return the output, a fresh array.

        Halves the parameters afresh on every call, so it follows values
        changed in place since the last `start`. A live pass is left as it
        was: the next free slot is none of theirs, and their layers read
        nothing else `forward` writes but the half-scale copy, rewritten with
        the same values when none changed.
        """
        np.multiply(self._params.values, 0.5, out=self._half)
        return self._run(x, layers, recorded=False)

    def record(self, x: np.ndarray, layers: Sequence[int]) -> np.ndarray:
        """Run x through `layers`, SiLU on all but the last, record the pass
        and return its output."""
        out = self._run(x, layers, recorded=True)
        self._live.append((list(layers), x))
        return out

    def backward(self, g_out: np.ndarray, input_cols: slice | None = None) -> np.ndarray | None:
        """Walk the last live pass in reverse from g_out = dL/d(its output).

        Adds the pass's weight and bias gradients into `grads` and frees its
        slot. Returns the columns `input_cols` of dL/d(its input), and
        computes no other column, when they are given; otherwise None. g_out
        is cast to the parameters' dtype first. Each SiLU layer's gradient,
        twice dL/dz, is formed in place in the slot's `dact`. Raises
        IndexError when no pass is live.
        """
        layers, x = self._live.pop()
        n = len(self._live)
        g = np.asarray(g_out, dtype=self.grads.dtype) * 2.0
        ones = np.ones(len(g), g.dtype)  # bias gradient = ones @ g
        for j in reversed(range(len(layers))):
            if j < len(layers) - 1:
                dact = self._buffers["dact", n, j]
                g = np.multiply(dact, g, out=dact)
            gw, gb = self._grad_layers[layers[j]]
            dw = (x if j == 0 else self._buffers["h", n, j - 1]).T @ g
            db = ones @ g
            dw *= 0.5
            db *= 0.5
            gw += dw
            gb += db
            if j == 0:
                break
            w, _ = self._layers[layers[j]]
            g = np.matmul(g, w.T, out=self._buffer("g", (g.shape[0], w.shape[0])))
        if input_cols is None:
            return None
        w, _ = self._layers[layers[0]]
        return g @ w[input_cols].T


# Adam's moment decay rates and denominator offset (Kingma & Ba 2015).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params: ParamBundle, grads: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float) -> None:
    """Step `t` (counted from 1) of plain bias-corrected Adam, in the dtype of
    `params`: updates the moments `m` and `v` and then `params.values` in
    place.

    Raises NonFiniteError, leaving `params.values` as they were, when the
    second moment goes non-finite (a non-finite gradient entry makes it so,
    and so does a finite one whose square overflows) or a new value does.
    """
    grads = np.asarray(grads, dtype=params.values.dtype)
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads * grads
    if not np.all(np.isfinite(v)):
        finite = np.all(np.isfinite(grads))
        raise NonFiniteError("second moment overflows" if finite else "non-finite gradient entries")
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_values = params.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.all(np.isfinite(new_values)):
        raise NonFiniteError("non-finite parameter values")
    params.values[:] = new_values
