"""Minimal MLP machinery: flat parameter bundles, the SiLU layer, recorded
passes with a hand-written backward, Adam, and the workspace their buffers
live in.

Everything computes in the dtype of the parameters, float32 or float64: the
recorded passes, their buffers, the gradient and Adam's moments, which the
caller owns and `adam_step` updates in place. Production trains float32
parameters; the tests check the formulas on float64 ones, where finite
differences are a valid oracle. Parameters of a network live in one flat
array; `ParamBundle.layers`, the one reading of its layout, gives per-layer
weight/bias views of it or of a gradient, so the optimizer and checkpointing
never have to know the layer structure. `adam_step` writes the new values
into that array in place, so a tape binds its views of the parameters once
and they stay current across steps. `silu_layer` is the one SiLU layer: the
recorded passes of a training step and the network's off-tape forward
(sampling) both run it, into arrays kept in a `Workspace`: a tape has its
own, holding the half-scale parameters and the (rows x hidden) arrays, and
everything smaller is a plain array. A sampling run owns one for all of its
network calls. A step walks its recorded passes back last-in first-out,
adding each into one zeroed gradient.

The SiLU layers run on half-scale parameters (the parameters times 0.5),
which saves two elementwise passes per layer: `silu_layer`'s scratch `s`
holds 2 * sigmoid and its `dact` twice the SiLU derivative, and the tape
scales the SiLU layers' gradient products by 0.5. Every scaling is by a
power of two, so activations, outputs and gradients are bitwise those of
the full-scale formulas unless an intermediate is subnormal (below 1.2e-38
in float32).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    """Dimension mismatch between parameters, inputs, or gradients."""


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
            raise ShapeError("parameter values must be a flat 1-D array")
        expect = param_count(self.layer_shapes)
        if self.values.size != expect:
            raise ShapeError(
                f"parameter count {self.values.size} does not match layer "
                f"shapes (expected {expect})"
            )
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


class Workspace(dict):
    """Arrays kept from one call to the next, one per key.

    `workspace(key, shape, dtype)` returns the array kept under `key`, made
    (np.empty: contents undefined) only when there is none yet or its shape
    or dtype differs from the one asked for. A loop that asks for the same
    shapes allocates nothing after its first pass, and an array handed out
    under a key is the next user's to overwrite. A tape keeps only its
    half-scale parameters and (rows x hidden) arrays in one; anything
    smaller is a plain array.
    The lookup is a call rather than a public method so that perfbench's
    tracer, which wraps public methods, records no span for each of the
    hundreds of lookups in a training step.
    """

    def __call__(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self[key] = np.empty(shape, dtype)
        return buf


# ---------------------------------------------------------------------------
# The SiLU layer, recorded passes and their hand-written backward
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
    intermediate is subnormal. The one implementation of the layer, on and
    off the tape. Returns `out`.
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


@dataclass
class RecordedPass:
    """What the backward of one pass reads.

    The pass ran `x` through `layers` in order: SiLU layers, then one linear
    readout whose value is `out`. `h[j]` and `dact[j]` are the SiLU output and
    twice the SiLU derivative of layers[j], as `silu_layer` gives them. They
    are buffers of the tape that recorded the pass, held until the pass is
    walked back; the walk overwrites `dact`, and the buffers then go to the
    tape's next `record`.
    """

    layers: list[int]
    x: np.ndarray
    h: list[np.ndarray]
    dact: list[np.ndarray]
    out: np.ndarray


class MlpTape:
    """Passes recorded through one ParamBundle, and the gradient they give.

    One step calls `start`, then `record` once per pass and `backward` once
    on each pass that reaches the loss. The live passes (recorded, not yet
    walked back) form a stack: `backward` takes only the last one, and the
    n-th live pass holds the n-th set of activation buffers (its `h` and
    `dact`). `start` zeroes `grads`; each `backward` adds its pass's weight
    and bias gradients into it.

    The SiLU layers run on half-scale parameters: `start` writes values * 0.5
    into a tape buffer, whose views `record` reads for every layer but a
    pass's readout. The walk back carries twice dL/dz through each SiLU
    layer, so its weight and bias gradient products are scaled by 0.5 before
    they add into `grads`, and its input gradient is (2 dL/dz) @ (w / 2).T =
    dL/dz @ w.T, bitwise the full-scale ones unless an intermediate is
    subnormal.

    The tape's Workspace holds the half-scale parameters and the (rows x
    hidden) arrays `h`, `dact`, `sigmoid` and `g`, so a step allocates none
    of those once the batch size and the parameters' dtype stop changing.
    Everything smaller is a plain array: a pass's input, the gradient
    products and `grads`, fresh per step. The views of the parameters and of
    their halves are bound once per values array: `adam_step` writes the new
    values into it, so the same views read them, and `start` rewrites the
    halves in place. Every buffer, `grads` and a pass's output have the
    parameters' dtype; `record` takes its input in that dtype (ScoreNetwork
    casts it).
    """

    def __init__(self):
        self.grads: np.ndarray | None = None
        self._values: np.ndarray | None = None  # the parameter array _layers views
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []  # (w, b) views of params
        self._half_layers: list[tuple[np.ndarray, np.ndarray]] = []  # the same views of params / 2
        self._grad_layers: list[tuple[np.ndarray, np.ndarray]] = []  # the same views of grads
        self._live: list[RecordedPass] = []
        self._buffers = Workspace()

    def start(self, params: ParamBundle) -> None:
        """Begin a step on `params` with an all-zero gradient and no live pass."""
        self.grads = np.zeros_like(params.values)
        half = np.multiply(params.values, 0.5, out=self._buffer("half", params.values.shape))
        if params.values is not self._values:
            self._values = params.values
            self._layers = params.layers()
            self._half_layers = params.layers(half)
        self._grad_layers = params.layers(self.grads)
        self._live = []

    def _buffer(self, key, shape: tuple[int, ...]) -> np.ndarray:
        return self._buffers(key, shape, self.grads.dtype)

    def record(self, x: np.ndarray, layers: Sequence[int]) -> RecordedPass:
        """Run x through `layers`, SiLU on all but the last, and record it."""
        n = len(self._live)
        h, hs, dacts = x, [], []
        for j, k in enumerate(layers[:-1]):
            w, b = self._half_layers[k]
            shape = (x.shape[0], w.shape[1])
            dacts.append(self._buffer(("dact", n, j), shape))
            h = silu_layer(h, w, b, self._buffer(("h", n, j), shape),
                           self._buffer("sigmoid", shape), dacts[-1])
            hs.append(h)
        w, b = self._layers[layers[-1]]
        self._live.append(RecordedPass(list(layers), x, hs, dacts, h @ w + b))
        return self._live[-1]

    def backward(
        self, rec: RecordedPass, g_out: np.ndarray, input_cols: slice | None = None
    ) -> np.ndarray | None:
        """Walk `rec` in reverse from g_out = dL/d(rec.out).

        Adds the pass's weight and bias gradients into `grads` and frees its
        buffers. Returns the columns `input_cols` of dL/d(rec.x), and computes
        no other column, when they are given; otherwise None. g_out is cast to
        the parameters' dtype first. Each SiLU layer's gradient, twice dL/dz,
        is formed in place in the pass's `dact`. `rec` must be the last live
        pass of this step (ValueError otherwise).
        """
        if not self._live or self._live[-1] is not rec:
            raise ValueError("passes go back last-in first-out: this one was walked back already, "
                             "belongs to an earlier step or was recorded before a live pass")
        self._live.pop()
        inputs = [rec.x] + rec.h
        g = np.asarray(g_out, dtype=self.grads.dtype)
        ones = np.ones(len(g), g.dtype)  # bias gradient = ones @ g
        for j in reversed(range(len(rec.layers))):
            k = rec.layers[j]
            silu = j < len(rec.dact)
            if silu:
                g = np.multiply(rec.dact[j], g, out=rec.dact[j])
            gw, gb = self._grad_layers[k]
            dw = inputs[j].T @ g
            db = ones @ g
            if silu:  # products of twice dL/dz
                dw *= 0.5
                db *= 0.5
            gw += dw
            gb += db
            if j == 0:
                break
            w, _ = (self._half_layers if silu else self._layers)[k]
            g = np.matmul(g, w.T, out=self._buffer("g", (g.shape[0], w.shape[0])))
        if input_cols is None:
            return None
        w, _ = (self._half_layers if rec.dact else self._layers)[rec.layers[0]]
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
    if grads.shape != params.values.shape:
        raise ShapeError("gradient length does not match parameter count")
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
