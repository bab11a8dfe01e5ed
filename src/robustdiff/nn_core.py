"""Minimal MLP machinery: flat parameter bundles, the SiLU layer, recorded
passes with a hand-written backward, Adam.

Everything computes in the dtype of the parameters, float32 or float64: the
recorded passes, their buffers, the gradient and Adam's moments. Production
trains float32 parameters; the tests check the formulas on float64 ones, where
finite differences are a valid oracle. Parameters of a network live in one
flat array; per-layer weight/bias views are created on demand so the optimizer
and checkpointing never have to know the layer structure. `silu_layer` is the
one SiLU layer: the recorded passes of a training step and the network's
off-tape forward (sampling) both run it, as one matrix product followed by
in-place passes over the caller's buffers.
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

    def layer(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Weight/bias views into the flat array for layer k (shared memory)."""
        i, o = self.layer_shapes[k]
        off = param_count(self.layer_shapes[:k])
        w = self.values[off : off + i * o].reshape(i, o)
        return w, self.values[off + i * o : off + (i + 1) * o]

    def layer_slices(self) -> list[tuple[slice, slice]]:
        """(weight_slice, bias_slice) into the flat array, per layer."""
        out = []
        off = 0
        for i, o in self.layer_shapes:
            out.append((slice(off, off + i * o), slice(off + i * o, off + (i + 1) * o)))
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
    for k, (i, o) in enumerate(layer_shapes):
        w, _ = bundle.layer(k)
        if k not in zero_layers:
            lim = np.sqrt(6.0 / (i + o))
            w[:] = rng.uniform(-lim, lim, size=(i, o))
    return bundle


# ---------------------------------------------------------------------------
# The SiLU layer, recorded passes and their hand-written backward
# ---------------------------------------------------------------------------


def silu_layer(x, w, b, out, s, dact=None) -> np.ndarray:
    """One SiLU layer into the caller's buffers: z = x @ w + b, s = sigmoid(z)
    and out = h = z * s; with `dact`, also the SiLU derivative s + h * (1 - s).

    The sigmoid is (1 + tanh(z / 2)) / 2, an exact identity that tanh's
    saturation at +-1 keeps finite for every z, with no clip. The pre-activation
    z lives in `out` until h overwrites it. The one implementation of the
    layer, on and off the tape. Returns `out`.
    """
    np.matmul(x, w, out=out)
    out += b
    np.multiply(out, 0.5, out=s)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    out *= s
    if dact is not None:
        np.subtract(1.0, s, out=dact)
        dact *= out
        dact += s
    return out


@dataclass
class RecordedPass:
    """What the backward of one pass reads.

    The pass ran `x` through `layers` in order: SiLU layers, then one linear
    readout whose value is `out`. `h[j]` and `dact[j]` are the SiLU output and
    SiLU derivative of layers[j]. `h` and `dact` live in activation slot
    `slot` of the tape that recorded them until the pass is walked back; the
    walk overwrites `dact`, and the slot then goes to the tape's next `record`.
    """

    layers: list[int]
    x: np.ndarray
    h: list[np.ndarray]
    dact: list[np.ndarray]
    out: np.ndarray
    slot: int


class MlpTape:
    """Passes recorded through one ParamBundle, and the gradient they give.

    One step calls `start`, then `record` once per pass, then `backward`
    once on each pass that reaches the loss. The first contribution to a
    layer's gradient is assigned and later ones are added, in the order of
    the `backward` calls. A pass holds an activation slot (its `h` and `dact`
    buffers) until its `backward`, and `record` takes the lowest free slot,
    so a step needs only as many slots as passes it holds at once. Slots and
    scratch buffers are kept across steps and reallocated only when a shape
    (a new batch size) or the parameters' dtype changes, so a step allocates
    no (batch x width) arrays; `grads` is a fresh array per step. Every
    buffer, `grads` and a pass's output have the parameters' dtype; `record`
    takes its input in that dtype (ScoreNetwork casts it).
    """

    def __init__(self):
        self.grads: np.ndarray | None = None
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []  # (w, b) views of params
        self._grad_layers: list[tuple[np.ndarray, np.ndarray]] = []  # the same views of grads
        self._touched: list[bool] = []
        self._holders: list[RecordedPass | None] = []  # per slot; None: free
        self._buffers: dict = {}

    def start(self, params: ParamBundle) -> None:
        """Begin a step on `params` with an all-zero gradient and every slot free."""
        self.grads = np.zeros_like(params.values)
        self._layers = [params.layer(k) for k in range(len(params.layer_shapes))]
        self._grad_layers = [(self.grads[ws].reshape(w.shape), self.grads[bs])
                             for (ws, bs), (w, _) in zip(params.layer_slices(), self._layers)]
        self._touched = [False] * len(params.layer_shapes)
        self._holders = []

    def _buffer(self, key, shape: tuple[int, ...], init=np.empty) -> np.ndarray:
        dtype = self.grads.dtype
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[key] = init(shape, dtype)
        return buf

    def record(self, x: np.ndarray, layers: Sequence[int]) -> RecordedPass:
        """Run x through `layers`, SiLU on all but the last, and record it."""
        if None not in self._holders:
            self._holders.append(None)
        n = self._holders.index(None)
        h, hs, dacts = x, [], []
        for j, k in enumerate(layers[:-1]):
            w, b = self._layers[k]
            shape = (x.shape[0], w.shape[1])
            dacts.append(self._buffer(("dact", n, j), shape))
            h = silu_layer(h, w, b, self._buffer(("h", n, j), shape),
                           self._buffer("sigmoid", shape), dacts[-1])
            hs.append(h)
        w, b = self._layers[layers[-1]]
        rec = self._holders[n] = RecordedPass(list(layers), x, hs, dacts, h @ w + b, n)
        return rec

    def backward(
        self, rec: RecordedPass, g_out: np.ndarray, input_cols: slice | None = None
    ) -> np.ndarray | None:
        """Walk `rec` in reverse from g_out = dL/d(rec.out).

        Adds the pass's weight and bias gradients into `grads` and frees its
        slot. Returns the columns `input_cols` of dL/d(rec.x), and computes no
        other column, when they are given; otherwise None. g_out is cast to
        the parameters' dtype first. Each SiLU layer's gradient is formed in
        place in the pass's `dact`. A pass goes back once, in the step that
        recorded it (ValueError).
        """
        if rec.slot >= len(self._holders) or self._holders[rec.slot] is not rec:
            raise ValueError("the pass was walked back already or belongs to an earlier step")
        self._holders[rec.slot] = None
        inputs = [rec.x] + rec.h
        g = np.asarray(g_out, dtype=self.grads.dtype)
        for j in reversed(range(len(rec.layers))):
            k = rec.layers[j]
            if j < len(rec.dact):
                g = np.multiply(rec.dact[j], g, out=rec.dact[j])
            self._add_layer_grads(k, inputs[j], g)
            if j == 0:
                break
            w, _ = self._layers[k]
            g = np.matmul(g, w.T, out=self._buffer("g", (g.shape[0], w.shape[0])))
        if input_cols is None:
            return None
        w, _ = self._layers[rec.layers[0]]
        return g @ w[input_cols].T

    def _add_layer_grads(self, k: int, x: np.ndarray, gz: np.ndarray) -> None:
        gw, gb = self._grad_layers[k]
        ones = self._buffer("ones", gz.shape[:1], np.ones)  # bias gradient = ones @ gz
        if self._touched[k]:
            gw += np.matmul(x.T, gz, out=self._buffer(("dw", k), gw.shape))
            gb += np.matmul(ones, gz, out=self._buffer(("db", k), gb.shape))
        else:
            np.matmul(x.T, gz, out=gw)
            np.matmul(ones, gz, out=gb)
            self._touched[k] = True


# Adam's moment decay rates and denominator offset (Kingma & Ba 2015).
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptState:
    """Adam moment estimates matching one ParamBundle, in its dtype."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def fresh(cls, params: ParamBundle) -> "OptState":
        return cls(np.zeros_like(params.values), np.zeros_like(params.values), 0)


def adam_step(
    params: ParamBundle, grads: np.ndarray, state: OptState, lr: float
) -> tuple[ParamBundle, OptState]:
    """One bias-corrected Adam update, in the dtype of `params`; returns new
    params and state.

    Raises NonFiniteError, leaving `params` and `state` as they were, when the
    second moment goes non-finite: a non-finite gradient entry makes it so,
    and so does a finite one whose square overflows.
    """
    grads = np.asarray(grads, dtype=params.values.dtype)
    if grads.shape != params.values.shape:
        raise ShapeError("gradient length does not match parameter count")
    t = state.step_count + 1
    m = BETA1 * state.first_moment + (1.0 - BETA1) * grads
    v = BETA2 * state.second_moment + (1.0 - BETA2) * grads * grads
    if not np.all(np.isfinite(v)):
        finite = np.all(np.isfinite(grads))
        raise NonFiniteError("second moment overflows" if finite else "non-finite gradient entries")
    if np.any(grads):
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        new_values = params.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    else:
        # Contract: an all-zero gradient must leave values exactly untouched,
        # whatever momentum the state carries.
        new_values = params.values.copy()
    new_params = ParamBundle(list(params.layer_shapes), new_values)
    return new_params, OptState(m, v, t)

