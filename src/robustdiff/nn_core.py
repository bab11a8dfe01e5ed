"""Minimal MLP machinery: flat parameter bundles, reverse-mode gradients, Adam.

Everything runs on float64 numpy arrays. Parameters of a network live in one
flat array; per-layer weight/bias views are created on demand so the optimizer
and checkpointing never have to know the layer structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Activation = str  # "silu"; None selects no activation


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
    shape (in_dim, out_dim)) followed by the bias (out_dim values).
    """

    layer_shapes: list[tuple[int, int]]
    values: np.ndarray
    version: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
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

    @property
    def n_layers(self) -> int:
        return len(self.layer_shapes)

    def layer(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Weight/bias views into the flat array for layer k (shared memory)."""
        off = 0
        for j, (i, o) in enumerate(self.layer_shapes):
            if j == k:
                w = self.values[off : off + i * o].reshape(i, o)
                b = self.values[off + i * o : off + (i + 1) * o]
                return w, b
            off += (i + 1) * o
        raise IndexError(f"layer {k} out of range")

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
# Reverse-mode tape
# ---------------------------------------------------------------------------


class Var:
    """Node in the computation tape: value plus a closure producing parent grads."""

    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None

    # Convenience operators; all standard numpy broadcasting rules apply.
    def __add__(self, other):
        return vadd(self, other)

    def __sub__(self, other):
        return vsub(self, other)

    def __mul__(self, other):
        return vmul(self, other)

    def __neg__(self):
        return vscale(self, -1.0)


def _as_var(x) -> Var:
    if isinstance(x, Var):
        return x
    return Var(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad back down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    nd = grad.ndim - len(shape)
    if nd > 0:
        grad = grad.sum(axis=tuple(range(nd)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def vadd(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(a.value + b.value, (a, b), vjp)


def vsub(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Var(a.value - b.value, (a, b), vjp)


def vmul(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)

    def vjp(g):
        return _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)

    return Var(a.value * b.value, (a, b), vjp)


def vscale(a, s: float) -> Var:
    a = _as_var(a)
    return Var(a.value * s, (a,), lambda g: (g * s,))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Saturates exactly at 0/1 in float64 beyond +-60; avoids exp overflow.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def vsquare(a) -> Var:
    a = _as_var(a)
    return Var(a.value * a.value, (a,), lambda g: (g * (2.0 * a.value),))


def vsum(a, axis=None, keepdims=False) -> Var:
    a = _as_var(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return Var(out, (a,), vjp)


def vmean(a) -> Var:
    a = _as_var(a)
    n = a.value.size
    return Var(a.value.mean(), (a,), lambda g: (np.full(a.value.shape, g / n),))


def vconcat(parts: Sequence, axis: int = 1) -> Var:
    parts = [_as_var(p) for p in parts]
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Var(np.concatenate([p.value for p in parts], axis=axis), tuple(parts), vjp)


def vdense(x, w, b, activation: Activation | None) -> Var:
    """Fused affine + activation: one tape node per layer keeps graphs small."""
    x, w, b = _as_var(x), _as_var(w), _as_var(b)
    z = x.value @ w.value + b.value
    if activation is None:
        out = z

        def vjp(g):
            return g @ w.value.T, x.value.T @ g, g.sum(axis=0) if g.ndim == 2 else g
    elif activation == "silu":
        sig = _sigmoid(z)
        out = z * sig
        dact = sig * (1.0 + z * (1.0 - sig))

        def vjp(g):
            gz = g * dact
            return gz @ w.value.T, x.value.T @ gz, gz.sum(axis=0) if gz.ndim == 2 else gz
    else:
        raise ValueError(f"unknown activation {activation!r}")
    return Var(out, (x, w, b), vjp)


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar root into every reachable node."""
    if np.ndim(root.value) != 0:
        raise ShapeError("backward expects a scalar root")
    order: list[Var] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    for node in order:
        node.grad = None
    root.grad = np.ones(())
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


class MlpTape:
    """Leaf Vars for every layer of a ParamBundle, plus gradient gathering."""

    def __init__(self, params: ParamBundle):
        self.params = params
        self.leaves: list[tuple[Var, Var]] = []
        for k in range(params.n_layers):
            w, b = params.layer(k)
            self.leaves.append((Var(w), Var(b)))

    def dense(self, x, layer: int, activation: Activation | None) -> Var:
        w, b = self.leaves[layer]
        return vdense(x, w, b, activation)

    def forward(
        self,
        x,
        activation: Activation = "silu",
        layers: Sequence[int] | None = None,
        check_finite: bool = False,
    ) -> Var:
        """Run x through the listed layers; activation on all but the last."""
        idx = list(layers) if layers is not None else list(range(self.params.n_layers))
        h = _as_var(x)
        for pos, k in enumerate(idx):
            act = activation if pos < len(idx) - 1 else None
            h = self.dense(h, k, act)
            if check_finite and not np.all(np.isfinite(h.value)):
                raise NonFiniteError(f"non-finite output at layer {k}")
        return h

    def flat_grad(self) -> np.ndarray:
        out = np.zeros_like(self.params.values)
        for (ws, bs), (wv, bv) in zip(self.params.layer_slices(), self.leaves):
            if wv.grad is not None:
                out[ws] = wv.grad.ravel()
            if bv.grad is not None:
                out[bs] = bv.grad
        return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def grad(
    params: ParamBundle,
    loss_fn: Callable[[MlpTape], Var],
    check_finite: bool = True,
) -> np.ndarray:
    """Gradient of a scalar loss built on a tape over `params`.

    `loss_fn` receives an MlpTape and must return a scalar Var.
    """
    value, g = value_and_grad(params, loss_fn, check_finite=check_finite)
    return g


def value_and_grad(
    params: ParamBundle,
    loss_fn: Callable[[MlpTape], Var],
    check_finite: bool = True,
) -> tuple[float, np.ndarray]:
    tape = MlpTape(params)
    loss = loss_fn(tape)
    if not isinstance(loss, Var):
        raise TypeError("loss_fn must return a Var")
    if check_finite and not np.isfinite(loss.value):
        raise NonFiniteError("loss is not finite")
    backward(loss)
    return float(loss.value), tape.flat_grad()


@dataclass
class OptState:
    """Adam moment estimates matching one ParamBundle."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def fresh(cls, params: ParamBundle) -> "OptState":
        n = params.values.size
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(
    params: ParamBundle,
    grads: np.ndarray,
    state: OptState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamBundle, OptState]:
    """One bias-corrected Adam update; returns new params and state."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.values.shape:
        raise ShapeError("gradient length does not match parameter count")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0 and lr > 0.0):
        raise ValueError("require 0 <= beta1,beta2 < 1 and lr > 0")
    if not np.all(np.isfinite(grads)):
        raise NonFiniteError("non-finite gradient entries")
    t = state.step_count + 1
    m = beta1 * state.first_moment + (1.0 - beta1) * grads
    v = beta2 * state.second_moment + (1.0 - beta2) * grads * grads
    if np.any(grads):
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_values = params.values - lr * m_hat / (np.sqrt(v_hat) + eps)
    else:
        # Contract: an all-zero gradient must leave values exactly untouched,
        # whatever momentum the state carries.
        new_values = params.values.copy()
    new_params = ParamBundle(list(params.layer_shapes), new_values, params.version + 1)
    return new_params, OptState(m, v, t)


# ---------------------------------------------------------------------------
# Checkpoint format: versioned header, shape list, little-endian float64 body
# ---------------------------------------------------------------------------

_CKPT_HEADER = b"robustdiff-params 1\n"


def save_params(path, params: ParamBundle) -> None:
    shapes = " ".join(f"{i}x{o}" for i, o in params.layer_shapes)
    with open(path, "wb") as f:
        f.write(_CKPT_HEADER)
        f.write(f"{shapes}\n".encode("ascii"))
        f.write(params.values.astype("<f8").tobytes())


def load_params(path) -> ParamBundle:
    with open(path, "rb") as f:
        header = f.readline()
        if header != _CKPT_HEADER:
            raise ValueError(f"unrecognized checkpoint header {header!r}")
        shape_line = f.readline().decode("ascii").strip()
        shapes = []
        for tok in shape_line.split():
            i, o = tok.split("x")
            shapes.append((int(i), int(o)))
        values = np.frombuffer(f.read(), dtype="<f8").astype(np.float64)
    return ParamBundle(shapes, values)
