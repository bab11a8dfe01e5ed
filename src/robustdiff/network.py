"""Score network: shared MLP trunk with a demonstration head and a condition head.

The trunk consumes a preconditioned input vector (scaled point, log-noise
channel, condition channels), built by diffusion.trunk_input. Both heads are
linear readouts of the trunk features, so trunk updates move both outputs —
the parameter-sharing that lets the condition head ride on representations
learned by denoising.

The network holds no shape settings: its depth and its point, condition and
input widths are read from the layer shapes of its parameters, which
layer_shapes builds from the data's X_DIM and N_CLASSES. Nor does it hold a
precision setting: it computes in the dtype of its parameters, and its inputs
are cast to that dtype. `create` makes float32 parameters, the one precision
that training and sampling run in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core
from .data import N_CLASSES, X_DIM
from .nn_core import MlpTape, ParamBundle, RecordedPass


def layer_shapes(hidden: int, depth: int) -> list[tuple[int, int]]:
    """(in_dim, out_dim) per layer: the trunk, then the demonstration head and
    the condition head. The point and condition widths are data.X_DIM and
    data.N_CLASSES."""
    in_dim = X_DIM + 1 + N_CLASSES
    shapes = [(in_dim, hidden)] + [(hidden, hidden)] * (depth - 1)
    return shapes + [(hidden, X_DIM), (hidden, N_CLASSES)]


@dataclass
class ScoreNetwork:
    """The network's parameters and its EDM sigma_data, all that sampling reads.
    Every width is read from `params.layer_shapes`. A training step records
    its passes on a tape that the caller owns."""

    params: ParamBundle
    sigma_data: float

    @classmethod
    def create(cls, hidden: int, depth: int, sigma_data: float, seed: int) -> "ScoreNetwork":
        """Fresh float32 network; trunk Glorot-initialized, both heads start at zero."""
        params = nn_core.init_params(layer_shapes(hidden, depth), seed,
                                     zero_layers=(depth, depth + 1))
        return cls(ParamBundle(params.layer_shapes, params.values.astype(np.float32)), sigma_data)

    @property
    def depth(self) -> int:
        return len(self.params.layer_shapes) - 2

    @property
    def in_dim(self) -> int:
        return self.params.layer_shapes[0][0]

    @property
    def x_dim(self) -> int:
        return self.params.layer_shapes[self.demo_head_layer][1]

    @property
    def cond_dim(self) -> int:
        return self.params.layer_shapes[self.cond_head_layer][1]

    @property
    def trunk_layers(self) -> list[int]:
        return list(range(self.depth))

    @property
    def demo_head_layer(self) -> int:
        return self.depth

    @property
    def cond_head_layer(self) -> int:
        return self.depth + 1

    # -- off-tape path (sampling) ---------------------------------------------

    def _check_input(self, net_in: np.ndarray) -> np.ndarray:
        """`net_in` in the parameters' dtype, checked against the input width."""
        net_in = np.asarray(net_in, dtype=self.params.values.dtype)
        if net_in.shape[-1] != self.in_dim:
            raise nn_core.ShapeError(
                f"network input width {net_in.shape[-1]}, expected {self.in_dim}"
            )
        return net_in

    def trunk_features(self, net_in: np.ndarray) -> np.ndarray:
        h = self._check_input(net_in)
        shape = h.shape[:-1] + (self.params.layer_shapes[0][1],)
        s = np.empty(shape, h.dtype)  # the sigmoid scratch every trunk layer shares
        for w, b in self.params.layers()[: self.depth]:
            h = nn_core.silu_layer(h, w, b, out=np.empty(shape, h.dtype), s=s)
        return h

    def demo_out(self, net_in: np.ndarray) -> np.ndarray:
        w, b = self.params.layers()[self.demo_head_layer]
        return self.trunk_features(net_in) @ w + b

    # -- recorded paths (training step) --------------------------------------

    def demo_var(self, tape: MlpTape, net_in: np.ndarray) -> RecordedPass:
        """Record a trunk + demonstration-head pass on `tape`."""
        layers = self.trunk_layers + [self.demo_head_layer]
        return tape.record(self._check_input(net_in), layers)

    def cond_var(self, tape: MlpTape, net_in: np.ndarray) -> RecordedPass:
        """Record a trunk + condition-head pass on `tape`."""
        layers = self.trunk_layers + [self.cond_head_layer]
        return tape.record(self._check_input(net_in), layers)
