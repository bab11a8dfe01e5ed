"""Score network: shared MLP trunk with a demonstration head and a condition head.

The trunk consumes a preconditioned input vector (scaled point, log-noise
channel, condition channels), built by diffusion.trunk_input. Both heads are
linear readouts of the trunk features, so trunk updates move both outputs —
the parameter-sharing that lets the condition head ride on representations
learned by denoising.

The layout is layer_shapes(hidden, depth): the trunk's SiLU layers, then the
two heads as the last two layers, the demonstration head first. The input,
point and condition widths are IN_DIM, data.X_DIM and data.N_CLASSES, so the
network holds no shape settings; it reads its depth as every layer but the
heads. Nor does it hold a precision setting: it computes in the dtype of its
parameters, and its inputs are cast to that dtype. `create` makes float32
parameters, the one precision that training and sampling run in.

The trunk layers run nn_core.silu_layer on the parameters times 0.5 (the
tape halves them once per step, `trunk_features` on every call), and the
heads on the full ones: bitwise the full-scale features unless an
intermediate is subnormal.

The off-tape forward (sampling) writes its activations into a
nn_core.Workspace that the caller passes in: a sampling run owns one for
all of its network calls (cli.sample_per_class), so it allocates no
(batch x hidden) arrays after its first call. What it returns lives in that
workspace until the next call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core
from .data import N_CLASSES, SIGMA_DATA, X_DIM
from .nn_core import MlpTape, ParamBundle, RecordedPass, Workspace

# Trunk input: the point, the noise channel and the condition channels.
IN_DIM = X_DIM + 1 + N_CLASSES
# The heads' layer positions, counted from the end.
DEMO_HEAD = -2
COND_HEAD = -1


def layer_shapes(hidden: int, depth: int) -> list[tuple[int, int]]:
    """(in_dim, out_dim) per layer: the trunk, then the demonstration head and
    the condition head."""
    shapes = [(IN_DIM, hidden)] + [(hidden, hidden)] * (depth - 1)
    return shapes + [(hidden, X_DIM), (hidden, N_CLASSES)]


@dataclass
class ScoreNetwork:
    """The network's parameters, laid out as layer_shapes lays them out, and
    its EDM sigma_data: all that sampling reads. A training step records its
    passes on a tape that the caller owns."""

    params: ParamBundle
    # Always data.SIGMA_DATA in production; a field while perfbench/run.py
    # passes it (ROADMAP direction 2).
    sigma_data: float = SIGMA_DATA

    @classmethod
    def create(cls, hidden: int, depth: int, seed: int) -> "ScoreNetwork":
        """Fresh float32 network; trunk Glorot-initialized, both heads start at zero."""
        params = nn_core.init_params(layer_shapes(hidden, depth), seed,
                                     zero_layers=(depth, depth + 1))
        return cls(ParamBundle(params.layer_shapes, params.values.astype(np.float32)))

    # -- off-tape path (sampling) ---------------------------------------------

    def _check_input(self, net_in: np.ndarray) -> np.ndarray:
        """`net_in` in the parameters' dtype, checked against IN_DIM."""
        net_in = np.asarray(net_in, dtype=self.params.values.dtype)
        if net_in.shape[-1] != IN_DIM:
            raise nn_core.ShapeError(f"network input width {net_in.shape[-1]}, expected {IN_DIM}")
        return net_in

    def trunk_features(self, net_in: np.ndarray, ws: Workspace) -> np.ndarray:
        """The last trunk layer's output, in `ws` (keys "h", "sigmoid" and "half")."""
        h = self._check_input(net_in)
        shape = h.shape[:-1] + (self.params.layer_shapes[0][1],)
        s = ws("sigmoid", shape, h.dtype)  # the scratch every trunk layer shares
        # The SiLU layers' half-scale parameters, taken afresh on every call so
        # that they always follow params.values.
        values = self.params.values
        half = np.multiply(values, 0.5, out=ws("half", values.shape, values.dtype))
        for j, (w, b) in enumerate(self.params.layers(half)[:DEMO_HEAD]):
            # Two arrays in turn: a layer never writes the one it reads.
            h = nn_core.silu_layer(h, w, b, out=ws(("h", j % 2), shape, h.dtype), s=s)
        return h

    def demo_out(self, net_in: np.ndarray, ws: Workspace) -> np.ndarray:
        """The demonstration head's output, in `ws` (key "demo_out")."""
        w, b = self.params.layers()[DEMO_HEAD]
        feats = self.trunk_features(net_in, ws)
        out = np.matmul(feats, w, out=ws("demo_out", feats.shape[:-1] + w.shape[1:], w.dtype))
        out += b
        return out

    # -- recorded paths (training step) --------------------------------------

    def _record(self, tape: MlpTape, net_in: np.ndarray, head: int) -> RecordedPass:
        """Record a pass through every layer but the heads, then `head`."""
        n = len(self.params.layer_shapes)
        return tape.record(self._check_input(net_in), [*range(n + DEMO_HEAD), n + head])

    def demo_var(self, tape: MlpTape, net_in: np.ndarray) -> RecordedPass:
        """Record a trunk + demonstration-head pass on `tape`."""
        return self._record(tape, net_in, DEMO_HEAD)

    def cond_var(self, tape: MlpTape, net_in: np.ndarray) -> RecordedPass:
        """Record a trunk + condition-head pass on `tape`."""
        return self._record(tape, net_in, COND_HEAD)
