"""Score network: shared MLP trunk with a demonstration head and a condition head.

Every pass takes the parts of its trunk input: the preconditioned point
x_in, the noise level sigma and the condition channels. `trunk_input` lays
them out as the trunk's columns (the point, the noise channel c_noise(sigma),
then the condition channels COND_COLS); no other module knows that layout.
Both heads are linear readouts of the trunk features, so trunk updates move
both outputs — the parameter-sharing that lets the condition head ride on
representations learned by denoising.

The layout is layer_shapes(hidden, depth): the trunk's SiLU layers, then the
two heads as the last two layers, the demonstration head first. The input,
point and condition widths are IN_DIM, data.X_DIM and data.N_CLASSES, so the
network holds no shape settings; it reads its depth as every layer but the
heads. Nor does it hold a precision setting: it computes in the dtype of its
parameters, its trunk input written in that dtype. `create` makes float32
parameters, the one precision that training and sampling run in.

Every pass runs on the network's nn_core.MlpTape: recorded for a training
step, unrecorded for sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .data import N_CLASSES, SIGMA_DATA, X_DIM
from .nn_core import MlpTape, ParamBundle

# Trunk input: the point, the noise channel and the condition channels.
IN_DIM = X_DIM + 1 + N_CLASSES
COND_COLS = slice(X_DIM + 1, IN_DIM)
# The heads' layer positions, counted from the end.
DEMO_HEAD = -2
COND_HEAD = -1


def layer_shapes(hidden: int, depth: int) -> list[tuple[int, int]]:
    """(in_dim, out_dim) per layer: the trunk, then the demonstration head and
    the condition head."""
    shapes = [(IN_DIM, hidden)] + [(hidden, hidden)] * (depth - 1)
    return shapes + [(hidden, X_DIM), (hidden, N_CLASSES)]


def c_noise(sigma):
    """The noise channel at `sigma`: EDM's c_noise, ln(sigma) / 4."""
    return np.log(sigma) / 4.0


@dataclass
class ScoreNetwork:
    """The network's parameters, laid out as layer_shapes lays them out, and
    its EDM sigma_data: all that sampling reads. Its passes run on its own
    `tape`, built on `params` with the network (a network over the same
    parameters has its own)."""

    params: ParamBundle
    # Always data.SIGMA_DATA in production; a field while perfbench/run.py
    # passes it (ROADMAP direction 1(a)).
    sigma_data: float = SIGMA_DATA
    tape: MlpTape = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tape = MlpTape(self.params)

    @classmethod
    def create(cls, hidden: int, depth: int, seed: int) -> "ScoreNetwork":
        """Fresh float32 network; trunk Glorot-initialized, both heads start at zero."""
        params = nn_core.init_params(layer_shapes(hidden, depth), seed,
                                     zero_layers=(depth, depth + 1))
        return cls(ParamBundle(params.layer_shapes, params.values.astype(np.float32)))

    def trunk_input(self, x_in: np.ndarray, sigma, cond: np.ndarray) -> np.ndarray:
        """Trunk input rows in the parameters' dtype: x_in, c_noise(sigma) and
        `cond`, each computed in float64 and rounded once. `sigma` is a scalar
        or one value per row; `cond` is one row per point or a single row
        shared by all. A part whose width is neither its columns' nor 1 raises
        numpy's ValueError."""
        out = np.empty((len(x_in), IN_DIM), self.params.values.dtype)
        out[:, :X_DIM] = x_in
        out[:, X_DIM : X_DIM + 1] = c_noise(sigma)
        out[:, COND_COLS] = cond
        return out

    def _layers(self, head: int) -> list[int]:
        """Every layer but the heads, then `head`."""
        n = len(self.params.layer_shapes)
        return [*range(n + DEMO_HEAD), n + head]

    def demo_out(self, x_in: np.ndarray, sigma, cond: np.ndarray) -> np.ndarray:
        """An unrecorded trunk + demonstration-head pass (sampling); returns
        the head's output, a fresh array."""
        return self.tape.forward(self.trunk_input(x_in, sigma, cond), self._layers(DEMO_HEAD))

    def _record(self, head: int, x_in, sigma, cond) -> np.ndarray:
        """Record a trunk + `head` pass on `tape`; returns the head's output."""
        return self.tape.record(self.trunk_input(x_in, sigma, cond), self._layers(head))

    def demo_var(self, x_in: np.ndarray, sigma, cond: np.ndarray) -> np.ndarray:
        """Record a trunk + demonstration-head pass on `tape`; returns the head's output."""
        return self._record(DEMO_HEAD, x_in, sigma, cond)

    def cond_var(self, x_in: np.ndarray, sigma, cond: np.ndarray) -> np.ndarray:
        """Record a trunk + condition-head pass on `tape`; returns the head's output."""
        return self._record(COND_HEAD, x_in, sigma, cond)
