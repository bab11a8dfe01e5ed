import numpy as np
import pytest

from robustdiff import nn_core, trainer


def _edit_archive(ckpt_dir, drop=(), **entries):
    """Rewrite the checkpoint archive in `ckpt_dir` with `entries` replaced or
    added and the keys in `drop` removed, so a test can plant one defect."""
    path = ckpt_dir / trainer.CHECKPOINT_FILE
    with np.load(path) as archive:
        stored = {key: archive[key] for key in archive.files}
    stored.update(entries)
    for key in drop:
        del stored[key]
    with open(path, "wb") as f:
        np.savez(f, **stored)


@pytest.fixture
def edit_archive():
    return _edit_archive


@pytest.fixture
def silu_calls(monkeypatch):
    """(x, out, dact) of every nn_core.silu_layer call from here on, in call
    order: the arrays a tape hands each layer of a pass, recorded or not.
    `out` is an `h` array of the pass's slot; `dact` is None in an
    unrecorded pass."""
    calls, layer = [], nn_core.silu_layer

    def spy(x, w_half, b_half, out, s, dact=None):
        calls.append((x, out, dact))
        return layer(x, w_half, b_half, out, s, dact)

    monkeypatch.setattr(nn_core, "silu_layer", spy)
    return calls
