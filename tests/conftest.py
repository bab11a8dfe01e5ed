import numpy as np
import pytest

from robustdiff import trainer


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
