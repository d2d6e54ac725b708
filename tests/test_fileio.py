"""Atomic output files: a writer that fails midway leaves the previous
file as it was and no temporary file behind."""

import numpy as np
import pytest

from newsrec.fileio import atomic_open
from newsrec.tensor import Tensor, load_checkpoint, save_checkpoint


def test_replaces_the_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with atomic_open(path) as f:
        f.write("new")
        assert path.read_text() == "old"  # not visible before the rename
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_writer_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as f:
            f.write("half of the new")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_writer_creates_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_open(tmp_path / "new.bin", "wb") as f:
            f.write(b"x")
            raise RuntimeError("writer failed")
    assert list(tmp_path.iterdir()) == []


class _Unreadable:
    @property
    def data(self):
        raise RuntimeError("tensor lost")


def test_checkpoint_failing_midway_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    good = {"w": Tensor(np.arange(6.0).reshape(2, 3))}
    save_checkpoint(path, good)
    with pytest.raises(RuntimeError):
        save_checkpoint(path, {"w": Tensor(np.ones((2, 3))), "b": _Unreadable()})
    assert np.array_equal(load_checkpoint(path)["w"], good["w"].data)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
