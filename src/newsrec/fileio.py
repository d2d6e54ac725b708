"""Atomic output files: every file the package writes is first written to a
temporary file beside it and then renamed over it."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a fresh file in ``path``'s directory for writing; when the body
    returns, flush it to disk and ``os.replace`` it onto ``path``.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``.  If the body raises, the
    temporary file is removed and whatever ``path`` held before is left
    untouched, so a reader sees either the old file or the complete new one.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:12]}.tmp")
    # "x" creates it with open()'s default permissions; mkstemp's are 0600
    f = open(tmp, mode.replace("w", "x"),
             encoding=None if mode == "wb" else "utf-8")
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
