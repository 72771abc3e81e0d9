"""Atomic, durable file writes shared across the storage layer.

Every on-disk artifact that must survive a crash follows the same
discipline — **write-temp + flush + fsync + rename + directory fsync** —
so a reader only ever observes the old file or the complete new one,
never a torn mix. The idiom grew up independently in the snapshot
subsystem (:class:`~repro.train.checkpoint.SnapshotManager`), the edge
store's compaction rewrite, and the delta log's journal meta; this module
is the single shared implementation.

``atomic_write`` is the primitive (a context manager yielding the staged
file handle); ``atomic_write_bytes`` / ``atomic_write_json`` are the
common payloads. ``fsync_dir`` makes a
rename itself durable — without it the new directory entry can be lost
even though the file's bytes were fsynced.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator

__all__ = ["fsync_dir", "atomic_write", "atomic_write_bytes",
           "atomic_write_json"]


def fsync_dir(path: os.PathLike) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(path: os.PathLike, suffix: str = ".tmp") -> Iterator[Any]:
    """Stage a replacement for ``path``: yields a binary handle open on
    ``<path><suffix>``; on clean exit the staged bytes are flushed,
    fsynced, renamed over ``path`` in one atomic step, and the parent
    directory is fsynced. On error the temp file is removed and ``path``
    is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + suffix)
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: os.PathLike, payload: bytes) -> None:
    with atomic_write(path) as fh:
        fh.write(payload)


def atomic_write_json(path: os.PathLike, payload: Dict[str, Any]) -> None:
    atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode())
