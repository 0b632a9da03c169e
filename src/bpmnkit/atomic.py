"""Crash-safe file writes for results, summaries, manifests and caches."""

from __future__ import annotations

import os
import threading
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and ``os.replace``, so a reader (another thread, or a resumed
    run after an interruption) sees the old file or the whole new one, never
    a truncated one. Not fsynced: this guards against interrupted processes,
    not power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
