"""Atomic file writes: a reader sees the old file or the new one, never a
part of either."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, line ends as given, to a new file next to
    ``path``, then rename it over ``path``. On any failure the new file is
    removed and the old file, if there was one, is left as it was. The
    file gets the permissions the umask gives a newly created file, as
    with ``open``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
