"""The program's JSON files, and atomic file writes: a reader sees the old
file or the new one, never a part of either.

``read_json`` is the one reader of input files and ``write_json`` the one
writer of JSON files. Documents are checked with one field vocabulary:
``field`` with the predicates ``is_int``, ``is_number``, ``list_of`` and
``row_of``. A number is a finite JSON number that is not a boolean.
"""

from __future__ import annotations

import json
import math
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


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as indented JSON with a final newline, atomically."""
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def read_json(path: str | Path, error: type[Exception]) -> tuple[object, str]:
    """Read ``path`` once as UTF-8 JSON: the document and the sha256 of the
    bytes parsed. A file that cannot be read, decoded or parsed raises
    ``error``."""
    import hashlib      # here, not at the top: it loads OpenSSL, which import risplan need not
    try:
        data = Path(path).read_bytes()
        doc = json.loads(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:     # also too deep, or an int too long
        raise error(f"{path} is not valid JSON: {exc}") from exc
    return doc, hashlib.sha256(data).hexdigest()


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite JSON number that is not a boolean; an integer too large
    for a float is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def list_of(ok):
    return lambda value: isinstance(value, list) and all(ok(v) for v in value)


def row_of(*oks):
    return lambda value: (isinstance(value, list) and len(value) == len(oks)
                          and all(ok(v) for ok, v in zip(oks, value)))


def field(error: type[Exception], doc: dict, key: str, ok, name: str | None = None):
    """doc[key], or ``error`` naming the field (``name``, default ``key``)
    when it is missing or ``ok`` rejects it."""
    if key not in doc:
        raise error(f"missing field {name or key}")
    if not ok(doc[key]):
        raise error(f"malformed field {name or key}: wrong shape or type "
                    f"(numbers must be finite JSON numbers)")
    return doc[key]
