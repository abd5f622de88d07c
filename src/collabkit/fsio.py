"""Atomic file writes shared by the cache and the exporters."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

# os.open applies the process umask to this mode, as creating a file with
# open() does; tempfile.mkstemp would force 0600 whatever the umask.
_FILE_MODE = 0o666
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def write_bytes_atomic(path: Path, payload: bytes) -> str:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file; returns the sha256 hex digest of the bytes written.
    The file gets mode 0o666 less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, _CREATE, _FILE_MODE)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return hashlib.sha256(payload).hexdigest()


def write_text_atomic(path: Path, text: str) -> str:
    """``write_bytes_atomic`` of the text's UTF-8 bytes."""
    return write_bytes_atomic(path, text.encode("utf-8"))
