"""File writes shared by the cache and the exporters: one streaming writer,
the staged output tree, and the one indented JSON layout they write."""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from contextlib import suppress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from .errors import ConfigError

STAGING_PREFIX = ".collabkit-staging-"

Blocks = str | bytes | Iterable[str | bytes]


def write_new(path: Path, blocks: Blocks) -> str:
    """Create ``path``, which must not exist, and write the blocks to it in
    order, each str as UTF-8; returns the sha256 hex digest of the bytes
    written. A lone str or bytes is one block. Each block is hashed and
    written as it comes, so no more than one is held here. If anything
    fails, the partial file is removed. The file gets mode 0o666 less the
    umask. Its directory must exist."""
    if isinstance(blocks, (str, bytes)):
        blocks = (blocks,)
    digest = hashlib.sha256()
    fh = open(path, "xb")
    try:
        with fh:
            for block in blocks:
                if isinstance(block, str):
                    block = block.encode("utf-8")
                digest.update(block)
                fh.write(block)
    except BaseException:
        with suppress(OSError):
            os.unlink(path)
        raise
    return digest.hexdigest()


class StagedTree:
    """Files bound for ``root``, written into a staging directory inside it
    and moved into place only by ``commit``.

    The first existing path at or above ``root`` must be a directory, or
    the tree raises ConfigError when it is built. Nothing is made on disk
    before the first ``put``. ``commit`` renames
    each staged file over its place under ``root``, one at a time, in
    sorted order, with ``manifest.json`` last, then removes the staging
    directory. ``discard`` removes the staging directory, and ``root``
    itself too when ``put`` had to make it (with any parents it made), so
    that a run that fails before its commit leaves ``root`` as it found it.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.staging: Path | None = None
        self._made: Path | None = None  # the topmost directory put made, if any
        self._dirs: set[str] = set()  # staged directories, relative to staging
        self.digests: dict[str, str] = {}  # relative path -> sha256 of the staged file
        top = self._topmost_missing()
        found = top.parent if top else self.root  # the first existing path
        if not found.is_dir():
            raise ConfigError(f"out_dir {self.root}: {found} exists and is not a directory")

    def _topmost_missing(self) -> Path | None:
        """The topmost missing path at or above ``root``, None if it exists."""
        top = None
        for path in (self.root, *self.root.parents):
            if os.path.lexists(path):  # a dangling symlink too
                return top
            top = path
        return top

    def _open(self) -> Path:
        self._made = self._topmost_missing()
        self.root.mkdir(parents=True, exist_ok=True)
        self.staging = self.root / f"{STAGING_PREFIX}{os.urandom(6).hex()}"
        self.staging.mkdir()
        return self.staging

    def put(self, rel: str, blocks: Blocks) -> None:
        """Stage one file at ``rel``, a relative POSIX path, and record its
        sha256 in ``digests``."""
        staging = self.staging or self._open()
        parent = rel.rpartition("/")[0]
        if parent and parent not in self._dirs:
            (staging / parent).mkdir(parents=True, exist_ok=True)
            self._dirs.add(parent)
        self.digests[rel] = write_new(staging / rel, blocks)

    def commit(self) -> None:
        """Move every staged file into place, ``manifest.json`` last."""
        if self.staging is None:
            return
        for parent in sorted(self._dirs):
            (self.root / parent).mkdir(parents=True, exist_ok=True)
        order = sorted(self.digests, key=lambda rel: (rel == self.MANIFEST, rel))
        for rel in order:
            os.replace(self.staging / rel, self.root / rel)
        shutil.rmtree(self.staging)
        self.staging = self._made = None

    def discard(self) -> None:
        """Remove what ``put`` made and ``commit`` did not move."""
        made = self._made or self.staging
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        self.staging = self._made = None


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, with the same bytes.

    json's indenting encoder is Python code whose closures form reference
    cycles, left for the cycle collector on every call. This layout is
    written by plain recursion, with strings escaped by json's C encoder
    and numbers by their own repr, so a call leaves no garbage. Dict keys
    must be strings.
    """
    out: list[str] = []
    _emit(doc, "\n", out)
    return "".join(out)


def _emit(value, indent: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out``; ``indent`` is a newline plus
    the indentation of the line the value starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _emit(value[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    """A float as json writes it: its repr, or NaN / Infinity / -Infinity."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
