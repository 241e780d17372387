"""File input and output: ``read_text`` is the one reader of a file a
user names, ``atomic_write_text`` the one writer."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .ir import InputError


def read_text(path: str | Path, name: str | None = None) -> str:
    """UTF-8 text, or an InputError naming the file as ``name`` (default: the path)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {name or path}: not UTF-8 ({e.reason})") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    path = Path(path)
    # a 13-byte temp name, .XXXXXXXX.tmp: any name that fits can be written
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
