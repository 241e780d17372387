"""Atomic file writing shared by the CLI and the kernel writer."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path


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
