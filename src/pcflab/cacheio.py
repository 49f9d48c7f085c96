"""Atomic, idempotent cache-file writes.

Writes go to a temp file in the target directory followed by os.replace, so a
crashed run never leaves a half-written cache entry, and reruns that produce
identical bytes leave files untouched (stable mtimes make byte-identity checks
cheap for callers too).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def remove_temp_files(path: Path, pid: int) -> None:
    """Unlink the temp files that the writer pid left beside path; a writer
    killed between mkstemp and os.replace leaves one."""
    path = Path(path)
    prefix = f"{path.name}.tmp{pid}-"
    if path.parent.is_dir():
        for tmp in path.parent.iterdir():
            if tmp.name.startswith(prefix):
                tmp.unlink(missing_ok=True)


def atomic_write_bytes(path: Path, data: bytes) -> bool:
    """Write data to path atomically; returns True when the file changed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists() and path.read_bytes() == data:
        return False
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f"{path.name}.tmp{os.getpid()}-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return True


def atomic_write_text(path: Path, text: str) -> bool:
    return atomic_write_bytes(path, text.encode("utf-8"))
