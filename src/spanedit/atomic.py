"""Atomic text-file writes for every artifact the package saves.

`atomic_write(path)` opens a temp file in the same directory as `path`,
creating that directory if need be, and moves it over `path` with
`os.replace` only once the block has finished without error.  Readers
therefore see either the old file or the complete new one, never a
half-written file; if the block raises, the temp file is removed and `path`
is left as it was.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a UTF-8 text handle whose contents replace `path` on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
