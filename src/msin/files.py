"""Crash-safe file writes: a temporary file that replaces the target whole."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def write_atomically(path: str, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path``; it replaces ``path`` on success.

    The replacement is one ``os.replace`` once the block has finished. If
    the block raises, the temporary file is removed and ``path`` keeps its
    previous bytes, or stays absent.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
