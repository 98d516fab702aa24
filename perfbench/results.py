"""Crash-safe result files: atomic writes and a history that fails loudly.

Every write goes to a temporary file in the destination directory and is
renamed over the target, so a crash leaves either the old file or the new
one, never a torn one.  A history that cannot be parsed raises
:class:`CorruptResultError` instead of being reset: losing the trajectory
silently is worse than stopping.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, List


class CorruptResultError(RuntimeError):
    """A stored result file exists but is not the JSON it should be."""


def write_json_atomic(path: Path, data: Any) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def read_json(path: Path) -> Any:
    """Parse a stored result file, naming the file when it is corrupt."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptResultError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptResultError(f"{path}: not valid JSON ({exc})") from exc


def append_history(path: Path, record: dict) -> List[dict]:
    """Append ``record`` to the JSON list at ``path`` and return the list."""
    path = Path(path)
    history: List[dict] = []
    if path.exists():
        history = read_json(path)
        if not isinstance(history, list):
            raise CorruptResultError(
                f"{path}: expected a JSON list of results, got {type(history).__name__}")
    history.append(record)
    write_json_atomic(path, history)
    return history
