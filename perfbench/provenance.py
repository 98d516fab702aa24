"""Where a result came from: code, machine, toolchain and a speed score."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, Optional

from repro._numpy import np


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's commit from ``.git`` files, or ``None`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources (identifies non-git checkouts)."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_loop(iterations: int) -> int:
    """A fixed pure-Python loop: integers, a dict and a list, touched the way
    the simulator's interpreter-bound paths touch them."""
    table: Dict[int, int] = {}
    items = []
    total = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        items.append(key)
        total += key % 7
    items.sort()
    return total + len(table)


def calibration_ms(repeats: int = 7) -> float:
    """Median time of :func:`calibration_loop`, for cross-machine scaling.

    Results measured on two machines can be compared after dividing by
    their scores.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop(60_000)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def collect(root: Path) -> Dict[str, object]:
    return {
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_ms": round(calibration_ms(), 4),
    }
