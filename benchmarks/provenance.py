"""Provenance stamp for committed ``BENCH_*.json`` records.

A number in DESIGN, EXPERIMENTS or ROADMAP must name the record that
produced it, and the record must say how it was produced: which commit,
in which mode, on how many cores.  Benchmarks merge :func:`stamp` into
their report::

    report = {"experiment": "E15", **stamp(quick), ...}
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*cmd) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", ROOT, *cmd],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(quick: bool) -> dict:
    """Commit (and whether the tree had uncommitted changes), mode, and
    machine of a benchmark run."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "quick": quick,
        "mode": "quick" if quick else "full",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
