"""The one torn-tolerant JSONL reader.

Campaign checkpoints and span files are append-only
JSONL written by processes that may be killed mid-write, so a reader
skips blank lines and lines that do not decode (a torn final record
only costs what it described).  The memo store keeps its own
offset-tracking reader, because it must not consume a torn tail that
its writer is still completing.

This module imports nothing from the rest of ``repro``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Every JSON object in the file at ``path``, in order, skipping
    blank, torn and corrupt lines.  An array line contributes the
    objects it holds (span sinks write one array per batch); any other
    non-object value is skipped.  A missing file reads as empty."""
    out: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return out
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                out.append(record)
            elif isinstance(record, list):
                out.extend(r for r in record if isinstance(r, dict))
    return out
