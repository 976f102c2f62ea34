"""JSONL export for run manifests.

JSON Lines is the interchange format for offline analysis: one JSON
object per line, streamable, greppable, and append-safe.  ``repro sweep
--manifest`` streams one :class:`~repro.obs.manifest.RunManifest` per
task through :func:`write_jsonl`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

__all__ = ["write_jsonl"]


def _json_default(obj):
    """Last-resort JSON coercion: numpy scalars to Python, else str."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


def write_jsonl(path_or_file: str | Path | IO[str],
                records: Iterable[dict]) -> int:
    """Write records as JSONL (one compact, key-sorted object per line)
    to a path or open text file.

    Returns the number of records written.  Paths get parent directories
    created; open files are written in place (and left open).
    """
    records = list(records)
    text = "".join(
        json.dumps(r, sort_keys=True, default=_json_default) + "\n"
        for r in records
    )
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        path = Path(path_or_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return len(records)
