"""The reader for the JSON Lines files :func:`repro.obs.write_jsonl`
writes: the library only writes them, tests read them back."""

import json
from pathlib import Path

__all__ = ["read_jsonl"]


def read_jsonl(path) -> list[dict]:
    """The records of a JSONL file, blank lines skipped."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
