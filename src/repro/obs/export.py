"""JSONL export/import for traces and run manifests.

JSON Lines is the interchange format for offline analysis: one JSON
object per line, streamable, greppable, and append-safe.  This module
owns the generic reader/writer plus the trace round-trip
(:class:`~repro.sim.trace.EventTrace` delegates its ``to_jsonl`` here).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "trace_records",
    "trace_from_records",
]

TRACE_SCHEMA = "repro.trace/v1"


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


def read_jsonl(path_or_file: str | Path | IO[str]) -> list[dict]:
    """Read a JSONL file back into a list of dicts (blank lines skipped)."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        text = Path(path_or_file).read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- trace round-trip --------------------------------------------------------------


def trace_records(trace) -> list[dict]:
    """Flatten an :class:`~repro.sim.trace.EventTrace` into JSONL records.

    The first record is a header carrying the schema, capacity, and
    dropped-event count; each following record is one event.
    """
    head = {
        "schema": TRACE_SCHEMA,
        "capacity": trace.capacity,
        "dropped": trace.dropped,
        "events": len(trace.events),
    }
    out = [head]
    for ev in trace.events:
        out.append({"t": ev.t, "kind": ev.kind, "payload": dict(ev.payload)})
    return out


def trace_from_records(records: list[dict]):
    """Rebuild an :class:`EventTrace` from :func:`trace_records` output."""
    from repro.sim.trace import EventTrace, TraceEvent

    if not records or records[0].get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"not a {TRACE_SCHEMA} stream: missing or unknown header record"
        )
    head = records[0]
    trace = EventTrace(capacity=head.get("capacity"),
                       dropped=int(head.get("dropped", 0)))
    for rec in records[1:]:
        trace.events.append(TraceEvent(
            t=float(rec["t"]), kind=str(rec["kind"]),
            payload=dict(rec.get("payload", {})),
        ))
    return trace
