"""Writing a collected :class:`~repro.obs.context.ObsContext` to disk.

An ``--obs-out`` directory holds one telemetry artifact,
``stream.ndjson`` (``stream.ndjson.gz`` when compressed), in the record
schema of :mod:`repro.obs.stream`, plus ``trace.json``: a Chrome
trace-event view derived from the stream's records, for
``ui.perfetto.dev`` or ``chrome://tracing``.  The top-level track is
tid 0; every other track (one per absorbed child run) gets its own tid.

Also hosts :func:`validate_chrome_trace`, a dependency-free structural
validator for the Chrome trace-event schema, used by tests and by the
CI observability job.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.spans import events_to_trace_events, spans_to_trace_events
from repro.obs.stream import (
    STREAM_NAME,
    encode_record,
    open_text,
    read_stream,
    track_name,
)

#: Phases the validator accepts (the common Chrome trace-event vocabulary).
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C", "b", "e", "n", "s", "t",
                 "f", "P", "O", "N", "D"}


def _thread_name_event(pid: int, tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def build_chrome_trace(fold) -> dict:
    """Chrome trace dict of a :class:`~repro.obs.stream.StreamFold`:
    the top-level track on tid 0, the others by name on tids 1..n."""
    pid = 1
    names = sorted(fold.tracks, key=lambda name: (name != fold.label, name))
    trace_events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"repro.obs:{fold.label or 'run'}"}},
    ]
    for tid, name in enumerate(names):
        track = fold.tracks[name]
        trace_events.append(_thread_name_event(pid, tid, name))
        trace_events.extend(spans_to_trace_events(track.spans, pid, tid))
        trace_events.extend(events_to_trace_events(track.events, pid, tid))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace) -> list[str]:
    """Structural problems with a Chrome trace object ([] when valid)."""
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"top level must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing name")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        for key in ("pid", "tid"):
            if key in ev and not isinstance(ev[key], int):
                problems.append(f"{where}: non-int {key}")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: non-dict args")
    return problems


def export_context(ctx, out_dir, compress: bool = False) -> dict:
    """Write ``ctx``'s stream and its ``trace.json`` view under ``out_dir``.

    A context already streaming into the target file only closes it
    (which writes the ``end`` record); otherwise every buffered record
    is written fresh, followed by ``end``.  ``trace.json`` is then built
    from the file, so it shows exactly what the stream holds.
    """
    out = Path(out_dir)
    path = out / (STREAM_NAME + (".gz" if compress else ""))
    target = os.path.abspath(path)
    if any(os.path.abspath(getattr(sink, "path", "")) == target
           for sink in ctx.stream_sinks):
        ctx.stream_close()
    else:
        out.mkdir(parents=True, exist_ok=True)
        with open_text(path, "w") as fh:
            fh.writelines(encode_record(r) for r in ctx.records())
            fh.write(encode_record({"type": "end",
                                    "track": track_name(ctx.label)}))
    # A stale stream of the other compression would shadow this one.
    (out / (STREAM_NAME if compress else STREAM_NAME + ".gz")).unlink(
        missing_ok=True)
    trace_path = out / "trace.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(build_chrome_trace(read_stream(path)), fh)
    return {"stream": str(path), "trace": str(trace_path)}


__all__ = ["build_chrome_trace", "export_context", "validate_chrome_trace"]
