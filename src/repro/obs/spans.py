"""Span tracer: nested host-wall-time phases, Perfetto-exportable.

A span covers one phase of work (an interval, a scan, a planner retry
loop) with a start time and duration on the *host* clock.  Spans nest:
the tracer keeps an explicit stack, and each finished span records its
depth so viewers can reconstruct the hierarchy.  Simulated-time context
(interval index, sim clock) travels in ``args`` — the tracer never reads
or advances the simulation, which is what keeps tracing bit-identity
neutral.

Export is the Chrome trace-event format (``ph: "X"`` complete events,
microsecond timestamps) understood by ``ui.perfetto.dev`` and
``chrome://tracing``; :mod:`repro.obs.export` derives ``trace.json``
from a run's stream records.

Cross-process stitching
-----------------------

A :class:`TraceContext` carries one distributed trace's identity — a
``trace_id`` minted per sweep job plus the scheduler-side parent span id
— across process boundaries.  The sweep scheduler mints one per job
(:func:`mint_trace_context`), ships it to workers inside lease grants,
and workers echo it back attached to their cell spans, so the per-job
merged trace (:mod:`repro.service.tracing`) can nest every worker's
cell spans under the scheduler's job span.  Because each process times
spans against its own ``perf_counter`` origin, every
:class:`SpanTracer` also records the wall-clock ``epoch`` of that
origin; the stitcher aligns tracks by wall time.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, time as wall_time


@dataclass
class Span:
    """One finished phase.

    Attributes:
        name: phase label, dotted for sub-phases (``scan.classify``).
        cat: coarse category used for Perfetto track colouring.
        ts: host seconds since the owning tracer was created.
        dur: host seconds the phase took.
        depth: nesting depth at the time the span was opened.
        args: small JSON-serialisable context (interval, counts, ...).
    """

    name: str
    cat: str
    ts: float
    dur: float
    depth: int
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceContext:
    """Identity of one distributed trace, shipped across processes.

    Attributes:
        trace_id: opaque hex id, one per sweep job.
        parent_span: name of the scheduler-side span worker spans nest
            under (the job span).
        job_id: owning job — redundant with the lease but kept so a
            trace payload is self-describing.
    """

    trace_id: str
    parent_span: str
    job_id: str

    def as_wire(self) -> dict:
        """Plain dict for the wire protocol (additive message field)."""
        return {"trace_id": self.trace_id, "parent_span": self.parent_span,
                "job_id": self.job_id}

    @classmethod
    def from_wire(cls, payload: dict) -> "TraceContext":
        return cls(trace_id=str(payload["trace_id"]),
                   parent_span=str(payload["parent_span"]),
                   job_id=str(payload.get("job_id", "")))


def mint_trace_context(job_id: str) -> TraceContext:
    """New trace identity for one job (parent span = ``job:<id>``)."""
    return TraceContext(trace_id=uuid.uuid4().hex, parent_span=f"job:{job_id}",
                        job_id=job_id)


class SpanTracer:
    """Records nested spans against a private host-clock origin.

    ``epoch`` is the wall-clock time of the perf_counter origin, so a
    remote consumer can place this tracer's relative timestamps on a
    shared wall-clock timeline (cross-process trace stitching).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._origin = perf_counter()
        self.epoch = wall_time()

    @contextmanager
    def span(self, name: str, cat: str = "engine", **args):
        """Context manager timing one phase; nests freely."""
        depth = len(self._stack)
        self._stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self.spans.append(
                Span(name, cat, start - self._origin, dur, depth, args)
            )

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.dur for s in self.spans if s.name == name)

    def counts(self) -> dict[str, int]:
        """Span counts by name."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out


def spans_to_trace_events(spans, pid: int = 1, tid: int = 0) -> list[dict]:
    """Chrome trace-event dicts (``ph: "X"``) for a span list."""
    out = []
    for span in spans:
        out.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.ts * 1e6,
            "dur": span.dur * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(span.args),
        })
    return out


def spans_as_dicts(spans) -> list[dict]:
    """JSON/pickle-safe dicts for shipping spans across processes."""
    return [{"name": s.name, "cat": s.cat, "ts": s.ts, "dur": s.dur,
             "depth": s.depth, "args": dict(s.args)} for s in spans]


def spans_from_dicts(payload) -> list[Span]:
    """Inverse of :func:`spans_as_dicts` (tolerates missing args)."""
    return [Span(name=str(d["name"]), cat=str(d.get("cat", "engine")),
                 ts=float(d["ts"]), dur=float(d["dur"]),
                 depth=int(d.get("depth", 0)), args=dict(d.get("args", {})))
            for d in payload]


def events_to_trace_events(events, pid: int = 1, tid: int = 0) -> list[dict]:
    """Chrome instant events (``ph: "i"``) for an event list."""
    out = []
    for event in events:
        out.append({
            "name": event.name,
            "cat": "event",
            "ph": "i",
            "s": "t",
            "ts": event.ts * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"sim_time": event.sim_time, "interval": event.interval,
                     **event.fields},
        })
    return out


__all__ = ["Span", "SpanTracer", "TraceContext", "events_to_trace_events",
           "mint_trace_context", "spans_as_dicts", "spans_from_dicts",
           "spans_to_trace_events"]
