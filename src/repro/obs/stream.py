"""The telemetry stream: the one on-disk obs format, its writer and its fold.

Every observability artifact a run leaves is one NDJSON file of the
records below: ``stream.ndjson`` (``stream.ndjson.gz`` with
``--obs-compress``) under ``--obs-out``.  It is written either live — a
:class:`StreamPublisher` rides on an
:class:`~repro.obs.context.ObsContext` and, on every ``stream_flush()``
(the engine calls it at interval boundaries), encodes what is *new
since the last flush* and hands the batch to the attached sinks
(:mod:`repro.obs.sinks`) — or in one go at the end of a buffered run
(:meth:`ObsContext.export <repro.obs.context.ObsContext.export>`).  Both
encode through :func:`track_records`.

Record schema (``v`` = :data:`STREAM_SCHEMA_VERSION`), one JSON object
per line, discriminated by ``type``:

=============  =============================================================
``meta``       ``{type, v, track, pid}`` — first record of every track.
``event``      ``{type, track, name, ts, sim_time, interval, **fields}``
               (``name`` is one of the closed ``EV_*`` vocabulary).
``span``       ``{type, track, name, cat, ts, dur, depth, args}``
``metric``     ``{type, track, kind, name, labels}`` plus ``delta`` for
               counters (increment since last flush), ``value`` for
               gauges (current reading), and cumulative
               ``count/total/min/max`` for histograms.
``provenance`` ``{type, track, interval, stage, page_start, npages,
               src_node, dst_node, reason, score, attempt, detail}``
``end``        ``{type, track}`` — written exactly once, by the
               *top-level* context's close or export; per-cell publishers
               in a matrix close without it, so tail readers stop at the
               real end of the stream.
=============  =============================================================

Counters stream as deltas so a reader can sum them without knowing flush
boundaries; gauges stream as the current value; histograms stream their
cumulative summary (idempotent for a late-joining reader).  A track's
close always carries the ``obs.dropped_events`` and
``obs.relay_backpressure`` counters, zero included.

:class:`StreamFold` is the one reader: :meth:`StreamFold.feed` groups
records by track one at a time, and the merged views combine tracks
with the registry's rules (counters sum; gauges take each track's last
value, then the maximum; histograms take each track's last summary,
then :meth:`HistogramStat.merge
<repro.obs.registry.HistogramStat.merge>`), visiting tracks in name
order so the result does not depend on how a pooled run interleaved
them.  ``repro query``/``report``/``trace`` and the Perfetto
``trace.json`` read a finished stream through :func:`fold_records`;
``repro watch`` and ``repro fleet`` feed a live fold and summarize it
each refresh (:mod:`repro.obs.watch`).

:func:`iter_ndjson` decodes the file: it tolerates a truncated final
line (a crash mid-``writelines`` loses at most that line — the partial
tail is buffered until the newline arrives, or forever if it never
does), skips unparseable complete lines, and in ``follow`` mode tails a
still-growing file until an ``end`` record, a quiet-period timeout, or —
since the writer may have been SIGKILLed before writing its ``end``
record — until every pid announced in a ``meta`` record has exited and
a grace period passes (the *dead-writer escape*).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ConfigError
from repro.obs.context import ObsData
from repro.obs.events import ALL_EVENTS, Event
from repro.obs.provenance import ProvenanceLog, ProvenanceRecord
from repro.obs.registry import (
    HistogramStat,
    MetricsRegistry,
    label_key,
)
from repro.obs.spans import Span

#: File name of the stream inside an ``--obs-out`` or state directory
#: (``.gz`` appended when compressed).
STREAM_NAME = "stream.ndjson"

#: File name of a sweep-service journal inside a state directory
#: (written by :mod:`repro.service.journal`; readers only test for it).
JOURNAL_NAME = "journal.ndjson"

#: Track name of a context without a label.
DEFAULT_TRACK = "main"

#: Bump when a record shape changes; readers check ``meta.v``.
STREAM_SCHEMA_VERSION = 1

#: Closed set of record discriminators.
RECORD_TYPES = frozenset({
    "meta", "event", "span", "metric", "provenance", "end",
})

#: Metric record kinds.
METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})

#: Cap on events held between flushes; beyond it events are counted and
#: dropped from the *stream* (the bus buffer is bounded separately).
DEFAULT_MAX_PENDING = 50_000

#: Default dead-writer escape window of :func:`iter_ndjson` (seconds).
DEFAULT_DEAD_WRITER_GRACE = 2.0

#: Environment override for the dead-writer grace: a float, or one of
#: ``none``/``off``/``disabled`` to turn the liveness probe off.
DEAD_WRITER_GRACE_ENV = "REPRO_STREAM_DEAD_GRACE"

#: Sentinel distinguishing "caller passed nothing" from an explicit None.
_GRACE_UNSET = object()


def resolve_dead_writer_grace(value=_GRACE_UNSET) -> float | None:
    """The dead-writer grace to use: explicit kwarg > env > default.

    An explicit ``None`` (or env ``none``/``off``/``disabled``) disables
    the liveness probe entirely; a malformed env value falls back to the
    default rather than killing a tail that was working yesterday.
    """
    if value is not _GRACE_UNSET:
        return value
    raw = os.environ.get(DEAD_WRITER_GRACE_ENV)
    if raw is None:
        return DEFAULT_DEAD_WRITER_GRACE
    lowered = raw.strip().lower()
    if lowered in ("none", "off", "disabled", "disable"):
        return None
    try:
        return float(lowered)
    except ValueError:
        return DEFAULT_DEAD_WRITER_GRACE


_PROVENANCE_FIELDS = (
    "interval", "stage", "page_start", "npages", "src_node", "dst_node",
    "reason", "score", "attempt", "detail",
)


def open_text(path, mode: str = "r"):
    """Open a text file, transparently gzipped when the name ends ``.gz``.

    The one chokepoint for stream IO (:func:`iter_ndjson` and the
    buffered export), so a stream can compress at rest without any
    caller knowing the difference.
    """
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


#: Shared compact encoder: skipping the per-call circular-reference memo
#: measurably cheapens the per-interval hot path (records are flat).
_ENCODE = json.JSONEncoder(
    ensure_ascii=False, check_circular=False, separators=(",", ":")
).encode


def encode_record(record: dict) -> str:
    """One compact NDJSON line (including the trailing newline)."""
    return _ENCODE(record) + "\n"


def stream_file(run) -> Path:
    """The stream file of a run directory, or ``run`` itself if a file.

    Accepts ``stream.ndjson`` or ``stream.ndjson.gz``; when neither
    exists yet the plain name is returned (a live tail re-resolves on
    every open attempt, so it still finds a gzipped stream that appears
    later).
    """
    run = Path(run)
    if not run.is_dir():
        return run
    for name in (STREAM_NAME, STREAM_NAME + ".gz"):
        if (run / name).exists():
            return run / name
    return run / STREAM_NAME


def track_name(label: str) -> str:
    """Track of a context: its label, or :data:`DEFAULT_TRACK`."""
    return label or DEFAULT_TRACK


def meta_record(track: str) -> dict:
    return {"type": "meta", "v": STREAM_SCHEMA_VERSION, "track": track,
            "pid": os.getpid()}


def track_records(track: str, events=(), spans=(), provenance=(),
                  counters=(), gauges=(), histograms=()) -> list[dict]:
    """One track's telemetry as stream records — the one encoder.

    ``counters``/``gauges``/``histograms`` are ``(key, value)`` pairs
    keyed like :class:`~repro.obs.registry.MetricsRegistry` series; a
    counter's value is written as its ``delta``.  The live publisher
    passes what changed since its last flush, a buffered export passes
    everything.
    """
    out = [{"type": "event", "track": track, **event.as_dict()}
           for event in events]
    out += [{"type": "span", "track": track, "name": span.name,
             "cat": span.cat, "ts": span.ts, "dur": span.dur,
             "depth": span.depth, "args": span.args} for span in spans]
    out += [{"type": "provenance", "track": track,
             **{f: getattr(rec, f) for f in _PROVENANCE_FIELDS}}
            for rec in provenance]
    out += [{"type": "metric", "track": track, "kind": "counter",
             "name": name, "labels": [list(p) for p in labels],
             "delta": delta} for (name, labels), delta in counters]
    out += [{"type": "metric", "track": track, "kind": "gauge",
             "name": name, "labels": [list(p) for p in labels],
             "value": value} for (name, labels), value in gauges]
    out += [{"type": "metric", "track": track, "kind": "histogram",
             "name": name, "labels": [list(p) for p in labels],
             "count": stat.count, "total": stat.total,
             "min": stat.minimum if stat.count else 0.0,
             "max": stat.maximum if stat.count else 0.0}
            for (name, labels), stat in histograms]
    return out


def validate_stream_record(record) -> list[str]:
    """Schema check for one decoded record; returns a list of problems."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    rtype = record.get("type")
    if rtype not in RECORD_TYPES:
        return [f"unknown record type {rtype!r}"]
    if "track" not in record or not isinstance(record["track"], str):
        errors.append(f"{rtype}: missing/non-string track")
    if rtype == "meta":
        if record.get("v") != STREAM_SCHEMA_VERSION:
            errors.append(f"meta: schema version {record.get('v')!r} "
                          f"!= {STREAM_SCHEMA_VERSION}")
        if not isinstance(record.get("pid"), int):
            errors.append("meta: missing/non-int pid")
        pids = record.get("pids")
        if pids is not None and (
            not isinstance(pids, list)
            or any(not isinstance(p, int) for p in pids)
        ):
            errors.append("meta: pids must be a list of ints")
    elif rtype == "event":
        if record.get("name") not in ALL_EVENTS:
            errors.append(f"event: name {record.get('name')!r} not in "
                          "the EV_* vocabulary")
        for key in ("ts", "sim_time"):
            if not isinstance(record.get(key), (int, float)):
                errors.append(f"event: missing/non-numeric {key}")
        if not isinstance(record.get("interval"), int):
            errors.append("event: missing/non-int interval")
    elif rtype == "span":
        if not isinstance(record.get("name"), str):
            errors.append("span: missing/non-string name")
        for key in ("ts", "dur"):
            if not isinstance(record.get(key), (int, float)):
                errors.append(f"span: missing/non-numeric {key}")
        if not isinstance(record.get("depth"), int):
            errors.append("span: missing/non-int depth")
    elif rtype == "metric":
        kind = record.get("kind")
        if kind not in METRIC_KINDS:
            errors.append(f"metric: unknown kind {kind!r}")
        if not isinstance(record.get("name"), str):
            errors.append("metric: missing/non-string name")
        labels = record.get("labels")
        if not isinstance(labels, list) or any(
            not (isinstance(p, list) and len(p) == 2) for p in labels or ()
        ):
            errors.append("metric: labels must be a list of [key, value] pairs")
        if kind == "counter" and not isinstance(
            record.get("delta"), (int, float)
        ):
            errors.append("metric: counter needs numeric delta")
        elif kind == "gauge" and not isinstance(
            record.get("value"), (int, float)
        ):
            errors.append("metric: gauge needs numeric value")
        elif kind == "histogram":
            for key in ("count", "total", "min", "max"):
                if not isinstance(record.get(key), (int, float)):
                    errors.append(f"metric: histogram needs numeric {key}")
    elif rtype == "provenance":
        for key in ("interval", "stage", "page_start", "npages",
                    "src_node", "dst_node"):
            if key not in record:
                errors.append(f"provenance: missing {key}")
    return errors


class StreamPublisher:
    """Incremental encoder from one ObsContext onto its sinks.

    Keeps cursors into the context's span/provenance lists and baseline
    snapshots of its metric series; each :meth:`flush` encodes only what
    changed since the previous flush, through :func:`track_records`.
    Events are captured via a bus subscription into a bounded pending
    list, so the stream sees events even after the bus buffer itself
    fills up.  The context's registry holds only its own metrics
    (absorbed child runs stay on their own tracks), so nothing the
    children already streamed is encoded twice.
    """

    def __init__(self, ctx, max_pending: int = DEFAULT_MAX_PENDING) -> None:
        self.ctx = ctx
        self.max_pending = max_pending
        #: ``(sink, owned)`` pairs; only owned sinks are closed/counted here.
        self.sinks: list[tuple[object, bool]] = []
        #: events dropped from the stream because pending was full
        self.dropped = 0
        self._pending_events: list[Event] = []
        self._span_cursor = 0
        self._prov_cursor = 0
        self._counter_base: dict = {}
        self._gauge_last: dict = {}
        self._hist_count: dict = {}
        self._meta_sent = False
        self._flush_calls = 0
        self._closed = False
        if ctx.config.events:
            ctx.bus.subscribe(self._on_event)

    # -- wiring ---------------------------------------------------------------

    def add_sink(self, sink, owned: bool = True) -> None:
        self.sinks.append((sink, owned))

    def owned_sink_dropped(self) -> int:
        """Lines dropped by sinks this publisher owns (relay backpressure)."""
        return sum(s.dropped for s, owned in self.sinks if owned)

    def _on_event(self, event: Event) -> None:
        if len(self._pending_events) >= self.max_pending:
            self.dropped += 1
            return
        self._pending_events.append(event)

    # -- encoding -------------------------------------------------------------

    def _encode_new(self, final: bool = False) -> list[str]:
        """Lines for everything new; ``final`` adds the loss counters."""
        ctx = self.ctx
        track = track_name(ctx.label)
        records: list[dict] = []
        if not self._meta_sent:
            records.append(meta_record(track))
            self._meta_sent = True
        registry = ctx.registry
        counters = []
        base = self._counter_base
        for key, value in registry.counters.items():
            prev = base.get(key)
            # A new series streams even at zero: an absent key cannot
            # say "measured, nothing happened".
            if prev is None or value != prev:
                counters.append((key, value - (prev or 0)))
                base[key] = value
        if final:
            counters.extend(ctx.loss_counters().items())
        gauges = []
        for key, value in registry.gauges.items():
            if self._gauge_last.get(key) != value:
                gauges.append((key, value))
                self._gauge_last[key] = value
        histograms = []
        for key, stat in registry.histograms.items():
            if self._hist_count.get(key) != stat.count:
                histograms.append((key, stat))
                self._hist_count[key] = stat.count
        spans = ctx.tracer.spans
        provenance = ctx.provenance.records
        records += track_records(
            track, self._pending_events, spans[self._span_cursor:],
            provenance[self._prov_cursor:], counters, gauges, histograms,
        )
        self._pending_events = []
        self._span_cursor = len(spans)
        self._prov_cursor = len(provenance)
        return [encode_record(r) for r in records]

    # -- flushing -------------------------------------------------------------

    def flush(self, force: bool = False) -> int:
        """Encode-and-write everything new; returns lines written.

        Honors ``config.stream_flush_every``: only every Nth non-forced
        call actually writes, so high-frequency intervals can batch.
        """
        if self._closed or not self.sinks:
            return 0
        self._flush_calls += 1
        every = getattr(self.ctx.config, "stream_flush_every", 1)
        if not force and every > 1 and self._flush_calls % every:
            return 0
        lines = self._encode_new()
        if lines:
            self.write_raw(lines)
        return len(lines)

    def write_raw(self, lines: list[str]) -> None:
        """Forward already-encoded lines (own flush, or a worker relay)."""
        for sink, _ in self.sinks:
            sink.write_lines(lines)
        for sink, _ in self.sinks:
            sink.flush()

    def close(self, end_record: bool = True) -> None:
        """Final flush with the loss counters, optional ``end`` marker,
        close owned sinks."""
        if self._closed:
            return
        lines = self._encode_new(final=True)
        if end_record:
            lines.append(encode_record(
                {"type": "end", "track": track_name(self.ctx.label)}))
        self.write_raw(lines)
        self._close_sinks()

    def abort(self) -> None:
        """Failure-path close: no ``end`` record, and no first write.

        If the stream already carried data, the pending tail is still
        flushed (crash diagnostics); if nothing was ever written, the
        sinks close untouched so a lazily-created ``--obs-out`` dir is
        never materialised by the failure itself.
        """
        if self._closed:
            return
        if self._meta_sent:
            self.write_raw(self._encode_new(final=True))
        self._close_sinks()

    def _close_sinks(self) -> None:
        for sink, owned in self.sinks:
            if owned:
                sink.close()
        self._closed = True


class StreamFold:
    """A stream read back, one record at a time — the one reader.

    :meth:`feed` files each record under its track (a record without a
    string ``track`` under ``""``): one
    :class:`~repro.obs.context.ObsData` per track, lists in emission
    order, counter deltas summed, last gauge, last histogram summary.
    It also counts what the dashboards show: ``records`` (decoded
    objects), ``invalid`` (non-objects and unknown ``type``s, which are
    otherwise dropped), ``schema_mismatch`` (``meta`` records of another
    schema version) and ``ended`` (tracks that wrote ``end``, in order).

    ``label`` is the top-level track (the one that wrote ``end``; the
    first track seen when the stream never ended).  ``registry``,
    ``provenance``, ``events`` and ``spans`` merge the tracks in name
    order, built on first use after a feed; ``events`` and ``spans`` are
    ``(track, item)`` pairs, each track in its own emission order.
    """

    def __init__(self) -> None:
        self.tracks: dict[str, ObsData] = {}
        self.ended: list[str] = []
        self.records = 0
        self.invalid = 0
        self.schema_mismatch = 0
        self._merged = None

    def feed(self, record) -> None:
        """Fold one decoded record in."""
        if not isinstance(record, dict):
            self.invalid += 1
            return
        self.records += 1
        rtype = record.get("type")
        if rtype not in RECORD_TYPES:
            self.invalid += 1
            return
        track = record.get("track")
        if not isinstance(track, str):
            track = ""
        data = self.tracks.get(track)
        if data is None:
            data = self.tracks[track] = ObsData(label=track)
        self._merged = None
        if rtype == "event":
            data.events.append(Event(
                str(record.get("name", "")), float(record.get("ts", 0.0)),
                float(record.get("sim_time", 0.0)),
                int(record.get("interval", -1)),
                {k: v for k, v in record.items() if k not in _EVENT_KEYS}))
        elif rtype == "span":
            data.spans.append(Span(
                str(record.get("name", "")), str(record.get("cat", "")),
                float(record.get("ts", 0.0)), float(record.get("dur", 0.0)),
                int(record.get("depth", 0)), dict(record.get("args") or {})))
        elif rtype == "provenance":
            data.provenance.append(_provenance(record))
        elif rtype == "metric":
            key = (str(record.get("name", "")),
                   label_key(dict(record.get("labels") or ())))
            kind = record.get("kind")
            if kind == "counter":
                data.counters[key] = (data.counters.get(key, 0)
                                      + record.get("delta", 0))
            elif kind == "gauge":
                data.gauges[key] = record.get("value", 0)
            elif kind == "histogram":
                data.histograms[key] = _histogram(record)
        elif rtype == "meta":
            if record.get("v") != STREAM_SCHEMA_VERSION:
                self.schema_mismatch += 1
        else:  # end
            self.ended.append(track)

    @property
    def label(self) -> str | None:
        if self.ended:
            return self.ended[-1]
        return next(iter(self.tracks), None)

    @property
    def done(self) -> bool:
        """True once some track wrote the ``end`` record."""
        return bool(self.ended)

    def _merge(self) -> tuple:
        if self._merged is None:
            registry = MetricsRegistry()
            provenance = ProvenanceLog()
            events: list[tuple[str, Event]] = []
            spans: list[tuple[str, Span]] = []
            for name in sorted(self.tracks):
                data = self.tracks[name]
                registry.merge_data(data.counters, data.gauges,
                                    data.histograms)
                provenance.extend(data.provenance)
                events.extend((name, event) for event in data.events)
                spans.extend((name, span) for span in data.spans)
            self._merged = (registry, provenance, events, spans)
        return self._merged

    @property
    def registry(self) -> MetricsRegistry:
        return self._merge()[0]

    @property
    def provenance(self) -> ProvenanceLog:
        return self._merge()[1]

    @property
    def events(self) -> list[tuple[str, Event]]:
        return self._merge()[2]

    @property
    def spans(self) -> list[tuple[str, Span]]:
        return self._merge()[3]

    def event_counts(self) -> dict[str, int]:
        """Event counts by name across every track."""
        out: dict[str, int] = {}
        for _, event in self.events:
            out[event.name] = out.get(event.name, 0) + 1
        return out

    @property
    def dropped_events(self) -> int:
        """Events lost to bounded buffers or the stream, every track."""
        return int(self.registry.counter_total("obs.dropped_events"))

    def problems(self) -> str:
        """The readers' stream-problems line; empty for a clean stream."""
        if not (self.invalid or self.schema_mismatch):
            return ""
        return (f"stream problems: {self.invalid} invalid records, "
                f"{self.schema_mismatch} schema mismatches")

    def report(self) -> dict:
        """Merged metrics in the ``repro report --json`` shape (with
        ``invalid_records``/``schema_mismatch`` when either is non-zero)."""
        out = {"label": self.label, "dropped_events": self.dropped_events,
               "event_counts": self.event_counts(),
               **self.registry.as_dict()}
        if self.problems():
            out.update(invalid_records=self.invalid,
                       schema_mismatch=self.schema_mismatch)
        return out


def _histogram(record: dict) -> HistogramStat:
    count = int(record.get("count", 0))
    if not count:
        return HistogramStat()
    return HistogramStat(count, record.get("total", 0.0),
                         record.get("min", 0.0), record.get("max", 0.0))


def _provenance(record: dict) -> ProvenanceRecord:
    return ProvenanceRecord(
        interval=int(record.get("interval", -1)),
        stage=str(record.get("stage", "")),
        page_start=int(record.get("page_start", 0)),
        npages=int(record.get("npages", 0)),
        src_node=int(record.get("src_node", -1)),
        dst_node=int(record.get("dst_node", -1)),
        reason=str(record.get("reason", "") or ""),
        score=float(record.get("score", 0.0)),
        attempt=int(record.get("attempt", 0)),
        detail=str(record.get("detail", "") or ""),
    )


#: Event record keys that are not payload fields.
_EVENT_KEYS = ("type", "track", "name", "ts", "sim_time", "interval")


def fold_records(records) -> StreamFold:
    """Fold decoded records (see module doc)."""
    fold = StreamFold()
    for record in records:
        fold.feed(record)
    return fold


def read_stream(run) -> StreamFold:
    """Fold the stream of a run directory (or a stream file).

    Raises :class:`~repro.errors.ConfigError` when there is none.
    """
    path = stream_file(run)
    if not path.exists():
        raise ConfigError(
            f"no telemetry stream under {run} — was the run made with "
            f"--obs or --obs-stream?"
        )
    return fold_records(iter_ndjson(path))


def _pid_alive(pid: int) -> bool:
    """True if ``pid`` exists (signal-0 probe; EPERM still means alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


def iter_ndjson(path, follow: bool = False, poll_interval: float = 0.1,
                timeout: float | None = None,
                dead_writer_grace=_GRACE_UNSET):
    """Yield decoded records from an NDJSON stream file (or run directory).

    Tolerant of a truncated final line: only complete (newline-terminated)
    lines are decoded; a partial tail is buffered until it completes.
    Complete-but-unparseable lines are skipped.  In ``follow`` mode the
    file may not exist yet; the generator waits for it, keeps reading as
    the file grows, and returns after yielding an ``end`` record, after
    ``timeout`` seconds without new data, or — the dead-writer escape —
    once every writer pid announced by a ``meta`` record has exited and
    the file has stayed quiet for the dead-writer grace.  A SIGKILLed
    producer never writes its ``end`` record; without the escape a
    ``repro watch`` (or CI tail) with no ``timeout`` would hang forever
    on its stream.

    Writer pids accumulate across *all* meta records: a multi-process
    stream (the socket collector's merged file, a relay) announces one
    ``meta`` per track, each carrying the writer's ``pid`` and
    optionally a ``pids`` list for processes writing through it; the
    escape only triggers once every announced pid is gone.

    The grace defaults to :data:`DEFAULT_DEAD_WRITER_GRACE`, may be
    overridden by the :data:`DEAD_WRITER_GRACE_ENV` environment variable
    (a float, or ``none``/``off``/``disabled``), and an explicit kwarg —
    including ``dead_writer_grace=None`` to disable the probe — beats
    both (:func:`resolve_dead_writer_grace`).
    """
    import time as _time

    dead_writer_grace = resolve_dead_writer_grace(dead_writer_grace)

    deadline_clock = _time.monotonic
    last_data = deadline_clock()
    fh = None
    buffer = ""
    writer_pids: set[int] = set()
    writers_dead_since: float | None = None

    def _idle_escape() -> bool:
        """True once an idle generator should give up following."""
        nonlocal writers_dead_since
        now = deadline_clock()
        if timeout is not None and now - last_data > timeout:
            return True
        if dead_writer_grace is None or not writer_pids:
            return False
        if any(_pid_alive(pid) for pid in writer_pids):
            writers_dead_since = None
            return False
        if writers_dead_since is None:
            writers_dead_since = now
        # One last grace window: a writer may die *after* its final
        # writelines reached the page cache but before we read it.
        return now - max(writers_dead_since, last_data) > dead_writer_grace

    try:
        while True:
            if fh is None:
                try:
                    fh = open_text(stream_file(path))
                except OSError:
                    if not follow or _idle_escape():
                        return
                    _time.sleep(poll_interval)
                    continue
            try:
                chunk = fh.read()
            except EOFError:
                # A gzipped stream still being written ends mid-member;
                # treat the truncated tail as "no new data yet".
                chunk = ""
            if chunk:
                last_data = deadline_clock()
                *lines, buffer = (buffer + chunk).split("\n")
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if (isinstance(record, dict)
                            and record.get("type") == "meta"):
                        if isinstance(record.get("pid"), int):
                            writer_pids.add(record["pid"])
                        pids = record.get("pids")
                        if isinstance(pids, list):
                            writer_pids.update(
                                p for p in pids if isinstance(p, int))
                    yield record
                    if isinstance(record, dict) and record.get("type") == "end":
                        return
            else:
                if not follow or _idle_escape():
                    return
                _time.sleep(poll_interval)
    finally:
        if fh is not None:
            fh.close()


__all__ = [
    "DEAD_WRITER_GRACE_ENV",
    "DEFAULT_DEAD_WRITER_GRACE",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_TRACK",
    "JOURNAL_NAME",
    "METRIC_KINDS",
    "RECORD_TYPES",
    "STREAM_NAME",
    "STREAM_SCHEMA_VERSION",
    "StreamFold",
    "StreamPublisher",
    "encode_record",
    "fold_records",
    "iter_ndjson",
    "meta_record",
    "open_text",
    "read_stream",
    "resolve_dead_writer_grace",
    "stream_file",
    "track_name",
    "track_records",
    "validate_stream_record",
]
