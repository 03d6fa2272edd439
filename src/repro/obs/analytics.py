"""Offline analytics over a run's telemetry stream.

Three layers, all reading the one fold of :mod:`repro.obs.stream`:

* **Loader** — :func:`load_run` folds a run/sweep/service directory
  (``stream.ndjson`` plain or ``.gz``, finished or cut short; service
  ``journal.ndjson``) and returns the fold, its provenance in canonical
  order (sorted by the full record key, so the answer does not depend
  on absorb or relay order), and five in-memory query tables of numpy
  columns (provenance, events, metrics, spans, journal).  Nothing is
  written back: every query reads the stream as it is now.
  :func:`sim_fingerprint` hashes the simulation-domain rows of those
  tables.
* **Analyses** — :func:`dwell_time`, :func:`top_pages`,
  :func:`lifecycle_funnel`, :func:`ping_pong` over a provenance log,
  and a generic :func:`query_table` verb with filter/group/top-N over
  the tables.  Each returns a machine-readable dict; the ping-pong
  report doubles as a deny-list seed for the planned admission-control
  plane (its ``deny_ranges`` are page ranges an admission filter can
  refuse to re-promote).
* **Diff** — :func:`diff_runs` compares two runs metric-by-metric with
  verdicts and bootstrap confidence intervals (reusing
  :mod:`repro.bench.stats`); :func:`diff_bench` compares the newest
  ``BENCH_history.jsonl`` record against the trajectory of earlier ones.

Page-resolved analyses (dwell, ping-pong, top pages) read the merged
provenance log.  A multi-cell matrix merges every cell's provenance
into one log without track tags, so page identities collide across
cells; run those analyses on single-run directories (``repro run
--obs``) for exact answers.  Hotness comes from the planner's region
scores — the stream carries no raw per-access counts — so "access
share" here is *hotness-mass share*.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.obs.provenance import (
    STAGE_COMMITTED,
    STAGE_PLANNED,
    ProvenanceLog,
)

if TYPE_CHECKING:
    from repro.obs.stream import StreamFold

#: Report schema version stamped into every analysis dict.
REPORT_VERSION = 1

_PROV_SORT_KEY = ("interval", "page_start", "npages", "src_node",
                  "dst_node", "stage", "attempt", "score", "reason",
                  "detail")

#: Numeric event fields lifted into dedicated columns (NaN when the
#: event does not carry the field); the rest of an event's payload is
#: left out of the table.
EVENT_FIELD_COLUMNS = ("pages", "src", "dst", "score", "count",
                      "attempt", "nbytes")

#: Query table schemas, column order significant (it is the row tuple
#: order of :func:`sim_fingerprint`).  ``object`` columns hold strings;
#: a missing cell reads ``""``, NaN (floats) or -1 (integers).
TABLE_SCHEMAS: dict[str, dict[str, type]] = {
    "provenance": {
        "interval": np.int64, "page_start": np.int64, "npages": np.int64,
        "src_node": np.int32, "dst_node": np.int32, "attempt": np.int32,
        "score": np.float64, "stage": object, "reason": object,
    },
    "events": {
        "interval": np.int64, "ts": np.float64, "sim_time": np.float64,
        "name": object, "track": object,
        **{field: np.float64 for field in EVENT_FIELD_COLUMNS},
    },
    "metrics": {
        "name": object, "kind": object, "value": np.float64,
        "count": np.float64, "total": np.float64, "min": np.float64,
        "max": np.float64,
    },
    "spans": {
        "name": object, "track": object, "ts": np.float64, "dur": np.float64,
    },
    "journal": {
        "op": object, "job": object, "workload": object, "solution": object,
        "source": object, "state": object, "attempt": np.int32,
    },
}

#: Metric/event name prefixes that are host-side, not simulated (see
#: tests/test_obs_identity.py); excluded from :func:`sim_fingerprint`.
HOST_METRIC_PREFIXES = ("cache.", "perf.", "obs.")
HOST_EVENT_PREFIXES = ("cache.",)
#: Name substrings marking host wall-clock metrics outside the host
#: prefixes (e.g. ``engine.interval_host_seconds``).
HOST_METRIC_SUBSTRINGS = ("host_seconds",)


# -- loader --------------------------------------------------------------------


def _columns(table: str, rows) -> dict[str, np.ndarray]:
    """Column arrays of ``table`` built from row dicts."""
    schema = TABLE_SCHEMAS[table]
    cells: dict[str, list] = {col: [] for col in schema}
    for row in rows:
        for col, dtype in schema.items():
            value = row.get(col)
            if dtype is object:
                value = "" if value is None else str(value)
            elif value is None:
                value = np.nan if dtype is np.float64 else -1
            cells[col].append(value)
    return {col: np.array(values, dtype=schema[col])
            for col, values in cells.items()}


def _metric_rows(data: dict) -> list[dict]:
    rows = [{"kind": "counter", "name": name, "value": float(value)}
            for name, value in data["counters"].items()]
    rows += [{"kind": "gauge", "name": name, "value": float(value)}
             for name, value in data["gauges"].items()]
    rows += [{"kind": "histogram", "name": name,
              "value": float(stat["mean"]), "count": float(stat["count"]),
              "total": float(stat["total"]), "min": float(stat["min"]),
              "max": float(stat["max"])}
             for name, stat in data["histograms"].items()]
    return sorted(rows, key=lambda r: (r["kind"], r["name"]))


def _event_row(track: str, event) -> dict:
    row = {f: event.fields[f] for f in EVENT_FIELD_COLUMNS
           if isinstance(event.fields.get(f), (int, float))}
    row.update(interval=event.interval, ts=event.ts,
               sim_time=event.sim_time, name=event.name, track=track)
    return row


def _journal_rows(state_dir: Path) -> list[dict]:
    from repro.service.journal import Journal

    return [{"op": r.get("op", ""), "job": r.get("job_id", ""),
             "workload": r.get("workload", ""),
             "solution": r.get("solution", ""),
             "source": r.get("source", ""), "state": r.get("state", ""),
             "attempt": int(r.get("attempt", -1))}
            for r in Journal(state_dir).records()]


def _prov_key(record) -> tuple:
    return tuple(getattr(record, k) for k in _PROV_SORT_KEY)


def canonical_provenance(log: ProvenanceLog) -> ProvenanceLog:
    """The log's records sorted by their full key (absorb-order free)."""
    return ProvenanceLog(sorted(log.records, key=_prov_key))


@dataclass
class RunData:
    """One artifact directory read back for analysis (see :func:`load_run`).

    ``fold`` is ``None`` for a service directory without a stream.
    ``meta`` holds ``source`` (``stream`` or ``service``), ``intervals``
    (one past the last interval any event or provenance record names)
    and, with a stream, the fold's ``label``.
    """

    path: Path
    fold: StreamFold | None
    provenance: ProvenanceLog
    tables: dict[str, dict[str, np.ndarray]]
    meta: dict

    def rows(self, table: str) -> int:
        return len(next(iter(self.table(table).values())))

    def table(self, table: str) -> dict[str, np.ndarray]:
        try:
            return self.tables[table]
        except KeyError:
            raise ConfigError(
                f"{self.path} has no table {table!r} "
                f"(tables: {', '.join(sorted(self.tables))})"
            ) from None

    def column(self, table: str, col: str) -> np.ndarray:
        try:
            return self.table(table)[col]
        except KeyError:
            raise ConfigError(f"table {table!r} has no column {col!r}") from None


def load_run(run_dir) -> RunData:
    """Fold one artifact directory into its provenance and query tables.

    Accepts a run/sweep ``--obs-out`` directory (its ``stream.ndjson``,
    plain or ``.gz``) or a service state directory (journal plus
    optional stream).  The stream is read through
    :func:`~repro.obs.stream.read_stream`, whose track-ordered fold
    makes every table independent of how a pooled run interleaved its
    cells.
    """
    from repro.obs.stream import JOURNAL_NAME, read_stream, stream_file

    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    has_stream = stream_file(run_dir).exists()
    has_journal = (run_dir / JOURNAL_NAME).exists()
    if not (has_stream or has_journal):
        raise ConfigError(
            f"{run_dir} holds no observability artifacts — was the run "
            f"made with --obs (or the service with --obs-stream)?"
        )

    fold = read_stream(run_dir) if has_stream else None
    provenance = canonical_provenance(
        fold.provenance if fold else ProvenanceLog())
    tables = {
        "provenance": _columns("provenance", (
            {k: getattr(r, k) for k in TABLE_SCHEMAS["provenance"]}
            for r in provenance.records)),
        "events": _columns("events", (
            _event_row(track, event) for track, event in
            (fold.events if fold else ()))),
    }
    meta: dict = {"source": "service" if has_journal else "stream"}
    if fold:
        meta["label"] = fold.label
        tables["metrics"] = _columns(
            "metrics", _metric_rows(fold.registry.as_dict()))
        # Microseconds, the Chrome/Perfetto unit of trace.json.
        tables["spans"] = _columns("spans", (
            {"name": span.name, "track": track, "ts": span.ts * 1e6,
             "dur": span.dur * 1e6} for track, span in fold.spans))
    if has_journal:
        tables["journal"] = _columns("journal", _journal_rows(run_dir))
    meta["intervals"] = max(
        (int(tables[t]["interval"].max()) for t in ("events", "provenance")
         if len(tables[t]["interval"])), default=-1) + 1
    return RunData(run_dir, fold, provenance, tables, meta)


def _hash_rows(digest, columns: list[np.ndarray]) -> None:
    for row in zip(*[c.tolist() for c in columns]):
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")


#: Per-table predicate on ``name`` marking host-side rows, which
#: :func:`sim_fingerprint` leaves out.
_HOST_ROWS = {
    "events": lambda name: name.startswith(HOST_EVENT_PREFIXES),
    "metrics": lambda name: (name.startswith(HOST_METRIC_PREFIXES)
                             or any(s in name for s in HOST_METRIC_SUBSTRINGS)),
}


def sim_fingerprint(run: RunData) -> str:
    """Hex digest of a run's simulation-domain content.

    A serial and a ``workers=K`` run of the same matrix must agree
    here: the event ``ts`` wall-clock column, ``cache.*`` events,
    ``cache.*``/``perf.*``/``obs.*`` and ``host_seconds`` metrics, and
    the spans table (pure wall-clock) are excluded; event rows are
    compared track-by-track in each track's own emission order, which
    the fold guarantees.
    """
    digest = hashlib.sha256()
    for table in ("provenance", "events", "metrics", "journal"):
        if table not in run.tables:
            continue
        digest.update(f"{table}\n".encode("utf-8"))
        columns = run.tables[table]
        host = _HOST_ROWS.get(table)
        keep = (np.array([not host(n) for n in columns["name"].tolist()],
                         dtype=bool) if host else slice(None))
        _hash_rows(digest, [col[keep] for name, col in columns.items()
                            if (table, name) != ("events", "ts")])
    return digest.hexdigest()


# -- provenance row access -----------------------------------------------------


def _committed_rows(log: ProvenanceLog, start=None, end=None):
    """(interval, page_start, npages, src, dst) arrays of committed moves,
    in canonical order, through :meth:`ProvenanceLog.for_interval`."""
    lo = 0 if start is None else start
    hi = _end_interval(log) if end is None else end
    rows = [r for r in log.for_interval(lo, hi) if r.stage == STAGE_COMMITTED]
    rows.sort(key=_prov_key)
    return (np.array([r.interval for r in rows], dtype=np.int64),
            np.array([r.page_start for r in rows], dtype=np.int64),
            np.array([r.npages for r in rows], dtype=np.int64),
            np.array([r.src_node for r in rows], dtype=np.int64),
            np.array([r.dst_node for r in rows], dtype=np.int64))


def _end_interval(log: ProvenanceLog) -> int:
    return max((r.interval for r in log.records), default=-1) + 1


# -- built-in analyses ---------------------------------------------------------


def dwell_samples(log: ProvenanceLog, start=None, end=None, horizon=None):
    """Closed/open dwell durations per tier, from committed migrations.

    Returns ``(closed, open_)``: dicts mapping tier id to an int64 array
    of dwell lengths (intervals a page spent on that tier before being
    migrated away / before the run ended).  A page's residence is only
    visible between migrations, so never-migrated pages contribute
    nothing — dwell describes the *migrated* population.  Open
    residences run to ``end``, else to ``horizon`` (the interval count
    of the run, :attr:`RunData.meta` ``intervals``), else to one past
    the last provenance record.
    """
    interval, page_start, npages, src, dst = _committed_rows(
        log, start, end)
    closed: dict[int, list[np.ndarray]] = {}
    if len(page_start) == 0:
        return {}, {}
    maxpage = int((page_start + npages).max())
    tier = np.full(maxpage, -1, dtype=np.int64)
    since = np.zeros(maxpage, dtype=np.int64)
    for iv, ps, n, s, d in zip(interval.tolist(), page_start.tolist(),
                               npages.tolist(), src.tolist(), dst.tolist()):
        sl = slice(ps, ps + n)
        known = tier[sl] >= 0
        if known.any():
            dwell = iv - since[sl][known]
            for t in np.unique(tier[sl][known]).tolist():
                closed.setdefault(t, []).append(
                    dwell[tier[sl][known] == t])
        tier[sl] = d
        since[sl] = iv
    if end is not None:
        horizon = end
    elif horizon is None:
        horizon = _end_interval(log)
    open_: dict[int, np.ndarray] = {}
    resident = tier >= 0
    for t in np.unique(tier[resident]).tolist():
        open_[t] = horizon - since[resident & (tier == t)]
    return ({t: np.concatenate(parts) for t, parts in closed.items()},
            open_)


def dwell_time(log: ProvenanceLog, start=None, end=None, horizon=None,
               bin_edges=(1, 2, 4, 8, 16, 32, 64, 128, 256)) -> dict:
    """Per-tier dwell-time histograms (machine-readable report)."""
    closed, open_ = dwell_samples(log, start, end, horizon)
    edges = list(bin_edges)
    tiers: dict[str, dict] = {}
    for t in sorted(set(closed) | set(open_)):
        samples = closed.get(t, np.zeros(0, dtype=np.int64))
        counts = np.bincount(
            np.digitize(samples, edges), minlength=len(edges) + 1)
        opens = open_.get(t, np.zeros(0, dtype=np.int64))
        tiers[str(t)] = {
            "closed_count": int(len(samples)),
            "mean": float(samples.mean()) if len(samples) else 0.0,
            "max": int(samples.max()) if len(samples) else 0,
            "bins": edges,
            "counts": counts.tolist(),
            "open_count": int(len(opens)),
            "open_mean": float(opens.mean()) if len(opens) else 0.0,
        }
    return {"v": REPORT_VERSION, "analysis": "dwell",
            "params": {"start": start, "end": end},
            "tiers": tiers,
            "samples_total": int(sum(len(v) for v in closed.values()))}


def top_pages(log: ProvenanceLog, k: int = 10) -> dict:
    """Top-K hot pages by hotness-mass share.

    Share is each page's fraction of the total planner score mass
    accumulated over ``planned`` provenance records (the stream carries
    region scores, not raw access counts), summed in log order.
    """
    rows = [r for r in log.records if r.stage == STAGE_PLANNED]
    page_start = np.array([r.page_start for r in rows], dtype=np.int64)
    npages = np.array([r.npages for r in rows], dtype=np.int64)
    score = np.array([r.score for r in rows], dtype=np.float64)
    if len(page_start) == 0:
        return {"v": REPORT_VERSION, "analysis": "top-pages", "k": k,
                "total_score": 0.0, "pages": []}
    maxpage = int((page_start + npages).max())
    mass = np.zeros(maxpage, dtype=np.float64)
    for ps, n, s in zip(page_start.tolist(), npages.tolist(),
                        score.tolist()):
        mass[ps:ps + n] += s
    total = float(mass.sum())
    order = np.lexsort((np.arange(maxpage), -mass))[:k]
    pages = [{"page": int(p), "score": float(mass[p]),
              "share": float(mass[p] / total) if total else 0.0}
             for p in order.tolist() if mass[p] > 0]
    return {"v": REPORT_VERSION, "analysis": "top-pages", "k": k,
            "total_score": total, "pages": pages}


#: Causal rank of lifecycle stages within one interval: a plan precedes
#: the commit it causes, so same-interval pairs must match in this
#: order, not the alphabetical stage order of canonical provenance.
_STAGE_RANK = {"planned": 0, "retry-scheduled": 1, "busy": 2,
               "pressure": 3, "demote-for-room": 4, "fallback": 5,
               "committed": 6, "exhausted": 7}


def lifecycle_funnel(log: ProvenanceLog) -> dict:
    """Stage funnel + per-occurrence plan→commit latency distribution.

    Latencies FIFO-match each region's ``planned`` records to its
    subsequent ``committed`` records in the same direction — the
    log-wide analog of :meth:`ProvenanceLog.queue_latencies`.
    """
    stages = [r.stage for r in log.records]
    keys = [(r.page_start, r.npages, r.src_node, r.dst_node)
            for r in log.records]
    intervals = [r.interval for r in log.records]
    order = sorted(
        range(len(stages)),
        key=lambda i: (intervals[i], _STAGE_RANK.get(stages[i], 9), i))
    stage_counts: dict[str, int] = {}
    pending: dict[tuple, list[int]] = {}
    latencies: list[int] = []
    for i in order:
        stage, key, interval = stages[i], keys[i], intervals[i]
        stage_counts[stage] = stage_counts.get(stage, 0) + 1
        if stage == STAGE_PLANNED:
            pending.setdefault(key, []).append(interval)
        elif stage == STAGE_COMMITTED and pending.get(key):
            latencies.append(interval - pending[key].pop(0))
    lat = np.array(sorted(latencies), dtype=np.float64)
    planned = stage_counts.get(STAGE_PLANNED, 0)
    committed = stage_counts.get(STAGE_COMMITTED, 0)

    def _q(q: float) -> float:
        return float(np.quantile(lat, q)) if len(lat) else 0.0

    return {
        "v": REPORT_VERSION, "analysis": "funnel",
        "stages": dict(sorted(stage_counts.items())),
        "occurrences": len(latencies),
        "latency": {"mean": float(lat.mean()) if len(lat) else 0.0,
                    "p50": _q(0.5), "p95": _q(0.95),
                    "max": int(lat.max()) if len(lat) else 0},
        "commit_share": committed / planned if planned else 0.0,
    }


def ping_pong(log: ProvenanceLog, min_round_trips: int = 2, window: int = 8,
              max_pages: int = 1000) -> dict:
    """Pages bouncing between tiers: the admission-control deny-list seed.

    A *round trip* is a committed migration that returns a page to the
    tier it left no more than ``window`` intervals earlier.  Pages with
    at least ``min_round_trips`` round trips are reported, and adjacent
    offenders coalesce into ``deny_ranges`` (``[start, end)`` page
    spans) that a future admission filter can consume directly.
    """
    interval, page_start, npages, src, dst = _committed_rows(log)
    params = {"min_round_trips": min_round_trips, "window": window}
    if len(page_start) == 0:
        return {"v": REPORT_VERSION, "analysis": "ping-pong",
                "params": params, "page_count": 0, "pages": [],
                "deny_ranges": []}
    maxpage = int((page_start + npages).max())
    last_src = np.full(maxpage, -1, dtype=np.int64)
    last_iv = np.full(maxpage, -(window + 1), dtype=np.int64)
    trips = np.zeros(maxpage, dtype=np.int64)
    for iv, ps, n, s, d in zip(interval.tolist(), page_start.tolist(),
                               npages.tolist(), src.tolist(), dst.tolist()):
        sl = slice(ps, ps + n)
        bounce = (last_src[sl] == d) & (iv - last_iv[sl] <= window)
        trips[sl] += bounce
        last_src[sl] = s
        last_iv[sl] = iv
    offenders = np.nonzero(trips >= min_round_trips)[0]
    ranges: list[list[int]] = []
    for p in offenders.tolist():
        if ranges and ranges[-1][1] == p:
            ranges[-1][1] = p + 1
        else:
            ranges.append([p, p + 1])
    pages = [{"page": int(p), "round_trips": int(trips[p])}
             for p in offenders[:max_pages].tolist()]
    return {"v": REPORT_VERSION, "analysis": "ping-pong", "params": params,
            "page_count": int(len(offenders)), "pages": pages,
            "deny_ranges": ranges}


def run_summary(run: RunData) -> dict:
    """Run overview: meta, table sizes, stage/event totals."""
    tables = {name: run.rows(name) for name in sorted(run.tables)}
    out = {"v": REPORT_VERSION, "analysis": "summary",
           "meta": dict(sorted(run.meta.items())), "tables": tables}
    if tables["provenance"]:
        stages = run.column("provenance", "stage")
        uniq, counts = np.unique(stages, return_counts=True)
        out["stages"] = {str(s): int(c) for s, c in zip(uniq, counts)}
    if tables["events"]:
        names = run.column("events", "name")
        uniq, counts = np.unique(names, return_counts=True)
        out["events"] = {str(s): int(c) for s, c in zip(uniq, counts)}
    return out


# -- generic query verb --------------------------------------------------------

_OPS = ("<=", ">=", "!=", "=", "<", ">")


def _parse_where(clause: str) -> tuple[str, str, str]:
    for op in _OPS:
        if op in clause:
            col, _, value = clause.partition(op)
            return col.strip(), op, value.strip()
    raise ConfigError(f"bad --where clause {clause!r} "
                      f"(expected COL{_OPS} VALUE)")


def _where_mask(run: RunData, table: str, clauses) -> np.ndarray:
    mask = np.ones(run.rows(table), dtype=bool)
    for clause in clauses or ():
        col, op, value = _parse_where(clause)
        data = run.column(table, col)
        if data.dtype == object:
            if op not in ("=", "!="):
                raise ConfigError(
                    f"column {col!r} is categorical; only = and != apply")
            hit = data == value
        else:
            try:
                needle = float(value)
            except ValueError:
                raise ConfigError(
                    f"column {col!r} is numeric; {value!r} is not") from None
            hit = {"=": data == needle, "!=": data != needle,
                   "<": data < needle, ">": data > needle,
                   "<=": data <= needle, ">=": data >= needle}[op]
        mask &= hit
    return mask


def query_table(run: RunData, table: str, where=None,
                group: str | None = None, agg: str = "count",
                top: int | None = None, limit: int = 20) -> dict:
    """Filter/group/top-N over one table; machine-readable result.

    ``agg`` is ``count`` or ``sum:COL``/``mean:COL``/``min:COL``/
    ``max:COL`` over a numeric column.  Without ``group``, returns the
    first ``limit`` matching rows.
    """
    mask = _where_mask(run, table, where)
    matched = int(mask.sum())
    if group is None:
        columns = run.table(table)
        rows = [{col: (data[i] if data.dtype == object else data[i].item())
                 for col, data in columns.items()}
                for i in np.nonzero(mask)[0][:limit].tolist()]
        return {"v": REPORT_VERSION, "table": table, "matched": matched,
                "rows": rows}

    op, _, target = agg.partition(":")
    if op not in ("count", "sum", "mean", "min", "max"):
        raise ConfigError(f"unknown aggregate {op!r}")
    if op != "count" and not target:
        raise ConfigError(f"aggregate {op!r} needs a column: {op}:COL")
    keys = run.column(table, group)[mask]
    uniq, inverse = np.unique(keys, return_inverse=True)
    if op == "count":
        values = np.bincount(inverse, minlength=len(uniq)).astype(float)
    else:
        data = run.column(table, target)[mask]
        if data.dtype == object:
            raise ConfigError(
                f"column {target!r} is categorical; {op} needs a numeric one")
        data = data.astype(float)
        if op == "sum":
            values = np.bincount(inverse, weights=data, minlength=len(uniq))
        elif op == "mean":
            counts = np.bincount(inverse, minlength=len(uniq))
            values = np.bincount(inverse, weights=data,
                                 minlength=len(uniq)) / np.maximum(counts, 1)
        else:
            values = np.full(len(uniq), np.nan)
            for j in range(len(uniq)):
                part = data[inverse == j]
                values[j] = part.min() if op == "min" else part.max()
    order = np.lexsort((np.arange(len(uniq)), -values))
    if top is not None:
        order = order[:top]
    rows = [[uniq[j] if isinstance(uniq[j], str) else uniq[j].item(),
             float(values[j])] for j in order.tolist()]
    return {"v": REPORT_VERSION, "table": table, "matched": matched,
            "group": group, "agg": agg, "rows": rows}


# -- differential layer --------------------------------------------------------

#: Metric-name prefixes where *lower* is better.
LOWER_BETTER = ("perf.", "faults.", "fault.", "obs.dropped",
                "obs.relay", "migrate.retries", "migrate.failed",
                "analysis.pingpong", "analysis.funnel.latency",
                "service.dead_letter", "seconds")
#: Metric-name prefixes where *higher* is better.
HIGHER_BETTER = ("cache.hits", "analysis.funnel.commit_share",
                 "service.cache.hits", "speedup", "throughput")


def _direction(name: str) -> int:
    """+1 higher-better, -1 lower-better, 0 unknown (neutral verdict)."""
    base = name.split("{", 1)[0]
    for prefix in HIGHER_BETTER:
        if base.startswith(prefix) or base.endswith(prefix):
            return 1
    for prefix in LOWER_BETTER:
        if base.startswith(prefix) or base.endswith(prefix):
            return -1
    return 0


def run_metrics(run_dir) -> tuple[dict, RunData]:
    """Flat metric map of one run dir: merged registry + derived analyses."""
    run = load_run(run_dir)
    out: dict[str, float] = {}
    if "metrics" in run.tables:
        metrics = run.tables["metrics"]
        for name, kind, value in zip(metrics["name"], metrics["kind"],
                                     metrics["value"]):
            key = f"{name}.mean" if kind == "histogram" else str(name)
            out[key] = float(value)
    funnel = lifecycle_funnel(run.provenance)
    out["analysis.funnel.commit_share"] = funnel["commit_share"]
    out["analysis.funnel.latency.p50"] = funnel["latency"]["p50"]
    out["analysis.funnel.latency.p95"] = funnel["latency"]["p95"]
    pp = ping_pong(run.provenance)
    out["analysis.pingpong.pages"] = float(pp["page_count"])
    closed, _ = dwell_samples(run.provenance)
    for tier, samples in sorted(closed.items()):
        out[f"analysis.dwell.tier{tier}.mean"] = float(samples.mean())
    return out, run


def _compare(name: str, va: float, vb: float, tol: float,
             ci: tuple[float, float] | None = None) -> dict:
    delta = vb - va
    rel = (delta / abs(va)) if va else (0.0 if delta == 0 else math.inf)
    direction = _direction(name)
    insignificant = ci is not None and ci[0] <= 0.0 <= ci[1]
    if (abs(rel) <= tol and math.isfinite(rel)) or insignificant:
        verdict = "unchanged"
    elif direction == 0:
        verdict = "changed"
    elif (delta < 0) == (direction < 0):
        verdict = "improved"
    else:
        verdict = "regressed"
    entry = {"metric": name, "a": va, "b": vb, "delta": delta,
             "rel": rel if math.isfinite(rel) else None, "verdict": verdict}
    if ci is not None:
        entry["ci95"] = [ci[0], ci[1]]
    return entry


def diff_runs(a, b, tol: float = 0.01) -> dict:
    """Metric-by-metric comparison of two runs (or sweep cells).

    Scalar registry metrics get relative-delta verdicts; dwell means —
    the metrics with full sample distributions in the stream — also get a
    bootstrap 95% CI of the mean difference (B−A), and a CI containing
    zero downgrades the verdict to ``unchanged``.
    """
    from repro.bench.stats import bootstrap_diff_ci

    ma, run_a = run_metrics(a)
    mb, run_b = run_metrics(b)
    dwell_a, _ = dwell_samples(run_a.provenance)
    dwell_b, _ = dwell_samples(run_b.provenance)
    metrics: list[dict] = []
    for name in sorted(set(ma) & set(mb)):
        ci = None
        if name.startswith("analysis.dwell.tier"):
            tier = int(name.split("tier", 1)[1].split(".", 1)[0])
            sa, sb = dwell_a.get(tier), dwell_b.get(tier)
            if sa is not None and sb is not None and len(sa) > 1 \
                    and len(sb) > 1:
                ci = bootstrap_diff_ci(sb.tolist(), sa.tolist())
        metrics.append(_compare(name, ma[name], mb[name], tol, ci))
    only_a = sorted(set(ma) - set(mb))
    only_b = sorted(set(mb) - set(ma))
    summary = {v: 0 for v in ("improved", "regressed", "unchanged",
                              "changed")}
    for entry in metrics:
        summary[entry["verdict"]] += 1
    return {"v": REPORT_VERSION, "kind": "runs", "a": str(a), "b": str(b),
            "tol": tol, "metrics": metrics, "only_a": only_a,
            "only_b": only_b, "summary": summary}


def diff_bench(history_path, driver: str | None = None,
               tol: float = 0.05) -> dict:
    """Regression check of the newest bench-history record vs the past.

    For every numeric metric the latest record shares with its
    predecessors, the predecessors' samples form a bootstrap 95% CI of
    the expected value; a latest value outside the CI *and* beyond
    ``tol`` relative change is a regression (or an improvement,
    depending on the metric's direction).
    """
    from repro.bench.history import read_history
    from repro.bench.stats import bootstrap_ci

    records = read_history(history_path)
    if driver:
        records = [r for r in records if r.get("driver") == driver]
    if len(records) < 2:
        raise ConfigError(
            f"bench diff needs at least 2 history records"
            f"{f' for driver {driver!r}' if driver else ''}; "
            f"found {len(records)} in {history_path}"
        )
    latest, prior = records[-1], records[:-1]

    def _flat(record: dict) -> dict[str, float]:
        out = {"seconds": float(record.get("seconds", 0.0))}
        for key, value in (record.get("metrics") or {}).items():
            if isinstance(value, (int, float)):
                out[key] = float(value)
        return out

    latest_metrics = _flat(latest)
    metrics: list[dict] = []
    for name in sorted(latest_metrics):
        samples = [_flat(r)[name] for r in prior if name in _flat(r)]
        if not samples:
            continue
        baseline = sum(samples) / len(samples)
        entry = _compare(name, baseline, latest_metrics[name], tol)
        if len(samples) >= 2:
            lo, hi = bootstrap_ci(samples)
            entry["ci95"] = [lo, hi]
            if lo <= latest_metrics[name] <= hi:
                entry["verdict"] = "unchanged"
        metrics.append(entry)
    summary = {v: 0 for v in ("improved", "regressed", "unchanged",
                              "changed")}
    for entry in metrics:
        summary[entry["verdict"]] += 1
    return {"v": REPORT_VERSION, "kind": "bench",
            "history": str(history_path),
            "driver": driver or latest.get("driver"),
            "entries": len(records), "latest": {
                "iso": latest.get("iso"), "profile": latest.get("profile")},
            "tol": tol, "metrics": metrics, "summary": summary}


# -- rendering -----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_diff_text(diff: dict, limit: int | None = None) -> str:
    """Terminal rendering of a diff report."""
    from repro.metrics.report import Table

    if diff["kind"] == "bench":
        title = (f"bench trajectory: {diff['driver']} "
                 f"({diff['entries']} records, latest {diff['latest']['iso']})")
    else:
        title = f"diff: {diff['a']} -> {diff['b']}"
    table = Table(title, ["metric", "a", "b", "delta", "rel", "ci95",
                          "verdict"])
    interesting = [m for m in diff["metrics"] if m["verdict"] != "unchanged"]
    shown = interesting if limit is None else interesting[:limit]
    for entry in shown:
        rel = entry.get("rel")
        ci = entry.get("ci95")
        table.add_row(
            entry["metric"], _fmt(entry["a"]), _fmt(entry["b"]),
            _fmt(entry["delta"]),
            f"{rel:+.1%}" if rel is not None else "-",
            f"[{_fmt(ci[0])}, {_fmt(ci[1])}]" if ci else "-",
            entry["verdict"],
        )
    s = diff["summary"]
    lines = [table.render(),
             f"{s['improved']} improved, {s['regressed']} regressed, "
             f"{s['changed']} changed (no known direction), "
             f"{s['unchanged']} unchanged"]
    if len(interesting) > len(shown):
        lines.append(f"... {len(interesting) - len(shown)} more changed "
                     f"metrics (raise --limit)")
    if diff.get("only_a") or diff.get("only_b"):
        lines.append(f"unmatched metrics: {len(diff.get('only_a', []))} "
                     f"only in A, {len(diff.get('only_b', []))} only in B")
    return "\n".join(lines)


_VERDICT_CLASS = {"improved": "status-ok", "regressed": "status-over",
                  "changed": "", "unchanged": ""}


def render_diff_html(diff: dict, title: str = "repro diff") -> str:
    """Self-contained HTML diff report (reuses the watch dataviz tokens)."""
    from repro.obs.watch import HTML_STYLE, escape_html

    s = diff["summary"]
    if diff["kind"] == "bench":
        sub = (f"bench trajectory · {escape_html(diff['driver'])} · "
               f"{diff['entries']} history records")
    else:
        sub = (f"{escape_html(diff['a'])} → {escape_html(diff['b'])} · "
               f"tolerance {diff['tol']:.1%}")
    tiles = [("Improved", s["improved"], "status-ok"),
             ("Regressed", s["regressed"], "status-over"),
             ("Changed", s["changed"], ""),
             ("Unchanged", s["unchanged"], "")]
    tile_html = "".join(
        f'<div class="tile"><div class="label">{label}</div>'
        f'<div class="value {cls}">{count}</div></div>'
        for label, count, cls in tiles)
    rows = []
    for entry in diff["metrics"]:
        if entry["verdict"] == "unchanged":
            continue
        rel = entry.get("rel")
        ci = entry.get("ci95")
        cls = _VERDICT_CLASS.get(entry["verdict"], "")
        rows.append(
            "<tr>"
            f"<td>{escape_html(entry['metric'])}</td>"
            f"<td class=num>{_fmt(entry['a'])}</td>"
            f"<td class=num>{_fmt(entry['b'])}</td>"
            f"<td class=num>{f'{rel:+.1%}' if rel is not None else '-'}</td>"
            f"<td class=num>"
            f"{f'[{_fmt(ci[0])}, {_fmt(ci[1])}]' if ci else '-'}</td>"
            f'<td><span class="{cls}">{entry["verdict"]}</span></td>'
            "</tr>")
    body = "".join(rows) or ("<tr><td colspan=6>no metric moved beyond "
                             "tolerance</td></tr>")
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>{escape_html(title)}</title>
<style>{HTML_STYLE}
.viz-root table {{ border-collapse: collapse; width: 100%; font-size: 13px; }}
.viz-root th, .viz-root td {{ text-align: left; padding: 4px 10px;
  border-bottom: 1px solid var(--grid); }}
.viz-root td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
</style></head>
<body class="viz-root">
<h1>{escape_html(title)}</h1>
<p class="sub">{sub}</p>
<div class="tiles">{tile_html}</div>
<div class="panel"><h2>Metric deltas</h2>
<table><tr><th>metric</th><th>a</th><th>b</th><th>rel</th><th>95% CI</th>
<th>verdict</th></tr>
{body}
</table></div>
</body></html>
"""


__all__ = [
    "EVENT_FIELD_COLUMNS",
    "HOST_EVENT_PREFIXES",
    "HOST_METRIC_PREFIXES",
    "HOST_METRIC_SUBSTRINGS",
    "REPORT_VERSION",
    "RunData",
    "TABLE_SCHEMAS",
    "canonical_provenance",
    "diff_bench",
    "diff_runs",
    "dwell_samples",
    "dwell_time",
    "lifecycle_funnel",
    "load_run",
    "ping_pong",
    "query_table",
    "render_diff_html",
    "render_diff_text",
    "run_metrics",
    "run_summary",
    "sim_fingerprint",
    "top_pages",
]
