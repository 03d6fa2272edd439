"""``repro watch`` and ``repro fleet``: dashboards as views over one fold.

Both dashboards read the NDJSON records of :mod:`repro.obs.stream`
through the same :class:`~repro.obs.stream.StreamFold` that ``repro
report``/``query``/``trace`` use — fed live from a growing
``stream.ndjson`` or ``stream.ndjson.gz`` (``--run DIR``) or from a
listening socket that :class:`~repro.obs.sinks.SocketSink` publishers
push to (``watch --connect ADDR``; the watcher is the *server*, so one
dashboard can aggregate many runs).  Each refresh turns the fold into a
plain summary dict and renders that dict as a terminal frame or a static
HTML page:

* :func:`watch_summary` answers MTM's online questions: is the run
  making intervals, where do pages sit per tier, how much bandwidth is
  migration moving, and is profiling overhead holding under the paper's
  5% budget (§4's constraint) — plus the reliability counters (faults,
  retries, cache hit ratio, stream drops and stream problems).  It reads
  each track's ``interval.end`` events, counter totals and the latest
  gauges.
* :func:`fleet_summary` is the sweep service's view of a ``repro serve
  --obs-stream`` stream: the ``service.*`` events replayed in order.
  :func:`fleet_snapshot_summary` builds the same dict from a scheduler
  fleet snapshot (``fleet --connect``: the ``fleet`` protocol op /
  ``/fleet.json``).
"""

from __future__ import annotations

import sys
import threading
import time

from repro.obs.events import (
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_FAULT_INJECTED,
    EV_INTERVAL_END,
    EV_SERVICE_ALERT_FIRING,
    EV_SERVICE_ALERT_RESOLVED,
    EV_SERVICE_CELL_DEAD_LETTER,
    EV_SERVICE_CELL_DONE,
    EV_SERVICE_CELL_REQUEUED,
    EV_SERVICE_JOB_DONE,
    EV_SERVICE_JOB_FAILED,
    EV_SERVICE_JOB_SUBMITTED,
    EV_SERVICE_LEASE_EXPIRED,
    EV_SERVICE_LEASE_GRANTED,
    EV_SERVICE_WORKER_JOINED,
    EV_SERVICE_WORKER_LOST,
)
from repro.obs.stream import (
    STREAM_SCHEMA_VERSION,
    StreamFold,
    fold_records,
    iter_ndjson,
)
from repro.units import PAGE_SIZE

#: The paper's profiling-overhead constraint (§4): profiling may consume
#: at most this fraction of application time.
DEFAULT_BUDGET = 0.05


# -- the watch summary --------------------------------------------------------


def watch_summary(fold: StreamFold) -> dict:
    """Everything ``repro watch`` renders, read off a (live) fold."""
    ends = [[e for e in data.events if e.name == EV_INTERVAL_END]
            for data in fold.tracks.values()]

    def total(field: str):
        return sum(sum(e.fields.get(field, 0) for e in track)
                   for track in ends)

    rate = 0.0
    for track in ends:
        if len(track) >= 2 and track[-1].ts > track[0].ts:
            rate += (len(track) - 1) / (track[-1].ts - track[0].ts)
    registry = fold.registry
    counts = fold.event_counts()
    app, prof = total("app_time"), total("profiling_time")
    sim_time = sum(track[-1].sim_time for track in ends if track)
    promoted, demoted = total("promoted_pages"), total("demoted_pages")
    hits = registry.counter_total("cache.hits") or counts.get(EV_CACHE_HIT, 0)
    misses = (registry.counter_total("cache.misses")
              or counts.get(EV_CACHE_MISS, 0))
    used: dict[int, float] = {}
    cap: dict[int, float] = {}
    for (name, labels), value in registry.gauges.items():
        node = next((int(v) for k, v in labels if k == "node"), None)
        if node is None:
            continue
        if name == "tier.occupancy_pages":
            used[node] = value
        elif name == "tier.capacity_pages":
            cap[node] = value
    return {
        "tracks": len(fold.tracks),
        "tracks_done": len(set(fold.ended)),
        "records": fold.records,
        "problems": fold.problems(),
        "intervals": sum(len(track) for track in ends),
        "interval_rate": rate,
        "sim_time": sim_time,
        "app_time": app,
        "profile_time": prof,
        "migrate_time": total("migration_time"),
        "profile_overhead": (prof / app) if app > 0 else 0.0,
        "promoted_pages": promoted,
        "demoted_pages": demoted,
        "migration_bandwidth": ((promoted + demoted) * PAGE_SIZE / sim_time
                                if sim_time > 0 else 0.0),
        "degraded_intervals": sum(1 for track in ends for e in track
                                  if e.fields.get("degraded")),
        "faults": counts.get(EV_FAULT_INJECTED, 0),
        "retries_scheduled": registry.counter_total(
            "migrate.retries_scheduled"),
        "retries_succeeded": registry.counter_total(
            "migrate.retries_succeeded"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": (hits / (hits + misses)) if (hits + misses) else 0.0,
        "dropped_events": registry.counter_total("obs.dropped_events"),
        "relay_backpressure": registry.counter_total("obs.relay_backpressure"),
        # (node, used_pages, capacity_pages) per tier.
        "tiers": [(node, used[node], cap.get(node, 0.0))
                  for node in sorted(used)],
        # A `repro serve --obs-stream` daemon publishes its result-cache
        # (service.cache.*) and warm-fleet (service.warm.*) state as
        # gauges; plain simulation streams carry none, which hides the
        # service panel.
        "service": {name: value for (name, _), value in
                    registry.gauges.items() if name.startswith("service.")},
        "done": fold.done,
    }


# -- the fleet summary --------------------------------------------------------


_FLEET_COUNTERS = ("leases_granted", "leases_expired", "requeues",
                   "completions")


def _fleet_frame(worker_states: dict, **fields) -> dict:
    """One fleet summary dict: ``fields`` plus the per-worker rollups."""
    live = [w for w in worker_states.values() if not w["lost"]]
    frame = {"queue_depth": 0, "active_leases": 0, "dead_letters": 0,
             "lease_latency": {}, "cache": {}, "warm": {}, "alerts": [],
             "alert_history": 0, "throughput": [], "stopping": False,
             "done": False, **fields}
    frame.update(
        worker_states=worker_states,
        workers=len(live),
        workers_lost=len(worker_states) - len(live),
        active_leases=frame["active_leases"] or sum(
            len(w["in_flight"]) for w in live),
    )
    return frame


def _new_worker() -> dict:
    return {"cells_done": 0, "staleness": 0.0, "in_flight": [],
            "warm_keys": 0, "lost": False}


def fleet_summary(fold: StreamFold) -> dict:
    """``repro fleet``'s frame from a ``repro serve --obs-stream`` fold.

    Replays the ``service.*`` events in order (the scheduler's track is
    the only one that carries them) and reads the latest
    ``service.cache.*``/``service.warm.*`` gauges.  ``records`` counts
    the service events plus the service gauge series; it is 0 for a
    stream the sweep service did not write.
    """
    workers: dict[str, dict] = {}
    counters = dict.fromkeys(_FLEET_COUNTERS, 0)
    jobs = {"running": 0, "done": 0, "failed": 0}
    alerts: dict[str, dict] = {}
    history = dead_letters = updates = 0
    for data in fold.tracks.values():
        for event in data.events:
            name = event.name
            if not name.startswith("service."):
                continue
            updates += 1
            f = event.fields
            wid = f.get("worker")
            cell = f"{f.get('workload')}/{f.get('solution')}"
            if name == EV_SERVICE_WORKER_JOINED:
                workers.setdefault(wid, _new_worker())["lost"] = False
            elif name == EV_SERVICE_WORKER_LOST:
                if wid in workers:
                    workers[wid].update(lost=True, in_flight=[])
            elif name == EV_SERVICE_LEASE_GRANTED:
                counters["leases_granted"] += 1
                flight = workers.setdefault(wid, _new_worker())["in_flight"]
                if cell not in flight:
                    flight.append(cell)
            elif name == EV_SERVICE_LEASE_EXPIRED:
                counters["leases_expired"] += 1
                if wid in workers and cell in workers[wid]["in_flight"]:
                    workers[wid]["in_flight"].remove(cell)
            elif name == EV_SERVICE_CELL_DONE:
                counters["completions"] += 1
                worker = workers.setdefault(wid, _new_worker())
                worker["cells_done"] += 1
                if cell in worker["in_flight"]:
                    worker["in_flight"].remove(cell)
            elif name == EV_SERVICE_CELL_REQUEUED:
                counters["requeues"] += 1
            elif name == EV_SERVICE_CELL_DEAD_LETTER:
                dead_letters += 1
            elif name == EV_SERVICE_JOB_SUBMITTED:
                jobs["running"] += 1
            elif name in (EV_SERVICE_JOB_DONE, EV_SERVICE_JOB_FAILED):
                jobs["running"] = max(0, jobs["running"] - 1)
                jobs["done" if name == EV_SERVICE_JOB_DONE else "failed"] += 1
            elif name == EV_SERVICE_ALERT_FIRING:
                rule = f.get("rule", "?")
                alerts[rule] = {
                    "rule": rule, "metric": f.get("metric", ""),
                    "value": f.get("value", 0.0),
                    "threshold": f.get("threshold", 0.0),
                    "description": f.get("description", ""),
                }
                history += 1
            elif name == EV_SERVICE_ALERT_RESOLVED:
                alerts.pop(f.get("rule", "?"), None)
                history += 1
    gauges = {"cache": {}, "warm": {}}
    for (name, _), value in fold.registry.gauges.items():
        prefix, group, key = (name.split(".", 2) + ["", ""])[:3]
        if prefix == "service" and group in gauges:
            gauges[group][key] = value
    return _fleet_frame(
        workers, dead_letters=dead_letters, counters=counters, jobs=jobs,
        alerts=sorted(alerts.values(), key=lambda a: a["rule"]),
        alert_history=history, done=fold.done,
        records=updates + len(gauges["cache"]) + len(gauges["warm"]),
        **gauges,
    )


def fleet_snapshot_summary(snapshot: dict) -> dict:
    """The :func:`fleet_summary` dict of one scheduler ``fleet`` snapshot."""
    workers = {
        wid: {
            "cells_done": entry.get("cells_done", 0),
            "staleness": entry.get("staleness", 0.0),
            "in_flight": [f"{lease.get('workload')}/{lease.get('solution')}"
                          for lease in entry.get("in_flight", [])],
            "warm_keys": entry.get("warm_keys", 0),
            "lost": False,
        }
        for wid, entry in snapshot.get("workers", {}).items()
    }
    alerts = {entry.get("rule", "?"): dict(entry)
              for entry in snapshot.get("alerts", []) or []}
    return _fleet_frame(
        workers,
        queue_depth=int(snapshot.get("queue_depth", 0)),
        active_leases=int(snapshot.get("active_leases", 0)),
        dead_letters=int(snapshot.get("dead_letters", 0)),
        counters={key: int(snapshot.get("counters", {}).get(key, 0))
                  for key in _FLEET_COUNTERS},
        lease_latency=dict(snapshot.get("lease_latency", {})),
        jobs={"running": 0, "done": 0, "failed": 0,
              **snapshot.get("jobs", {})},
        cache=dict(snapshot.get("cache", {})),
        warm=dict(snapshot.get("warm", {})),
        alerts=sorted(alerts.values(), key=lambda a: a.get("rule", "")),
        stopping=bool(snapshot.get("stopping", False)),
        records=1,
    )


class Throughput:
    """Cells/s between successive completion counts: the fleet sparkline."""

    def __init__(self, keep: int = 120) -> None:
        self.keep = keep
        self.rates: list[float] = []
        self._last: tuple[float, float] | None = None

    def sample(self, completions: float, now: float) -> list[float]:
        """Add one reading; returns the rate series so far."""
        if self._last is not None and now > self._last[1]:
            rate = (completions - self._last[0]) / (now - self._last[1])
            self.rates.append(max(0.0, rate))
            del self.rates[:-self.keep]
        self._last = (float(completions), now)
        return list(self.rates)


# -- terminal rendering -------------------------------------------------------


def _bar(frac: float, width: int = 24, marker: float | None = None) -> str:
    frac = min(max(frac, 0.0), 1.0)
    filled = round(frac * width)
    cells = ["#"] * filled + ["."] * (width - filled)
    if marker is not None and 0.0 <= marker <= 1.0:
        pos = min(int(marker * width), width - 1)
        cells[pos] = "|"
    return "".join(cells)


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TiB"


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _spark(values, width: int = 24) -> str:
    """Unicode sparkline of the last ``width`` samples."""
    tail = [max(0.0, float(v)) for v in list(values)[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARK_CHARS[0] * len(tail)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(steps, int(v / top * steps + 0.5))] for v in tail
    )


def render_text(s: dict, budget: float = DEFAULT_BUDGET) -> str:
    """One ``repro watch`` frame (a :func:`watch_summary`) as text."""
    lines = []
    status = "done" if s["done"] else "running"
    lines.append(
        f"repro watch · {status} · tracks {s['tracks']} "
        f"({s['tracks_done']} done) · records {s['records']}"
    )
    lines.append(
        f"intervals {s['intervals']} @ {s['interval_rate']:.1f}/s host · "
        f"sim time {s['sim_time']:.3f} s"
    )
    if s["tiers"]:
        lines.append("tier occupancy:")
        for node, used, cap in s["tiers"]:
            frac = used / cap if cap else 0.0
            lines.append(
                f"  node {node}  [{_bar(frac)}] "
                f"{int(used)}/{int(cap)} pages ({frac * 100:.1f}%)"
            )
    total_time = s["app_time"] + s["profile_time"] + s["migrate_time"]
    if total_time > 0:
        lines.append(
            f"sim time split: app {s['app_time'] / total_time * 100:.1f}% · "
            f"profile {s['profile_time'] / total_time * 100:.1f}% · "
            f"migrate {s['migrate_time'] / total_time * 100:.1f}%"
        )
    overhead = s["profile_overhead"]
    verdict = "OK" if overhead <= budget else "OVER BUDGET"
    lines.append(
        f"profiling overhead {overhead * 100:.2f}% of app time "
        f"[{_bar(overhead / (2 * budget) if budget else 0.0, marker=0.5)}] "
        f"budget {budget * 100:.0f}% {verdict}"
    )
    lines.append(
        f"migration: {s['promoted_pages']} pages promoted, "
        f"{s['demoted_pages']} demoted · "
        f"{_fmt_bytes(s['migration_bandwidth'])}/s sim bandwidth"
    )
    lines.append(
        f"faults {s['faults']} · degraded intervals {s['degraded_intervals']} · "
        f"retries {s['retries_scheduled']:.0f} scheduled / "
        f"{s['retries_succeeded']:.0f} succeeded"
    )
    lines.append(
        f"trace cache: {s['cache_hit_ratio'] * 100:.1f}% hit "
        f"({s['cache_hits']:.0f} hits / {s['cache_misses']:.0f} misses)"
    )
    svc = s["service"]
    if svc:
        lines.append(
            f"service result cache: "
            f"{svc.get('service.cache.hits', 0):.0f} hits / "
            f"{svc.get('service.cache.misses', 0):.0f} misses · "
            f"{svc.get('service.cache.stores', 0):.0f} stores · "
            f"{svc.get('service.cache.corrupt', 0):.0f} corrupt"
        )
        lines.append(
            f"warm fleet: {svc.get('service.warm.hits', 0):.0f} warm hits / "
            f"{svc.get('service.warm.misses', 0):.0f} misses · "
            f"{_fmt_bytes(svc.get('service.warm.cached_bytes', 0))} cached · "
            f"affinity {svc.get('service.warm.affinity_hits', 0):.0f} hits / "
            f"{svc.get('service.warm.affinity_skips', 0):.0f} redirects"
        )
    lines.append(
        f"stream drops: events {s['dropped_events']:.0f} · "
        f"relay backpressure {s['relay_backpressure']:.0f}"
    )
    if s["problems"]:
        lines.append(s["problems"])
    return "\n".join(lines)


def _worker_state(worker: dict) -> str:
    if worker["lost"]:
        return "lost"
    return "busy" if worker["in_flight"] else "idle"


def render_fleet_text(s: dict) -> str:
    """One ``repro fleet`` frame (a fleet summary) as text."""
    c = s["counters"]
    lines = []
    status = "draining" if s["stopping"] else "serving"
    lines.append(
        f"repro fleet · {status} · workers {s['workers']} "
        f"(+{s['workers_lost']} lost) · queue {s['queue_depth']} · "
        f"in flight {s['active_leases']}"
    )
    lines.append(
        f"leases: {c['leases_granted']} granted · {c['completions']} done · "
        f"{c['leases_expired']} expired · {c['requeues']} requeued · "
        f"{s['dead_letters']} dead-lettered"
    )
    latency = s["lease_latency"]
    if latency.get("count"):
        lines.append(
            f"lease latency: p50 {latency.get('p50', 0.0) * 1e3:.0f} ms · "
            f"p95 {latency.get('p95', 0.0) * 1e3:.0f} ms · "
            f"p99 {latency.get('p99', 0.0) * 1e3:.0f} ms "
            f"({latency['count']} samples)"
        )
    jobs = s["jobs"]
    lines.append(
        f"jobs: {jobs.get('running', 0)} running · "
        f"{jobs.get('done', 0)} done · {jobs.get('failed', 0)} failed"
    )
    spark = _spark(s["throughput"])
    if spark:
        lines.append(f"throughput {spark} {s['throughput'][-1]:.1f} cells/s")
    cache = s["cache"]
    if cache:
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        ratio = hits / (hits + misses) if (hits + misses) else 0.0
        lines.append(
            f"result cache: {ratio * 100:.0f}% hit ({hits:.0f}/{misses:.0f}) "
            f"· {cache.get('corrupt', 0):.0f} corrupt"
        )
    warm = s["warm"]
    if warm:
        lines.append(
            f"warm snapshots: {warm.get('hits', 0):.0f} hits / "
            f"{warm.get('misses', 0):.0f} misses · "
            f"{_fmt_bytes(warm.get('cached_bytes', 0))} cached"
        )
    states = s["worker_states"]
    if states:
        lines.append("workers:")
        for wid in sorted(states):
            worker = states[wid]
            flight = ", ".join(worker["in_flight"][:3]) or "-"
            lines.append(
                f"  {wid:<28} {_worker_state(worker):<5} "
                f"cells {worker['cells_done']:<5} "
                f"stale {worker.get('staleness', 0.0):5.1f}s  "
                f"warm {worker.get('warm_keys', 0):<3} running {flight}"
            )
    if s["alerts"]:
        lines.append("ALERTS:")
        for alert in s["alerts"]:
            lines.append(
                f"  !! {alert['rule']}: {alert.get('description', '')} "
                f"(value {alert.get('value', 0):g}, "
                f"threshold {alert.get('threshold', 0):g})"
            )
    else:
        lines.append(f"alerts: none firing ({s['alert_history']} transitions)")
    return "\n".join(lines)


# -- HTML rendering -----------------------------------------------------------

#: The dataviz tokens of every HTML page: both dashboards and the
#: analytics diff report (``repro diff --html``).
HTML_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root .sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; margin-top: 2px; }
.tile .detail { color: var(--muted); font-size: 12px; margin-top: 2px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; margin-bottom: 12px;
}
.panel h2 { font-size: 13px; color: var(--text-secondary); margin: 0 0 8px; font-weight: 600; }
.meter-row { display: flex; align-items: center; gap: 10px; margin: 6px 0; font-size: 13px; }
.meter-row .name { width: 90px; color: var(--text-secondary); }
.meter { position: relative; flex: 1; height: 10px; background: var(--grid); border-radius: 4px; }
.meter .fill { position: absolute; inset: 0 auto 0 0; border-radius: 4px; background: var(--series-1); }
.meter .budget { position: absolute; top: -3px; bottom: -3px; width: 2px; background: var(--text-secondary); }
.meter-row .num { width: 200px; text-align: right; font-variant-numeric: tabular-nums; }
.status-ok { color: var(--status-good); font-weight: 600; }
.status-over { color: var(--status-critical); font-weight: 600; }
"""


def escape_html(text) -> str:
    """Escape text for embedding in the HTML pages."""
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _tiles(tiles) -> str:
    """A row of ``(label, value, detail)`` tiles."""
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="label">{escape_html(label)}</div>'
        f'<div class="value">{escape_html(value)}</div>'
        f'<div class="detail">{escape_html(detail)}</div></div>'
        for label, value, detail in tiles
    ) + "</div>"


def _page(title: str, sub: str, body: str) -> str:
    """The self-contained page shell (no external assets)."""
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{escape_html(title)}</title>
<style>{HTML_STYLE}</style></head>
<body class="viz-root">
<h1>{escape_html(title)}</h1>
<p class="sub">{escape_html(sub)}</p>
{body}
</body></html>
"""


def render_html(s: dict, budget: float = DEFAULT_BUDGET,
                title: str = "repro watch") -> str:
    """Static ``repro watch`` page of a :func:`watch_summary`."""
    overhead = s["profile_overhead"]
    tiles = _tiles([
        ("Intervals", f"{s['intervals']}",
         f"{s['interval_rate']:.1f}/s host rate"),
        ("Sim time", f"{s['sim_time']:.3f} s",
         f"{s['tracks']} tracks, {s['tracks_done']} done"),
        ("Migration", f"{_fmt_bytes(s['migration_bandwidth'])}/s",
         f"{s['promoted_pages']} promoted / {s['demoted_pages']} demoted pages"),
        ("Cache hit", f"{s['cache_hit_ratio'] * 100:.1f}%",
         f"{s['cache_hits']:.0f} hits / {s['cache_misses']:.0f} misses"),
        ("Faults", f"{s['faults']}",
         f"{s['degraded_intervals']} degraded intervals, "
         f"{s['retries_succeeded']:.0f}/{s['retries_scheduled']:.0f} retries ok"),
        ("Stream drops", f"{s['dropped_events'] + s['relay_backpressure']:.0f}",
         f"events {s['dropped_events']:.0f} · relay "
         f"{s['relay_backpressure']:.0f}"),
    ])
    tier_rows = ""
    for node, used, cap in s["tiers"]:
        frac = used / cap if cap else 0.0
        tier_rows += (
            f'<div class="meter-row"><span class="name">node {node}</span>'
            f'<span class="meter"><span class="fill" '
            f'style="width:{min(frac, 1.0) * 100:.1f}%"></span></span>'
            f'<span class="num">{int(used)}/{int(cap)} pages '
            f"({frac * 100:.1f}%)</span></div>"
        )
    body = [tiles, '<div class="panel"><h2>Tier occupancy</h2>'
            + (tier_rows or '<p class="sub">no occupancy gauges yet</p>')
            + "</div>"]
    svc = s["service"]
    if svc:
        body.append('<div class="panel"><h2>Sweep service</h2>' + _tiles([
            ("Result cache",
             f"{svc.get('service.cache.hits', 0):.0f} hits",
             f"{svc.get('service.cache.misses', 0):.0f} misses · "
             f"{svc.get('service.cache.stores', 0):.0f} stores · "
             f"{svc.get('service.cache.corrupt', 0):.0f} corrupt"),
            ("Warm snapshots",
             f"{svc.get('service.warm.hits', 0):.0f} hits",
             f"{svc.get('service.warm.misses', 0):.0f} misses · "
             f"{_fmt_bytes(svc.get('service.warm.cached_bytes', 0))} cached"),
            ("Affinity",
             f"{svc.get('service.warm.affinity_hits', 0):.0f} warm grants",
             f"{svc.get('service.warm.affinity_skips', 0):.0f} redirects "
             "past the FIFO head"),
        ]) + "</div>")
    over = overhead > budget
    overhead_frac = min(overhead / (2 * budget), 1.0) if budget else 0.0
    body.append(
        '<div class="panel"><h2>Profiling overhead vs budget</h2>\n'
        '<div class="meter-row"><span class="name">profiling</span>\n'
        '<span class="meter"><span class="fill" '
        f'style="width:{overhead_frac * 100:.1f}%"></span>\n'
        '<span class="budget" style="left:50%"></span></span>\n'
        f'<span class="num">{overhead * 100:.2f}% of app time ·\n'
        f'<span class="{"status-over" if over else "status-ok"}">'
        f'{"✗ over budget" if over else "✓ within budget"}</span> '
        f"({budget * 100:.0f}%)</span></div>\n</div>")
    if s["problems"]:
        body.append(f'<p class="sub">{escape_html(s["problems"])}</p>')
    status = "done" if s["done"] else "running"
    return _page(title, f"{status} · {s['records']} stream records · "
                        f"schema v{STREAM_SCHEMA_VERSION}", "\n".join(body))


def render_fleet_html(s: dict, title: str = "repro fleet") -> str:
    """Static ``repro fleet`` page of a fleet summary."""
    c = s["counters"]
    latency = s["lease_latency"]
    tiles = _tiles([
        ("Workers", f"{s['workers']}",
         f"{s['workers_lost']} lost · {s['active_leases']} cells in flight"),
        ("Queue", f"{s['queue_depth']}",
         f"{c['leases_granted']} granted · {c['requeues']} requeued"),
        ("Completions", f"{c['completions']}",
         f"{c['leases_expired']} expired · {s['dead_letters']} dead letters"),
        ("Lease p95", f"{latency.get('p95', 0.0) * 1e3:.0f} ms",
         f"p50 {latency.get('p50', 0.0) * 1e3:.0f} · "
         f"p99 {latency.get('p99', 0.0) * 1e3:.0f} ms "
         f"({latency.get('count', 0)} samples)"),
        ("Jobs", f"{s['jobs'].get('running', 0)} running",
         f"{s['jobs'].get('done', 0)} done · "
         f"{s['jobs'].get('failed', 0)} failed"),
        ("Alerts", f"{len(s['alerts'])}",
         f"{s['alert_history']} transitions"),
    ])
    worker_rows = ""
    states = s["worker_states"]
    for wid in sorted(states):
        worker = states[wid]
        flight = ", ".join(worker["in_flight"][:3]) or "—"
        worker_rows += (
            f'<div class="meter-row"><span class="name">{escape_html(wid)}'
            f'</span><span class="num">{_worker_state(worker)} · '
            f"{worker['cells_done']} cells · "
            f"stale {worker.get('staleness', 0.0):.1f}s · "
            f"{escape_html(flight)}</span></div>"
        )
    alert_rows = "".join(
        f'<div class="meter-row"><span class="name status-over">'
        f"{escape_html(alert['rule'])}</span>"
        f'<span class="num">{escape_html(alert.get("description", ""))} '
        f"(value {alert.get('value', 0):g})</span></div>"
        for alert in s["alerts"]
    ) or '<p class="sub">none firing</p>'
    spark = _spark(s["throughput"], width=48)
    status = "draining" if s["stopping"] else "serving"
    return _page(title, f"{status} · {s['records']} updates", f"""{tiles}
<div class="panel"><h2>Throughput (cells/s)</h2>
<p style="font-size:20px;margin:0">{escape_html(spark) or '—'}</p></div>
<div class="panel"><h2>Workers</h2>{worker_rows or '<p class="sub">none registered</p>'}</div>
<div class="panel"><h2>Alerts</h2>{alert_rows}</div>""")


# -- sources ------------------------------------------------------------------


class SocketCollector:
    """Listening endpoint for SocketSink publishers (``watch --connect``).

    The watcher binds/listens; each connected simulation pushes its
    NDJSON lines, decoded and fed to ``fold`` under ``lock``.
    """

    def __init__(self, address: str, fold: StreamFold,
                 lock: threading.Lock) -> None:
        import socket as _socket

        from repro.obs.sinks import parse_address

        self.fold = fold
        self.lock = lock
        family, target = parse_address(address)
        if family == "unix":
            import os as _os

            try:
                _os.unlink(target)
            except OSError:
                pass
            self.sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        else:
            self.sock = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
            self.sock.setsockopt(
                _socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1
            )
        self.sock.bind(target)
        self.sock.listen(8)
        self.sock.settimeout(0.2)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        """Begin accepting publisher connections on a background thread."""
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                continue
            thread = threading.Thread(
                target=self._reader, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _reader(self, conn) -> None:
        import json

        conn.settimeout(0.2)
        buffer = b""
        while not self._stop.is_set():
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                continue
            except OSError:
                break
            if not chunk:
                break
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                with self.lock:
                    self.fold.feed(record)
        try:
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        self._stop.set()
        try:
            self.sock.close()
        except OSError:
            pass


def _stream_source(run, connect, *, once, wait, refresh, duration, ready):
    """A fold fed from ``run`` (a stream file or directory) or from
    ``connect`` (a :class:`SocketCollector` address).

    Returns ``(fold, lock, close)``.  With ``once``, a file is read from
    the start, again every 0.2 s while ``ready(fold)`` is falsy, for up
    to ``wait`` seconds; a socket collects for ``wait`` (default
    ``refresh``) seconds.  Otherwise a daemon thread keeps feeding the
    fold under ``lock`` until ``close()``.
    """
    lock = threading.Lock()
    if run is not None and once:
        deadline = time.monotonic() + (wait or 0.0)
        while True:
            fold = fold_records(iter_ndjson(run))
            if ready(fold) or time.monotonic() >= deadline:
                return fold, lock, lambda: None
            time.sleep(0.2)
    fold = StreamFold()
    if run is None:
        collector = SocketCollector(connect, fold, lock)
        collector.start()
        if once:
            time.sleep(wait if wait is not None else refresh)
        return fold, lock, collector.close
    stop = threading.Event()

    def pump() -> None:
        for record in iter_ndjson(run, follow=True, timeout=duration):
            with lock:
                fold.feed(record)
            if stop.is_set():
                return

    threading.Thread(target=pump, daemon=True).start()
    return fold, lock, stop.set


def _drive(summarize, render, page, *, once, refresh, duration, html, out,
           finished) -> int:
    """The refresh loop behind ``repro watch`` and ``repro fleet``.

    Each frame prints ``render(summary)`` (clearing a terminal first)
    and writes ``page(summary)`` to ``html``.  ``once`` shows one frame;
    otherwise frames repeat every ``refresh`` seconds until
    ``finished(summary)``, ``duration`` or Ctrl-C.  Returns 0 when the
    last frame saw records, 1 when nothing was ever observed.
    """
    clear = not once and hasattr(sys.stdout, "isatty") and sys.stdout.isatty()
    started = time.monotonic()
    summary = {"records": 0}
    try:
        while True:
            if not once:
                time.sleep(refresh)
            summary = summarize()
            if html:
                with open(html, "w", encoding="utf-8") as fh:
                    fh.write(page(summary))
            frame = render(summary)
            out("\x1b[2J\x1b[H" + frame if clear else frame)
            if once or finished(summary) or (
                    duration is not None
                    and time.monotonic() - started >= duration):
                break
    except KeyboardInterrupt:
        pass
    return 0 if summary["records"] else 1


# -- the dashboards -----------------------------------------------------------


def run_watch(
    run: str | None = None,
    connect: str | None = None,
    refresh: float = 1.0,
    once: bool = False,
    duration: float | None = None,
    wait: float | None = None,
    html: str | None = None,
    budget: float = DEFAULT_BUDGET,
    out=None,
) -> int:
    """Drive the ``repro watch`` dashboard until the stream ends.

    Exactly one of ``run``/``connect``.  ``once`` drains what is
    available and prints a single frame (CI's tail-while-running mode);
    ``wait`` bounds how long ``--once`` waits for the stream to appear.
    """
    fold, lock, close = _stream_source(
        run, connect, once=once, wait=wait, refresh=refresh,
        duration=duration, ready=lambda f: f.records)

    def summarize() -> dict:
        with lock:
            return watch_summary(fold)

    try:
        return _drive(summarize, lambda s: render_text(s, budget=budget),
                      lambda s: render_html(s, budget=budget), once=once,
                      refresh=refresh, duration=duration, html=html,
                      out=out or print, finished=lambda s: s["done"])
    finally:
        close()


def run_fleet(
    connect: str | None = None,
    run: str | None = None,
    refresh: float = 1.0,
    once: bool = False,
    duration: float | None = None,
    wait: float | None = None,
    html: str | None = None,
    secret: bytes | None = None,
    out=None,
) -> int:
    """Drive the ``repro fleet`` dashboard.

    Exactly one of ``connect`` (poll the scheduler's ``fleet`` op over
    the wire protocol) or ``run`` (tail a ``repro serve --obs-stream``
    NDJSON file).  Stops once the fleet drains or the stream ends;
    returns 1 when nothing was ever observed.
    """
    throughput = Throughput()
    if connect is not None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        client = ServiceClient(connect, connect_timeout=wait or 10.0,
                               secret=secret)
        close = client.close
        last = {"snapshot": {}, "polls": 0}

        def current() -> dict:
            try:
                last["snapshot"] = client.fleet()
                last["polls"] += 1
            except ServiceError:
                pass  # the daemon is away: keep the previous snapshot
            return dict(fleet_snapshot_summary(last["snapshot"]),
                        records=last["polls"])
    else:
        fold, lock, close = _stream_source(
            run, None, once=once, wait=wait, refresh=refresh,
            duration=duration, ready=lambda f: fleet_summary(f)["records"])

        def current() -> dict:
            with lock:
                return fleet_summary(fold)

    def summarize() -> dict:
        """The current fleet summary, with the throughput series."""
        summary = current()
        summary["throughput"] = throughput.sample(
            summary["counters"]["completions"], time.monotonic())
        return summary

    try:
        return _drive(summarize, render_fleet_text, render_fleet_html,
                      once=once, refresh=refresh, duration=duration,
                      html=html, out=out or print,
                      finished=lambda s: s["done"] or (
                          s["stopping"] and not s["worker_states"]))
    finally:
        close()


__all__ = [
    "DEFAULT_BUDGET",
    "HTML_STYLE",
    "SocketCollector",
    "Throughput",
    "escape_html",
    "fleet_snapshot_summary",
    "fleet_summary",
    "render_fleet_html",
    "render_fleet_text",
    "render_html",
    "render_text",
    "run_fleet",
    "run_watch",
    "watch_summary",
]
