#!/usr/bin/env python
"""Fleet observability plane — overhead of tracing + metrics + alerts.

The PR's constraint mirrors the paper's profiling discipline (§4:
observation must stay under 5% of application time): turning on the
*fleet* observability plane — per-job trace stitching, the /metrics
endpoint under a live scraper, and per-tick SLO alert evaluation — must
not slow the sweep service measurably.

Two arms over the same sweep job, each against its own scheduler and a
fresh two-worker subprocess fleet:

* **off** — the plane disabled (no trace book, no alert engine, no
  health endpoint): the PR 8 baseline;
* **on** — trace stitching + alert rules + /metrics served and scraped
  every 200 ms for the whole run, the worst realistic scrape load.

Both arms must assemble results bit-identical to an in-process serial
run (observability reads, never touches, simulation state), the on-arm
scrapes must parse as Prometheus text, the stitched trace must pass the
Chrome-trace validator, and the slowdown must stay under
``max_overhead`` (default 5%).  The arms run in ``ROUNDS`` paired rounds
of alternating order; the overhead is the median of the per-round
on/off ratios, and the gate tests the upper bound of their bootstrap
95% CI.  Measured numbers are appended as a ``fleet_obs`` block to
``BENCH_perf.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.bench.scaling import BenchProfile
from repro.bench.stats import bootstrap_ci
from repro.metrics.report import Table
from repro.obs.export import validate_chrome_trace
from repro.service.alerts import AlertEngine, default_rules
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.health import HealthServer, validate_prometheus_text
from repro.service.journal import Journal
from repro.service.protocol import JobSpec, SweepSpec
from repro.service.scheduler import (
    SchedulerConfig,
    SchedulerCore,
    SchedulerServer,
)
from repro.service.tracing import JobTraceBook
from repro.service.worker import run_cell

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TAU_POINTS = [(0, 3), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
              (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)]
INTERVALS = 30
WARMUP = 28
WORKERS = 2
SCRAPE_PERIOD = 0.2
#: Paired rounds; both arms run back-to-back in each, the first arm
#: alternating, so a round's on/off ratio cancels slow machine-load
#: drift.  The median ratio, unlike the minimum, is not biased toward the
#: luckiest round.
ROUNDS = 5


def sweep_spec(profile: BenchProfile) -> JobSpec:
    return JobSpec(
        workloads=("gups",),
        solutions=(),
        profile=profile,
        intervals=INTERVALS,
        sweep=SweepSpec(
            solution="mtm",
            apply="repro.bench.sweeps:apply_tau",
            warmup_intervals=WARMUP,
            variants=[
                (f"({m},{s})", {"tau_m": float(m), "tau_s": float(s)})
                for m, s in TAU_POINTS
            ],
        ),
    )


def _fingerprint(result) -> tuple:
    return (
        result.total_time,
        tuple((r.index, r.app_time, r.profiling_time, r.migration_time,
               r.total_accesses, r.fast_tier_accesses, r.region_count,
               r.promoted_pages, r.demoted_pages)
              for r in result.records),
        tuple(sorted(result.pcm.node_accesses.items())),
        tuple(sorted(result.pcm.node_writes.items())),
    )


def _serial_fingerprints(spec: JobSpec) -> dict:
    return {label: _fingerprint(run_cell(spec, "gups", label))
            for label in spec.solutions}


def _matrix_fingerprints(matrix) -> dict:
    return {label: _fingerprint(result)
            for label, result in matrix.results["gups"].items()}


def _spawn_workers(address: str) -> list[subprocess.Popen]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--address", address,
             "--max-idle-claims", "40"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(WORKERS)
    ]


def _run_arm(spec: JobSpec, state_dir: Path, obs_plane: bool) -> dict:
    journal = Journal(state_dir)
    traces = JobTraceBook(state_dir / "traces") if obs_plane else None
    core = SchedulerCore(
        cache=ResultCache(state_dir / "cache"),
        journal=journal,
        config=SchedulerConfig(lease_timeout=10.0, tick_interval=0.1,
                               idle_retry=0.05, inline_fallback=False,
                               drain_timeout=10.0),
        traces=traces,
    )
    alerts = (AlertEngine(default_rules(10.0), journal=journal)
              if obs_plane else None)
    server = SchedulerServer(core, address="127.0.0.1:0", alerts=alerts)
    server.start()
    health = None
    scraper = None
    scrapes = {"count": 0, "problems": []}
    stop_scrape = threading.Event()
    if obs_plane:
        health = HealthServer(core, alerts=alerts)
        health.start()

        def _scrape_loop() -> None:
            url = health.url + "/metrics"
            while not stop_scrape.is_set():
                try:
                    with urllib.request.urlopen(url, timeout=5) as resp:
                        text = resp.read().decode()
                except OSError:
                    continue
                scrapes["count"] += 1
                problems = validate_prometheus_text(text)
                if problems:
                    scrapes["problems"] = problems[:3]
                stop_scrape.wait(SCRAPE_PERIOD)

        scraper = threading.Thread(target=_scrape_loop, daemon=True)
        scraper.start()
    workers: list[subprocess.Popen] = []
    try:
        with ServiceClient(server.address) as client:
            workers = _spawn_workers(server.address)
            deadline = time.monotonic() + 30.0
            while len(client.ping().get("workers", [])) < WORKERS:
                if time.monotonic() > deadline:
                    raise RuntimeError("worker fleet failed to register")
                time.sleep(0.05)
            t0 = time.perf_counter()
            job_id = client.submit(spec)
            client.wait(job_id, timeout=600.0)
            elapsed = time.perf_counter() - t0
            matrix = client.fetch(job_id)
        cells = len(spec.workloads) * len(spec.solutions)
        out = {
            "seconds": elapsed,
            "cells": cells,
            "cells_per_sec": cells / elapsed,
            "fingerprints": _matrix_fingerprints(matrix),
            "scrapes": scrapes["count"],
        }
        if obs_plane:
            if scrapes["problems"]:
                raise AssertionError(
                    f"scraped /metrics failed validation: "
                    f"{scrapes['problems']}"
                )
            wait_until = time.monotonic() + 10.0
            while job_id not in traces.written \
                    and time.monotonic() < wait_until:
                time.sleep(0.05)
            if job_id not in traces.written:
                raise AssertionError("no stitched trace was written")
            with open(traces.written[job_id], encoding="utf-8") as fh:
                trace = json.load(fh)
            problems = validate_chrome_trace(trace)
            if problems:
                raise AssertionError(
                    f"stitched trace failed validation: {problems[:3]}"
                )
            pids = {ev.get("pid") for ev in trace["traceEvents"]}
            if len(pids) < 2:
                raise AssertionError(
                    f"stitched trace has no worker track (pids: {pids})"
                )
            out["trace_events"] = len(trace["traceEvents"])
            out["trace_tracks"] = len(pids)
        return out
    finally:
        stop_scrape.set()
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        server.shutdown(drain=False)
        if scraper is not None:
            scraper.join(timeout=5.0)
        if health is not None:
            health.stop()


def run_experiment(profile: BenchProfile, max_overhead: float = 0.05) -> str:
    import tempfile

    # Same scale discipline as the throughput bench: the subject is the
    # service plane, not engine bulk.
    spec = sweep_spec(BenchProfile(name="fleet-obs",
                                   scale=profile.scale / 2,
                                   seed=profile.seed))
    serial = _serial_fingerprints(spec)
    runs: dict[str, list[dict]] = {"off": [], "on": []}
    with tempfile.TemporaryDirectory(prefix="repro-fleet-obs-") as tmp:
        for round_idx in range(ROUNDS):
            order = ("off", "on") if round_idx % 2 == 0 else ("on", "off")
            for label in order:
                arm = _run_arm(spec, Path(tmp) / f"{label}{round_idx}",
                               obs_plane=label == "on")
                if arm["fingerprints"] != serial:
                    raise AssertionError(
                        f"obs-{label} fleet results differ from the serial "
                        "run; the observability plane must be read-only"
                    )
                runs[label].append(arm)
    ratios = [n["seconds"] / o["seconds"]
              for o, n in zip(runs["off"], runs["on"])]
    overhead = statistics.median(ratios) - 1.0
    lo, hi = (bound - 1.0 for bound in bootstrap_ci(ratios))
    off = {"seconds": statistics.median(r["seconds"] for r in runs["off"]),
           "cells": runs["off"][0]["cells"]}
    on = dict(runs["on"][-1],
              seconds=statistics.median(r["seconds"] for r in runs["on"]))
    for arm in (off, on):
        arm["cells_per_sec"] = arm["cells"] / arm["seconds"]

    block = {
        "workers": WORKERS,
        "cells": off["cells"],
        "intervals": INTERVALS,
        "warmup_intervals": WARMUP,
        "off": {"seconds": round(off["seconds"], 3),
                "cells_per_sec": round(off["cells_per_sec"], 3)},
        "on": {"seconds": round(on["seconds"], 3),
               "cells_per_sec": round(on["cells_per_sec"], 3),
               "metrics_scrapes": on["scrapes"],
               "trace_events": on.get("trace_events", 0),
               "trace_tracks": on.get("trace_tracks", 0)},
        "rounds": ROUNDS,
        "overhead": round(overhead, 4),
        "overhead_ci": [round(lo, 4), round(hi, 4)],
        "max_overhead": max_overhead,
        "fingerprint_identical": True,
    }
    payload = {}
    if OUTPUT.exists():
        try:
            payload = json.loads(OUTPUT.read_text())
        except (ValueError, OSError):
            payload = {}
    payload["fleet_obs"] = block
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    table = Table(
        "Fleet observability overhead: plane off vs on "
        f"({WORKERS} workers, {off['cells']} cells, "
        f"{SCRAPE_PERIOD * 1e3:.0f}ms scrapes)",
        ["arm", "time", "cells/s", "overhead", "scrapes", "trace"],
    )
    table.add_row("off", f"{off['seconds']:.2f}s",
                  f"{off['cells_per_sec']:.2f}", "-", "-", "-")
    table.add_row("on", f"{on['seconds']:.2f}s",
                  f"{on['cells_per_sec']:.2f}",
                  f"{overhead:+.1%} [95% CI {lo:+.1%}, {hi:+.1%}]",
                  on["scrapes"],
                  f"{on.get('trace_events', 0)} events / "
                  f"{on.get('trace_tracks', 0)} tracks")
    lines = [
        table.render(),
        f"appended 'fleet_obs' block to {OUTPUT.name}",
    ]
    if hi >= max_overhead:
        raise AssertionError(
            f"fleet observability overhead CI upper bound {hi:.1%} breaches "
            f"the {max_overhead:.0%} budget\n" + "\n".join(lines)
        )
    return "\n".join(lines)


def test_fleet_obs_overhead(benchmark, profile):
    out = benchmark.pedantic(run_experiment, args=(profile,),
                             rounds=1, iterations=1)
    print(out)


if __name__ == "__main__":
    from repro.bench.cli import bench_main

    bench_main(run_experiment)
