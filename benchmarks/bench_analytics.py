#!/usr/bin/env python
"""Analytics engine bench: fold + query + diff wall time, pinned in CI.

The offline analytics engine (:mod:`repro.obs.analytics`) promises that
post-hoc analysis is cheap relative to the simulation that produced the
stream: every query folds the stream once, in one linear pass, and
keeps nothing on disk.  This driver pins that promise as numbers:

* **fold** — :func:`~repro.obs.analytics.load_run` over a fresh
  ``--obs`` export: read and fold ``stream.ndjson``, then build the
  provenance/events/metrics/spans query tables;
* **query** — the four stock analyses (dwell histograms, top-K hot
  pages, lifecycle funnel, ping-pong detector) plus a filtered
  group-by, all against the loaded tables;
* **diff** — ``diff_runs`` over two solutions' directories (each folded
  afresh), including the bootstrap confidence intervals on dwell means.

Results are appended as an ``analytics`` block to ``BENCH_perf.json``
(preserving every other driver's block) so ``repro diff --bench`` and
CI can track the trajectory.  The analytics layer never touches
simulation state, so the block also records the loader's per-table row
counts as a sanity anchor: a silent fold regression (dropped tables)
shows up as a row-count cliff, not just a suspicious speedup.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.obs.analytics import (
    diff_runs,
    dwell_time,
    lifecycle_funnel,
    load_run,
    ping_pong,
    query_table,
    top_pages,
)
from repro.obs.context import ObsConfig, ObsContext

WORKLOAD = "gups"
SOLUTIONS = ("mtm", "first-touch")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Stock-query repetitions per timing sample: individual analyses are
#: sub-millisecond on quick-profile runs, so a single pass would pin
#: timer noise rather than analysis cost.
QUERY_ROUNDS = 5


def _export_run(solution: str, profile: BenchProfile, out_dir: Path) -> None:
    """One ``--obs`` run's export artifacts, same path as ``repro run``."""
    ctx = ObsContext(ObsConfig(), label=f"bench-analytics-{solution}")
    engine = make_engine(solution, WORKLOAD, scale=profile.scale,
                         seed=profile.seed, obs=ctx)
    engine.run(profile.intervals_for(WORKLOAD))
    ctx.export(out_dir)


def _stock_queries(run) -> dict:
    """The stock analyses ``repro query`` exposes, one pass each."""
    dwell = dwell_time(run.provenance, horizon=run.meta["intervals"])
    top = top_pages(run.provenance, k=10)
    funnel = lifecycle_funnel(run.provenance)
    pp = ping_pong(run.provenance)
    grouped = query_table(run, "events", where=["pages>0"],
                         group="name", agg="sum:pages", top=5)
    return {
        "dwell_closed": int(sum(t["closed_count"]
                                for t in dwell["tiers"].values())),
        "top_pages": len(top["pages"]),
        "funnel_occurrences": funnel["occurrences"],
        "pingpong_pages": pp["page_count"],
        "grouped_rows": len(grouped["rows"]),
    }


def run_experiment(profile: BenchProfile) -> str:
    """Time the stream fold, stock queries, and a two-run diff."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-analytics-"))
    try:
        dirs = {}
        for solution in SOLUTIONS:
            out = tmp / solution
            _export_run(solution, profile, out)
            dirs[solution] = out

        started = time.perf_counter()
        run = load_run(dirs[SOLUTIONS[0]])
        fold_seconds = time.perf_counter() - started
        rows = {t: run.rows(t) for t in sorted(run.tables)}

        started = time.perf_counter()
        for _ in range(QUERY_ROUNDS):
            answers = _stock_queries(run)
        query_seconds = (time.perf_counter() - started) / QUERY_ROUNDS

        started = time.perf_counter()
        diff = diff_runs(dirs[SOLUTIONS[0]], dirs[SOLUTIONS[1]])
        diff_seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    block = {
        "profile": profile.name,
        "workload": WORKLOAD,
        "intervals": profile.intervals_for(WORKLOAD),
        "fold_seconds": round(fold_seconds, 4),
        "query_seconds": round(query_seconds, 4),
        "diff_seconds": round(diff_seconds, 4),
        "rows": rows,
        "funnel_occurrences": answers["funnel_occurrences"],
        "diff_metrics": len(diff["metrics"]),
    }
    payload = {}
    if OUTPUT.exists():
        try:
            payload = json.loads(OUTPUT.read_text())
        except (ValueError, OSError):
            payload = {}
    payload["analytics"] = block
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    row_text = ", ".join(f"{t}={n}" for t, n in sorted(rows.items()))
    return (
        f"analytics bench ({profile.name} profile, {WORKLOAD}, "
        f"{block['intervals']} intervals)\n"
        f"  fold (stream -> query tables): {fold_seconds:6.3f}s\n"
        f"  table rows: {row_text}\n"
        f"  stock queries (dwell/top/funnel/ping-pong/group-by, "
        f"mean of {QUERY_ROUNDS}): {query_seconds:6.4f}s\n"
        f"  diff ({SOLUTIONS[0]} vs {SOLUTIONS[1]}, "
        f"{block['diff_metrics']} metrics, bootstrap CIs): "
        f"{diff_seconds:6.3f}s\n"
        f"  appended 'analytics' block to {OUTPUT.name}"
    )


def test_analytics_bench(benchmark, profile):
    out = benchmark.pedantic(run_experiment, args=(profile,), rounds=1,
                             iterations=1)
    print(out)


if __name__ == "__main__":
    from repro.bench.cli import bench_main

    bench_main(run_experiment, default_profile="quick")
