"""End-to-end benchmark of the MTM simulator: host time, memory, fidelity.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-cold --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # the four workloads, one process
    python3 perfbench/run.py --workload tau-fork --trace 1   # per-layer breakdown

A run repeats *passes* over the workload (see ``workloads.py``) in this
one process, with no worker pool, until ``--seconds`` is used up, and
reports medians over the passes.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes, then makes
one ``tracemalloc`` pass, and prints the per-layer metrics, with the
tracing overhead measured against the untraced passes.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (cells) and ``metrics``.  Every run also writes a result file
with its provenance (and, traced, a Chrome/Perfetto trace) under
``.perfbench_out/``; ``perfbench/compare.py`` compares two sets of them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fig. 4's paper-reported average gain of MTM over first-touch
#: (EXPERIMENTS.md, Fig. 4: "first-touch by up to 24% (avg 17%)").
PAPER_FIG4_AVG = 1.17

E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "intervals_per_s": "1/s",
    "step_ms_p50": "ms", "step_ms_p90": "ms", "peak_rss_mb": "MB",
    "sim_speedup_mtm": "ratio", "ok_ratio": "share",
}


def _pin_allocator() -> None:
    """Fix glibc's mmap/trim thresholds at the values its dynamic tuning
    settles on in a long-running process (32/64 MiB).

    Left dynamic, the thresholds depend on the process's allocation
    history, so whether a large ``numpy.zeros`` comes lazily from mmap or
    from touched heap pages -- and with it the peak RSS -- changes from
    one pass to the next.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass


def _import_simulator():
    """Put the checkout's ``src`` and root on the path and import the API."""
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Kernel artifacts (resolved for provenance) stay inside the checkout.
    os.environ.setdefault("REPRO_KERNEL_CACHE",
                          os.path.join(ROOT, ".perfbench_out", "kernels"))
    import repro  # noqa: F401 - fail here first when src/ is missing
    import checks
    import layers
    import workloads
    return checks, workloads, layers


def _median(values):
    return statistics.median(values) if values else 0.0


# -- correctness -------------------------------------------------------------


def check_passes(name: str, passes, checks, workloads, expected) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every cell of every pass."""
    attempted = failed = 0
    messages: list[str] = []
    reference: dict[str, dict] = {}
    for i, p in enumerate(passes):
        errs: dict[str, list[str]] = {label: [f"{label}: raised {text}"]
                                      for label, text in p.errors.items()}
        for msg in checks.stream_errors(p.cells, p.apps):
            errs.setdefault(msg.split(":")[0], []).append(msg)
        if p.counts.get("obs_lines_on_disk", 0) != p.counts.get("obs_records", 0):
            label = workloads.FAULT_CELL
            errs.setdefault(label, []).append(
                f"{label}: NDJSON stream on disk does not match the lines written")
        for label, result in p.cells.items():
            got = checks.digests(result)
            cell_errs = errs.setdefault(label, [])
            cell_errs += checks.invariant_errors(
                label, result, p.intervals[label], result.fault_log is not None)
            if expected is not None:
                cell_errs += checks.expected_errors(name, label, got, expected)
            first = reference.setdefault(label, got)
            cell_errs += [f"{label}: field {k!r} changed between passes"
                          for k in sorted(got) if got[k] != first[k]]
        for label, cell_errs in errs.items():
            attempted += 1
            if cell_errs:
                failed += 1
                messages += [f"pass {i}: {m}" for m in cell_errs]
    return attempted, failed, messages


# -- metrics -------------------------------------------------------------------


def _median_pass(passes) -> tuple[list[float], list[float]]:
    """Each step's (and each snapshot/fork's) median time across passes.

    Passes simulate identical cells in identical order, so position ``i``
    is the same interval of the same cell in every pass; the median at
    each position discards the host's bursts of interference.
    """
    steps = [statistics.median(ts) for ts in zip(*(p.step_s for p in passes))]
    others = [statistics.median(ts) for ts in zip(*(p.other_s for p in passes))]
    return steps, others


def end_to_end(passes, attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metric values, plus notes (sample counts) for the report."""
    steps, others = _median_pass(passes)
    wall = sum(steps) + sum(others)
    p90 = statistics.quantiles(steps, n=10, method="inclusive")[8]
    labels = {label for p in passes for label in p.setup_s}
    values = {
        "wall_s": wall,
        # Sum over cells of each cell's median make_engine time.
        "setup_s": sum(_median([p.setup_s[label] for p in passes if label in p.setup_s])
                       for label in labels),
        "intervals_per_s": len(steps) / wall,
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * p90,
        "peak_rss_mb": _median([p.peak_rss_mb for p in passes]),
        "sim_speedup_mtm": passes[0].speedup,
        "ok_ratio": 1.0 - failed / attempted,
    }
    notes = {
        "passes": len(passes),
        "step_samples": len(steps),
        "step_samples_beyond_p90": sum(1 for s in steps if s > p90),
        "fail_ratio": failed / attempted,
        "paper_fig4_avg_speedup": PAPER_FIG4_AVG,
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "pass_setup_s": [round(sum(p.setup_s.values()), 4) for p in passes],
        "pass_peak_rss_mb": [round(p.peak_rss_mb, 1) for p in passes],
    }
    return values, notes


def per_layer(p, tracer, memory_tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, of one traced pass."""
    selfs, calls, counts = tracer.layer_self_s(), tracer.calls, tracer.counts
    v: dict[str, tuple[float, str]] = {}
    profile_layers = [k for k in selfs if k.startswith("profile.")]
    for layer in ("workloads", "tracecache", "mm", "perf.pcm", "perf.pebs",
                  "costmodel", "hw.dram_cache", "policy", "migrate", "obs"):
        v[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
        v[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    wl_calls = max(calls.get("workloads", 0), 1)
    for name in ("touched_pages", "footprint_pages"):  # per synthesized interval
        v[f"workloads.{name}"] = (counts[f"workloads.{name}"] / wl_calls, "pages")
    v["tracecache.hits"] = (counts["tracecache.hits"], "count")
    v["tracecache.misses"] = (counts["tracecache.misses"], "count")
    v["tracecache.bytes"] = (counts["tracecache.bytes"], "bytes")
    v["profile.self_s"] = (sum(selfs[k] for k in profile_layers), "s")
    v["profile.calls"] = (sum(calls[k] for k in profile_layers), "count")
    for kind in ("mtm", "thermostat", "random_window", "pebs_only", "damon"):
        v[f"profile.{kind}.self_s"] = (selfs.get(f"profile.{kind}", 0.0), "s")
    v["policy.orders"] = (counts["policy.orders"], "count")
    for name in ("pages_moved", "retries_scheduled", "fallback_moves"):
        v[f"migrate.{name}"] = (counts[f"migrate.{name}"], "count")
    ordered = counts["migrate.pages_ordered"]
    v["migrate.moved_ratio"] = (
        counts["migrate.pages_moved"] / ordered if ordered else 0.0, "ratio")
    v["faults.events"] = (sum(r.fault_log.total_events for r in p.cells.values()
                              if r.fault_log is not None), "count")
    v["snapshot.capture_s"] = (selfs.get("snapshot.capture", 0.0), "s")
    v["snapshot.fork_s"] = (selfs.get("snapshot.fork", 0.0), "s")
    v["snapshot.calls"] = (
        calls.get("snapshot.capture", 0) + calls.get("snapshot.fork", 0), "count")
    v["snapshot.bytes"] = (counts["snapshot.bytes"], "bytes")
    v["obs.records"] = (p.counts.get("obs_records", 0), "count")
    v["obs.dropped"] = (p.counts.get("obs_dropped", 0), "count")
    v["setup.build_s"] = (tracer.setup_self_s.get("setup.build", 0.0), "s")
    v["other.self_s"] = (p.wall_s - sum(selfs.values()), "s")
    for group, mb in memory_tracer.peak_alloc_mb().items():
        v[f"{group}.peak_alloc_mb"] = (mb, "MB")
    return v


def traced_metrics(untraced, traced, tracers, memory_tracer) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and tracing overhead."""
    rows = [per_layer(p, t, memory_tracer) for p, t in zip(traced, tracers)]
    metrics = {k: (_median([r[k][0] for r in rows]), unit)
               for k, (_, unit) in rows[0].items()}
    metrics["trace.wall_s"] = (_median([p.wall_s for p in traced]), "s")
    metrics["trace.untraced_wall_s"] = (_median([p.wall_s for p in untraced]), "s")
    # Paired: each traced pass against the untraced pass run just before it.
    metrics["trace.overhead_ratio"] = (
        _median([t.wall_s / u.wall_s for u, t in zip(untraced, traced)]), "ratio")
    notes = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    return metrics, notes


# -- one workload ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
                 checks, workloads, layers, expected) -> tuple[dict, dict]:
    """Measure one workload; returns its result record and cell digests."""
    os.makedirs(out_dir, exist_ok=True)
    untraced, traced, tracers = [], [], []
    started = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(workloads.run_pass(name, seed, out_dir))
        if trace:
            with layers.LayerTracer() as tracer:
                traced.append(workloads.run_pass(name, seed, out_dir))
            tracers.append(tracer)
        longest = max(longest, time.perf_counter() - t0)
        # Stop where one more pass would overrun by more than half a pass.
        if time.perf_counter() - start + longest / 2 > seconds:
            break
    memory_pass = memory_tracer = None
    if trace:
        with layers.LayerTracer(memory=True) as memory_tracer:
            memory_pass = workloads.run_pass(name, seed, out_dir)
    passes = untraced + traced + ([memory_pass] if memory_pass else [])
    attempted, failed, messages = check_passes(name, passes, checks, workloads, expected)

    if trace:
        metrics, notes = traced_metrics(untraced, traced, tracers, memory_tracer)
    else:
        values, notes = end_to_end(untraced, attempted, failed)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}

    first = untraced[0]
    record = {
        "workload": name,
        "started": started,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": messages[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "cells": {
            label: {
                "app": first.apps[label],
                "intervals": first.intervals.get(label),
                "footprint_pages": (first.cells[label].footprint_pages
                                    if label in first.cells else None),
                "setup_s": first.setup_s.get(label),
            }
            for label in first.apps
        },
        "provenance": provenance(seed),
        "expected_digests_checked": expected is not None,
    }
    base = os.path.join(out_dir, "results",
                        f"{name}-seed{seed}-trace{int(trace)}-{started}-{os.getpid()}")
    os.makedirs(os.path.dirname(base), exist_ok=True)
    if trace:
        tracers[0].write_chrome_trace(base + ".trace.json",
                                      {"workload": name, "seed": seed})
        record["chrome_trace"] = os.path.relpath(base + ".trace.json", ROOT)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, {label: checks.digests(r) for label, r in first.cells.items()}


# -- provenance --------------------------------------------------------------


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` (no subprocess); "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy

    from repro import kernels, perfflags

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "perfflags_backend": perfflags.backend(),
        "kernels_backend": kernels.active_backend(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- reporting ---------------------------------------------------------------


def _print_report(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"cells attempted={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for key, value in record["notes"].items():
        print(f"  ({key}: {value})")
    if "sim_speedup_mtm" in record["metrics"]:
        print(f"  sim_speedup_mtm is simulated time; paper Fig. 4 average over "
              f"first-touch: {PAPER_FIG4_AVG} (model unvalidated against hardware)")
    for msg in record["errors"]:
        print(f"  FAIL {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="fig4-cold, fig4-replay, tau-fork, faults-obs, or all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                    help="directory for result files and traces")
    ap.add_argument("--update-expected", action="store_true",
                    help="rewrite the default-seed digests from this run "
                         "(after an intended change of simulated behaviour)")
    args = ap.parse_args(argv)
    _pin_allocator()
    try:
        checks, workloads, layers = _import_simulator()
    except ImportError as exc:
        print(f"error: cannot import the simulator from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(f"error: unknown workload {unknown} or --seconds <= 0", file=sys.stderr)
        return 2
    if args.update_expected and args.seed != checks.DEFAULT_SEED:
        print("error: --update-expected needs the default seed", file=sys.stderr)
        return 2

    expected = None
    if args.seed == checks.DEFAULT_SEED and not args.update_expected:
        expected = checks.load_expected()
    runs = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.out,
                         checks, workloads, layers, expected) for n in names]
    records = [record for record, _ in runs]
    for record in records:
        _print_report(record)
    if args.update_expected:
        expected = checks.load_expected() if os.path.exists(checks.EXPECTED_PATH) else {}
        expected.update({r["workload"]: digests for r, digests in runs})
        with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    ok = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
