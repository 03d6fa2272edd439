"""The benchmark's four named workloads and the pass that runs one.

A *pass* simulates a workload's whole cell matrix once, in this process,
through the public simulator API (``make_engine``,
``SimulationEngine.step``/``snapshot``/``fork``, ``TraceCache``).  Host
time is split into set-up (``make_engine``) and simulation (every
``step`` plus snapshot capture and fork); each ``step`` is timed on its
own so the step-time percentiles cover every simulated interval.

Every workload also runs a first-touch reference over the same access
stream, so ``sim_speedup_mtm`` (first-touch simulated time / MTM
simulated time, Fig. 4's y-axis) is defined on each of them.

Why these four (each stresses a different simulator layer):

* ``fig4-cold`` -- how a user reruns Fig. 4: fresh engines, no trace
  cache, so workload synthesis dominates; gups (uniform hot set) and bfs
  (graph traversal) run different generator code.
* ``fig4-replay`` -- every profiler and policy on one voltdb stream that
  a shared ``TraceCache`` synthesizes once and replays seven times, so
  profiling dominates and a synthesis change should not move it.
* ``tau-fork`` -- Fig. 9's threshold sweep on voltdb (the paper's Fig. 9
  application) as snapshot/fork: one warmed MTM engine forked six times;
  the only workload in ``sim.snapshot``.  (On gups, MTM's simulated gain
  over first-touch in a run this short is bimodal across seeds, 0.72x to
  1.22x, depending on where the drifting hot set starts.)
* ``faults-obs`` -- MTM under a 5% uniform fault rate with a streaming
  obs context: failed moves, the retry queue, fallback moves, degraded
  intervals and NDJSON emission; the only workload in ``faults``/``obs``.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import time
from dataclasses import dataclass, field

from repro.bench.sweeps import apply_tau
from repro.core import baselines
from repro.faults.injector import FaultConfig, FaultInjector
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.sinks import NdjsonFileSink
from repro.sim.engine import SimulationEngine
from repro.sim.tracecache import TraceCache

#: The ``full`` bench profile's machine scale (default flags otherwise).
SCALE = 1.0 / 128.0

FIG4_SOLUTIONS = ("first-touch", "hmc", "tiered-autonuma", "mtm")
REPLAY_SOLUTIONS = ("first-touch", "hmc", "tiered-autonuma", "autotiering",
                    "hemem", "thermostat", "damon", "mtm")
TAU_M = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)

# Interval counts: each pass simulates >= 110 intervals in total, so the
# step-time p90 has at least 10 samples beyond it.
COLD_INTERVALS = 14
REPLAY_INTERVALS = 24
TAU_WARMUP = 12
TAU_TAIL = 16
FAULT_INTERVALS = 55
FAULT_RATE = 0.05
FAULT_SEED = 11
FAULT_CELL = "voltdb/mtm+faults"

WORKLOADS = ("fig4-cold", "fig4-replay", "tau-fork", "faults-obs")


@dataclass
class PassResult:
    """Host timings and simulated results of one pass over a workload.

    Attributes:
        cells: simulated result per cell label, in run order.
        intervals: intervals each cell's result must hold (a fork's
            includes the warm-up it shares with its siblings).
        apps: workload application per cell label.
        setup_s: host seconds in ``make_engine`` per cell label.
        wall_s: host seconds simulating (steps, snapshot, fork).
        step_s: host seconds of every ``step`` call, in run order.
        other_s: host seconds of every snapshot capture and fork.
        peak_rss_mb: the process's peak resident memory during the pass.
        counts: obs stream counters (records written, dropped, on disk).
        speedup: first-touch over MTM simulated time, geomean.
        errors: cell label -> exception text, for cells that raised.
    """

    cells: dict = field(default_factory=dict)
    intervals: dict = field(default_factory=dict)
    apps: dict = field(default_factory=dict)
    setup_s: dict = field(default_factory=dict)
    wall_s: float = 0.0
    step_s: list = field(default_factory=list)
    other_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    counts: dict = field(default_factory=dict)
    speedup: float = float("nan")
    errors: dict = field(default_factory=dict)


class _Pass:
    """Book-keeping shared by the workload functions below."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.out = PassResult()

    def build(self, label: str, solution: str, app: str, **kwargs):
        # Engines hold reference cycles: free the previous cell's now, so
        # the peak RSS does not depend on when the collector happens to run.
        gc.collect()
        t0 = time.perf_counter()
        engine = baselines.make_engine(solution, app, SCALE, seed=self.seed, **kwargs)
        self.out.setup_s[label] = time.perf_counter() - t0
        self.out.apps[label] = app
        return engine

    def steps(self, engine, n: int) -> None:
        step_s = self.out.step_s
        t_run = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            engine.step()
            step_s.append(time.perf_counter() - t0)
        self.out.wall_s += time.perf_counter() - t_run

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.out.other_s.append(dt)
        self.out.wall_s += dt
        return value

    def finish(self, label: str, engine) -> None:
        self.out.cells[label] = engine.result()

    def cell(self, label: str, solution: str, app: str, n: int, **kwargs) -> None:
        self.out.intervals[label] = n
        try:
            engine = self.build(label, solution, app, **kwargs)
            self.steps(engine, n)
            self.finish(label, engine)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not fatal
            self.out.errors[label] = f"{type(exc).__name__}: {exc}"


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _speedup(out: PassResult, pairs: list[tuple[str, str]]) -> float:
    """Geomean of first-touch over MTM simulated time across ``pairs``."""
    ratios = [out.cells[ft].total_time / out.cells[m].total_time
              for ft, m in pairs if ft in out.cells and m in out.cells]
    return _geomean(ratios) if ratios else float("nan")


def fig4_cold(p: _Pass, work_dir: str) -> None:
    for app in ("gups", "bfs"):
        for sol in FIG4_SOLUTIONS:
            p.cell(f"{app}/{sol}", sol, app, COLD_INTERVALS)
    p.out.speedup = _speedup(p.out, [(f"{a}/first-touch", f"{a}/mtm")
                                     for a in ("gups", "bfs")])


def fig4_replay(p: _Pass, work_dir: str) -> None:
    cache = TraceCache()
    for sol in REPLAY_SOLUTIONS:
        p.cell(f"voltdb/{sol}", sol, "voltdb", REPLAY_INTERVALS, trace_cache=cache)
    p.out.speedup = _speedup(p.out, [("voltdb/first-touch", "voltdb/mtm")])


def tau_fork(p: _Pass, work_dir: str) -> None:
    cache = TraceCache()
    labels = [f"voltdb/mtm/tau_m={t}" for t in TAU_M]
    try:
        warm = p.build("voltdb/mtm/warmup", "mtm", "voltdb", trace_cache=cache)
        p.steps(warm, TAU_WARMUP)
        snap = p.timed(warm.snapshot)
        del warm
        for label, tau_m in zip(labels, TAU_M):
            fork = p.timed(SimulationEngine.fork, snap, trace_cache=cache)
            apply_tau(fork, {"tau_m": tau_m, "tau_s": 2.0 * tau_m})
            p.steps(fork, TAU_TAIL)
            p.out.apps[label] = "voltdb"
            p.out.intervals[label] = TAU_WARMUP + TAU_TAIL
            p.finish(label, fork)
            del fork
            gc.collect()
        del snap
    except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not fatal
        for label in labels:
            if label not in p.out.cells:
                p.out.errors[label] = f"{type(exc).__name__}: {exc}"
    p.cell("voltdb/first-touch", "first-touch", "voltdb", TAU_WARMUP + TAU_TAIL,
           trace_cache=cache)
    ft = p.out.cells.get("voltdb/first-touch")
    forks = [p.out.cells[l] for l in labels if l in p.out.cells]
    if ft is not None and forks:
        p.out.speedup = _geomean([ft.total_time / r.total_time for r in forks])


def faults_obs(p: _Pass, work_dir: str) -> None:
    path = os.path.join(work_dir, f"stream-seed{p.seed}.ndjson")
    if os.path.exists(path):
        os.unlink(path)
    obs = ObsContext(ObsConfig(stream=True), label=FAULT_CELL)
    sink = NdjsonFileSink(path)
    obs.add_sink(sink)
    injector = FaultInjector(FaultConfig.uniform(FAULT_RATE), seed=FAULT_SEED)
    p.cell(FAULT_CELL, "mtm", "voltdb", FAULT_INTERVALS, injector=injector, obs=obs)
    obs.stream_close()
    p.out.counts = {
        "obs_records": sink.lines_written,
        "obs_dropped": sink.dropped + obs.dropped_events(),
        "obs_lines_on_disk": _count_json_lines(path),
    }
    p.cell("voltdb/first-touch", "first-touch", "voltdb", FAULT_INTERVALS)
    p.out.speedup = _speedup(p.out, [("voltdb/first-touch", FAULT_CELL)])


def _count_json_lines(path: str) -> int:
    """Lines of the NDJSON stream that parse as JSON objects (-1: unreadable)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if isinstance(json.loads(line), dict))
    except (OSError, ValueError):
        return -1


_RUNNERS = {
    "fig4-cold": fig4_cold,
    "fig4-replay": fig4_replay,
    "tau-fork": tau_fork,
    "faults-obs": faults_obs,
}


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (``VmHWM``) for this process.

    Free heap memory that the allocator still holds is handed back first,
    so memory an earlier pass (or workload) freed does not count.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        raise RuntimeError(f"cannot reset the peak-RSS counter: {exc}") from exc


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_pass(workload: str, seed: int, work_dir: str) -> PassResult:
    """Simulate ``workload`` once; the peak RSS counter restarts first."""
    gc.collect()
    _reset_peak_rss()
    p = _Pass(seed)
    _RUNNERS[workload](p, work_dir)
    p.out.peak_rss_mb = _peak_rss_mb()
    return p.out
