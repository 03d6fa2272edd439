"""Per-layer host time and memory, measured from outside the simulator.

:class:`LayerTracer` replaces the public entry points of each layer's
classes with timing wrappers for the duration of a pass and restores
them afterwards.  The wrapping is at class level, so engines built
inside forks and caches are covered too.  Layer names are repo modules.

A layer's self time is its span's duration minus the part covered by
nested layer spans (PEBS inside ``profile``, synthesis inside
``sim.tracecache``).  Time spent under ``make_engine`` is set-up and is
kept apart from the simulated run.  Spans stay in memory and are written
as a Chrome/Perfetto trace at the end.

In memory mode the tracer records no spans; at each layer entry it
restarts ``tracemalloc``'s peak and at exit reads it, giving the peak
bytes allocated above the entry level while the layer (with its nested
layers) ran.  Only allocations made while a layer's entry point is on
the stack count, so the figures are confined to simulator code and what
it calls; ``tracemalloc`` snapshots filtered by module were not used
because they cost seconds per interval and attribute arrays that numpy
creates to numpy's own files.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

from repro.core import baselines
from repro.hw.dram_cache import DramCache
from repro.migrate.planner import MigrationPlanner
from repro.mm.mmu import Mmu
from repro.obs.context import ObsContext
from repro.obs.spans import Span, spans_to_trace_events
from repro.perf.pcm import PcmCounters
from repro.perf.pebs import PebsSampler
from repro.policy.base import Policy
from repro.profile.autonuma import RandomWindowProfiler
from repro.profile.damon import DamonProfiler
from repro.profile.hemem import PebsOnlyProfiler
from repro.profile.mtm import MtmProfiler
from repro.profile.thermostat import ThermostatProfiler
from repro.sim.costmodel import CostModel
from repro.sim.engine import SimulationEngine
from repro.sim.tracecache import TraceCache
from repro.workloads.base import Workload

# The concrete classes must be imported for ``__subclasses__`` to see them.
import repro.policy.damos  # noqa: F401
import repro.workloads.registry  # noqa: F401

PROFILERS = {
    MtmProfiler: "profile.mtm",
    ThermostatProfiler: "profile.thermostat",
    RandomWindowProfiler: "profile.random_window",
    PebsOnlyProfiler: "profile.pebs_only",
    DamonProfiler: "profile.damon",
}
COSTMODEL_METHODS = ("app_time", "compute_time", "scan_time", "hint_fault_time",
                     "pebs_time", "profiling_budget_pages", "copy_time",
                     "alloc_time", "unmap_time", "map_time", "pte_migrate_time")
OBS_METHODS = ("emit", "span", "inc", "set_gauge", "observe", "record_provenance",
               "stream_flush", "stream_close", "record_perfstats",
               "record_migration_log", "snapshot")

#: Layers whose peak allocation is reported, and the spans they cover.
MEMORY_GROUPS = {
    "workloads": ("workloads",),
    "mm": ("mm",),
    "profile": tuple(PROFILERS.values()),
    "migrate": ("migrate",),
    "tracecache": ("tracecache",),
    "snapshot": ("snapshot.capture", "snapshot.fork"),
    "obs": ("obs",),
}

#: The engine's own step bookkeeping is not a layer: its self time is "other".
_UNACCOUNTED = "engine.step"


def _subclasses(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class _Frame:
    __slots__ = ("layer", "start", "child", "setup", "mem0", "peak")

    def __init__(self, layer: str, setup: bool) -> None:
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.setup = setup
        self.mem0 = 0
        self.peak = 0


class LayerTracer:
    """Class-level timing (or ``tracemalloc``) wrappers around each layer.

    Use as a context manager around one pass.  ``memory=True`` tracks
    per-layer peak allocation instead of recording spans.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.self_s: dict[str, float] = defaultdict(float)
        self.setup_self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.spans: list[Span] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []
        self._origin = perf_counter()

    # -- span accounting -------------------------------------------------

    def _enter(self, layer: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(layer, layer == "setup" or (parent is not None and parent.setup))
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame.mem0 = frame.peak = cur
        self._stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        own = dur - frame.child
        (self.setup_self_s if frame.setup else self.self_s)[frame.layer] += own
        self.calls[frame.layer] += 1
        if self.memory:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            if parent is not None:
                parent.peak = max(parent.peak, frame.peak)
            key = frame.layer
            self.peak_bytes[key] = max(self.peak_bytes[key], frame.peak - frame.mem0)
        else:
            self.spans.append(Span(frame.layer, frame.layer.split(".")[0],
                                   frame.start - self._origin, dur,
                                   len(self._stack), {}))

    # -- patching --------------------------------------------------------

    def _wrap(self, owner, attr: str, layer: str, hook=None) -> None:
        """Replace ``owner.attr`` by a span; ``hook(args)`` returns a
        callback run on the call's result, outside the span."""
        orig = owner.__dict__[attr]
        is_classmethod = isinstance(orig, classmethod)
        func = orig.__func__ if is_classmethod else orig
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].layer == layer:  # super() chain: one span
                return func(*args, **kwargs)
            after = hook(args) if hook is not None else None
            frame = tracer._enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, orig))

    def _wrap_defined(self, base: type, attr: str, layer: str, hook=None) -> None:
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self._wrap(cls, attr, layer, hook)

    def __enter__(self) -> "LayerTracer":
        counts = self.counts

        def batch_hook(args):
            workload = args[0]

            def after(batch):
                counts["workloads.touched_pages"] += int(batch.pages.size)
                counts["workloads.footprint_pages"] += int(workload.footprint_pages())
            return after

        def cache_hook(args):
            cache = args[0]
            hits, misses = cache.hits, cache.misses

            def after(_):
                counts["tracecache.hits"] += cache.hits - hits
                counts["tracecache.misses"] += cache.misses - misses
                counts["tracecache.bytes"] = max(counts["tracecache.bytes"],
                                                 cache.cached_bytes)
            return after

        def planner_hook(args, orders=None):
            log = args[0].log
            moved = log.promoted_pages + log.demoted_pages
            retries, fallback = log.retries_scheduled, log.fallback_moves
            ordered = sum(o.npages for o in orders) if orders is not None else 0

            def after(_):
                counts["migrate.pages_ordered"] += ordered
                counts["migrate.pages_moved"] += (
                    log.promoted_pages + log.demoted_pages - moved)
                counts["migrate.retries_scheduled"] += log.retries_scheduled - retries
                counts["migrate.fallback_moves"] += log.fallback_moves - fallback
            return after

        def execute_hook(args):
            return planner_hook(args, orders=args[1])

        def decide_hook(args):
            def after(orders):
                counts["policy.orders"] += len(orders)
            return after

        def capture_hook(args):
            def after(snap):
                counts["snapshot.bytes"] += snap.nbytes
            return after

        self._wrap(baselines, "make_engine", "setup")
        self._wrap_defined(Workload, "build", "setup.build")
        self._wrap_defined(Workload, "next_batch", "workloads", batch_hook)
        self._wrap(TraceCache, "get_batch", "tracecache", cache_hook)
        self._wrap(Mmu, "begin_interval", "mm")
        self._wrap(Mmu, "release_batch", "mm")
        self._wrap(PcmCounters, "count", "perf.pcm")
        self._wrap(PebsSampler, "sample", "perf.pebs")
        for name in COSTMODEL_METHODS:
            self._wrap(CostModel, name, "costmodel")
        self._wrap(DramCache, "access_batch", "hw.dram_cache")
        for cls, layer in PROFILERS.items():
            self._wrap(cls, "profile", layer)
        self._wrap_defined(Policy, "decide", "policy", decide_hook)
        self._wrap(MigrationPlanner, "execute", "migrate", execute_hook)
        self._wrap(MigrationPlanner, "drain_retries", "migrate", planner_hook)
        self._wrap(SimulationEngine, "snapshot", "snapshot.capture", capture_hook)
        self._wrap(SimulationEngine, "fork", "snapshot.fork")
        for name in OBS_METHODS:
            self._wrap(ObsContext, name, "obs")
        self._wrap(SimulationEngine, "step", "engine.step")
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Run-time self seconds of every simulator layer (not set-up)."""
        return {k: v for k, v in self.self_s.items() if k != _UNACCOUNTED}

    def peak_alloc_mb(self) -> dict[str, float]:
        return {group: max((self.peak_bytes.get(s, 0) for s in spans), default=0)
                / (1024.0 * 1024.0)
                for group, spans in MEMORY_GROUPS.items()}

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Spans as a Chrome trace-event file (loads in Perfetto)."""
        events = spans_to_trace_events(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
