"""Golden obs pins: the telemetry a run leaves on disk, read back.

``tests/golden/obs_pins.json`` pins, for five runs, the
:func:`~repro.obs.analytics.sim_fingerprint` of the query tables that
:func:`~repro.obs.analytics.load_run` folds from the run's ``--obs-out``
directory and the simulation-domain content
of its merged metrics (counters, gauges, histograms, event counts; the
host-side ``perf.``/``cache.``/``obs.`` series and ``host_seconds``
readings are left out):

* one mtm/gups run;
* the gups+voltdb x first-touch+mtm matrix, serial and with ``workers=2``;
* one fork tau-sweep (one warmed engine, three variants);
* one mtm/voltdb run at fault rate 0.05.

The pins were recorded from the four-file export that preceded the
single stream artifact, so they hold the stream writer and its fold to
the content that export carried.  Both the buffered export and a live
stream (relayed through pool workers for ``workers=2``) must reproduce
them exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.runner import SweepVariant, run_matrix, run_sweep
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.obs.analytics import (
    HOST_METRIC_PREFIXES,
    HOST_METRIC_SUBSTRINGS,
    load_run,
    sim_fingerprint,
)
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.sinks import NdjsonFileSink
from repro.obs.stream import read_stream

PINS_PATH = Path(__file__).parent / "golden" / "obs_pins.json"

SCALE = 1 / 512
SEED = 3
INTERVALS = 6
WARMUP = 4
FAULT_RATE = 0.05
FAULT_SEED = 123
WORKLOADS = ["gups", "voltdb"]
SOLUTIONS = ["first-touch", "mtm"]

PROFILE = BenchProfile(
    name="tiny", scale=SCALE,
    intervals={name: INTERVALS for name in
               ("gups", "voltdb", "cassandra", "bfs", "sssp", "spark")},
    seed=SEED,
)


def set_tau(engine, params: dict) -> None:
    """Sweep apply function (module-level: workers pickle it)."""
    cfg = engine.profiler.config
    cfg.tau_m = params["tau_m"]
    cfg.tau_s = 2.0 * params["tau_m"]
    engine.profiler._tau_m_current = params["tau_m"]


TAU_VARIANTS = [SweepVariant(label=f"tau_m={t:g}", params={"tau_m": t})
                for t in (0.5, 1.0, 1.5)]


def _engine_run(ctx: ObsContext, workload: str, fault_rate: float) -> None:
    injector = (FaultInjector(FaultConfig.uniform(fault_rate), seed=FAULT_SEED)
                if fault_rate else None)
    make_engine("mtm", workload, scale=SCALE, seed=SEED, injector=injector,
                obs=ctx).run(INTERVALS)


def _matrix(ctx: ObsContext, workers: int) -> None:
    run_matrix(WORKLOADS, SOLUTIONS, PROFILE, workers=workers, obs=ctx)


def _sweep(ctx: ObsContext) -> None:
    run_sweep("mtm", "gups", PROFILE, TAU_VARIANTS, set_tau,
              warmup_intervals=WARMUP, intervals=INTERVALS,
              use_snapshots=True, workers=1, obs=ctx)


#: Pin key -> (collector label, function filling the collector).
RUNS = {
    "run/mtm/gups": ("golden-run", lambda ctx: _engine_run(ctx, "gups", 0.0)),
    "matrix/serial": ("golden-matrix", lambda ctx: _matrix(ctx, 1)),
    "matrix/workers2": ("golden-matrix", lambda ctx: _matrix(ctx, 2)),
    "sweep/fork-tau": ("golden-sweep", _sweep),
    "run/mtm/voltdb/faults0.05": (
        "golden-faults", lambda ctx: _engine_run(ctx, "voltdb", FAULT_RATE)),
}


def sim_domain(metrics: dict) -> dict:
    """Simulation-domain slice of a merged metrics dict."""

    def keep(name: str) -> bool:
        return not (name.startswith(HOST_METRIC_PREFIXES)
                    or any(s in name for s in HOST_METRIC_SUBSTRINGS))

    return {section: {name: value
                      for name, value in metrics.get(section, {}).items()
                      if keep(name)}
            for section in ("counters", "gauges", "histograms",
                            "event_counts")}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _check(out: Path, key: str) -> None:
    pin = load_pins()[key]
    assert sim_fingerprint(load_run(out)) == pin["sim_fingerprint"]
    got = sim_domain(read_stream(out).report())
    for section in ("counters", "gauges", "histograms", "event_counts"):
        assert got[section] == pin[section], section


@pytest.mark.parametrize("key", list(RUNS))
def test_export_reproduces_pins(key, tmp_path):
    label, fill = RUNS[key]
    ctx = ObsContext(label=label)
    fill(ctx)
    paths = ctx.export(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"stream.ndjson",
                                                    "trace.json"}
    assert paths["stream"] == str(tmp_path / "stream.ndjson")
    _check(tmp_path, key)


@pytest.mark.parametrize("key", list(RUNS))
def test_live_stream_reproduces_pins(key, tmp_path):
    """A live stream — relayed through pool workers for ``workers=2`` —
    folds to the same content as the buffered export; exporting a
    context that streams into the target file only closes it."""
    label, fill = RUNS[key]
    ctx = ObsContext(ObsConfig(stream=True), label=label)
    ctx.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
    fill(ctx)
    ctx.export(tmp_path)
    lines = (tmp_path / "stream.ndjson").read_text().splitlines()
    assert sum('"type":"end"' in line for line in lines) == 1
    _check(tmp_path, key)
