"""Shared helpers for the perf-opt and snapshot test suites.

The central object is :func:`fingerprint`: a structural digest of every
simulated quantity a :class:`~repro.sim.engine.SimulationResult` carries.
Two runs are *bit-identical* exactly when their fingerprints compare
equal — this is the invariant every acceleration (``TraceCache``,
``workers=K``, snapshot/fork, the kernel rungs, chunked storage) is
tested against, and what the committed golden corpus
(``tests/golden/fingerprints.json``) pins.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

#: The committed golden corpus (see ``tests/test_golden.py``).
GOLDEN_PATH = Path(__file__).parent / "golden" / "fingerprints.json"


def normalize(value):
    """A fingerprint as it reads back from JSON (lists, string keys)."""
    return json.loads(json.dumps(value, default=lambda o: o.item()))


@lru_cache(maxsize=1)
def load_golden() -> dict:
    """Corpus key -> normalized fingerprint."""
    return json.loads(GOLDEN_PATH.read_text())


def fingerprint(result):
    """Every simulated quantity of a run, as a comparable value."""
    return {
        "total_time": result.total_time,
        "records": [
            (r.index, r.app_time, r.profiling_time, r.migration_time,
             r.background_time, r.total_accesses, r.fast_tier_accesses,
             r.region_count, r.promoted_pages, r.demoted_pages,
             r.degraded, r.fault_events)
            for r in result.records
        ],
        "pcm_accesses": dict(result.pcm.node_accesses),
        "pcm_writes": dict(result.pcm.node_writes),
        "migration": (result.migration_log.promoted_pages,
                      result.migration_log.demoted_pages,
                      result.migration_log.promoted_bytes,
                      result.migration_log.demoted_bytes),
        "overhead": result.memory_overhead_bytes,
        "degraded": result.degraded_intervals,
    }


def matrix_fingerprint(matrix):
    """Fingerprints of every cell of a :class:`MatrixResult`."""
    return {
        wl: {sol: fingerprint(r) for sol, r in row.items()}
        for wl, row in matrix.results.items()
    }


def sweep_fingerprint(sweep):
    """Fingerprints of every variant of a :class:`SweepResult`."""
    return {label: fingerprint(r) for label, r in sweep.results.items()}
