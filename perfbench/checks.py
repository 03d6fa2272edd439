"""Correctness checks on every simulated cell.

The behaviour contract is ``tests.support.fingerprint``: every simulated
quantity a result carries.  Each field is hashed on its own, so a
mismatch names the field that differs.  At the default seed the digests
are compared with ``expected_seed7.json`` beside this file; on any seed
the cells must also satisfy the invariants below and repeat exactly from
pass to pass (tracing wraps the simulator from outside, so a traced pass
must match an untraced one too).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from tests.support import fingerprint

DEFAULT_SEED = 7
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_seed7.json")


def _plain(value):
    """``value`` with numpy scalars and tuples made JSON-canonical."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def digests(result) -> dict[str, str]:
    """sha256 of each fingerprint field (floats hashed via exact repr)."""
    return {
        name: hashlib.sha256(
            json.dumps(_plain(value), sort_keys=True).encode()
        ).hexdigest()[:16]
        for name, value in fingerprint(result).items()
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def invariant_errors(label: str, result, intervals: int, faulted: bool) -> list[str]:
    """Seed-independent properties every cell must satisfy."""
    errs = []
    recs = result.records
    if len(recs) != intervals:
        errs.append(f"{label}: {len(recs)} records, expected {intervals}")
    times = [t for r in recs for t in (r.app_time, r.profiling_time,
                                        r.migration_time, r.background_time)]
    if not all(math.isfinite(t) and t >= 0 for t in times):
        errs.append(f"{label}: negative or non-finite interval time")
    if not (math.isfinite(result.total_time) and result.total_time > 0):
        errs.append(f"{label}: total_time {result.total_time}")
    accesses = sum(r.total_accesses for r in recs)
    if sum(result.pcm.node_accesses.values()) != accesses:
        errs.append(f"{label}: PCM access count differs from the replayed stream")
    if any(r.fast_tier_accesses > r.total_accesses for r in recs):
        errs.append(f"{label}: more fast-tier accesses than accesses")
    log = result.migration_log
    logged = (log.promoted_pages, log.demoted_pages)
    recorded = (sum(r.promoted_pages for r in recs), sum(r.demoted_pages for r in recs))
    # Retries drained in a degraded interval reach the log but not that
    # interval's record, so the records may only undercount there.
    if any(r.degraded for r in recs):
        if not all(a >= b for a, b in zip(logged, recorded)):
            errs.append(f"{label}: interval records count more moves than the log")
    elif logged != recorded:
        errs.append(f"{label}: migration log disagrees with interval records")
    if result.degraded_intervals != sum(1 for r in recs if r.degraded):
        errs.append(f"{label}: degraded count disagrees with interval records")
    if not faulted and any(r.fault_events for r in recs):
        errs.append(f"{label}: fault events without an injector")
    return errs


def stream_errors(cells: dict, apps: dict) -> list[str]:
    """Cells of one app and seed replay one access stream: same accesses."""
    series: dict[str, tuple[str, list[int]]] = {}
    errs = []
    for label, result in cells.items():
        accesses = [r.total_accesses for r in result.records]
        first = series.setdefault(apps[label], (label, accesses))
        n = min(len(accesses), len(first[1]))
        if accesses[:n] != first[1][:n]:
            errs.append(f"{label}: access stream differs from {first[0]}")
    return errs


def expected_errors(workload: str, label: str, got: dict, expected: dict) -> list[str]:
    """Fields whose digest differs from the committed default-seed digest."""
    want = expected.get(workload, {}).get(label)
    if want is None:
        return [f"{label}: no expected digest committed"]
    return [f"{label}: field {name!r} differs (got {got.get(name)}, expected {want[name]})"
            for name in sorted(want) if got.get(name) != want[name]]
