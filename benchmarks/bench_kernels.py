#!/usr/bin/env python
"""Per-kernel microbenchmark of the :mod:`repro.kernels` rungs.

For every kernel this driver times three implementations on identical
inputs:

* **legacy** — a per-element Python loop (inlined here as the
  reference semantics);
* **vectorized** — the numpy reference pipeline from
  :mod:`repro.kernels._fallback`, i.e. what machines without a C
  compiler run;
* **compiled** — the dispatched :mod:`repro.kernels` entry point (the
  ctypes C shared object where a C compiler is present, numpy
  otherwise — ``kernel_backend`` in the payload records which).

Build/load work happens in :func:`repro.kernels.warmup` *before* any
timed region, so the numbers are steady-state per-call costs.  All
three arms are bit-identical (asserted on every timed output here and
exhaustively by ``tests/test_kernels.py``); only wall clock differs.

A fourth arm exercises the chunked page-table layout at paper scale: a
16.7M-page (quick: 10M+) :class:`~repro.mm.pagetable.PageTable` is
auto-chunked, sparsely populated, and driven through the span kernels,
recording its actual storage bytes against the dense-equivalent layout
(``n_pages`` x 12 bytes) plus the process peak RSS.

The results are appended as a ``kernels`` block to ``BENCH_perf.json``
(preserving the perf-smoke payload), where CI gates the
compiled-over-vectorized speedup.
"""

from __future__ import annotations

import json
import math
import resource
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.bench.scaling import BenchProfile
from repro.mm.pagetable import PAGES_PER_HUGE_PAGE, PageTable

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Timed repetitions per arm; the minimum is kept (steady-state cost).
ROUNDS = 5

#: The sparse Poisson draw runs over one 1M-page segment at a cold and a
#: hot workload rate (``repro.workloads.base``'s calibration).
POISSON_PAGES = 1_000_000
POISSON_RATES = (0.0125, 0.2)


# ---------------------------------------------------------------------------
# Legacy (pure-Python loop) reference implementations.


def _legacy_scatter_reset(touched, entry_counts, entry_writes, entry_socket):
    """Per-element Python loop behind the compiled scatter reset."""
    for e in touched.tolist():
        entry_counts[e] = 0
        entry_writes[e] = 0
        entry_socket[e] = -1


def _legacy_mmu_ingest(entries, counts, writes, sockets, pages, entry_counts,
                       entry_writes, entry_socket, flags, cumulative_counts,
                       cumulative_writes, accessed_bit, dirty_bit):
    """Per-element Python loop behind the fused interval ingest."""
    for i in range(entries.size):
        e = int(entries[i])
        c = int(counts[i])
        w = int(writes[i])
        entry_counts[e] += c
        entry_writes[e] += w
        entry_socket[e] = sockets[i]
        f = int(flags[e]) | accessed_bit
        if w > 0:
            f |= dirty_bit
        flags[e] = f
        p = int(pages[i])
        cumulative_counts[p] += c
        cumulative_writes[p] += w


def _legacy_node_rle(node):
    """Per-element Python loop behind the node run-length encoding."""
    bounds = [0]
    values = [int(node[0])]
    for i in range(1, node.shape[0]):
        if node[i] != node[i - 1]:
            bounds.append(i)
            values.append(int(node[i]))
    bounds.append(node.shape[0])
    return (np.asarray(bounds, dtype=np.int64),
            np.asarray(values, dtype=np.int64))


def _legacy_span_majority(starts, npages, bounds, values):
    """Per-span Python loop behind the majority-node kernel."""
    out = np.full(starts.size, -1, dtype=np.int64)
    blist = bounds.tolist()
    vlist = values.tolist()
    for s in range(starts.size):
        start = int(starts[s])
        end = start + int(npages[s])
        tally: dict[int, int] = {}
        for r in range(len(vlist)):
            lo = max(blist[r], start)
            hi = min(blist[r + 1], end)
            if hi > lo and vlist[r] >= 0:
                tally[vlist[r]] = tally.get(vlist[r], 0) + (hi - lo)
        if tally:
            best = max(tally.items(), key=lambda kv: (kv[1], -kv[0]))
            out[s] = best[0]
    return out


def _legacy_span_entries(starts, npages, entry):
    """Per-page Python loop behind the span leaf-entry kernel."""
    out: list[int] = []
    offsets = [0]
    for s in range(starts.size):
        prev = None
        for p in range(int(starts[s]), int(starts[s]) + int(npages[s])):
            e = int(entry[p])
            if e != prev:
                out.append(e)
                prev = e
        offsets.append(len(out))
    return (np.asarray(out, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64))


def _legacy_node_accumulate(nodes, counts, writes, n_slots):
    """Per-element Python loop behind the per-node accumulation."""
    acc = [0] * n_slots
    wr = [0] * n_slots
    for i in range(nodes.size):
        slot = int(nodes[i]) + 1
        acc[slot] += int(counts[i])
        wr[slot] += int(writes[i])
    return (np.asarray(acc, dtype=np.int64), np.asarray(wr, dtype=np.int64))


def _legacy_score_detected(detected):
    """Per-element Python loop behind the fused region scoring."""
    total = 0
    mn = mx = int(detected[0])
    arg = 0
    for i in range(detected.size):
        d = int(detected[i])
        total += d
        if d < mn:
            mn = d
        if d > mx:
            mx = d
            arg = i
    return total, mn, mx, arg


def _legacy_poisson_sparse(rng, n, lam):
    """Per-page Python loop behind the sparse Poisson draw: numpy's
    multiply-uniforms sampler, one ``rng.random()`` per draw."""
    enlam = math.exp(-lam)
    draw = rng.random
    offsets: list[int] = []
    counts: list[int] = []
    for i in range(n):
        x = 0
        prod = draw()
        while prod > enlam:
            x += 1
            prod *= draw()
        if x:
            offsets.append(i)
            counts.append(x)
    return (np.asarray(offsets, dtype=np.int64),
            np.asarray(counts, dtype=np.int64))


# ---------------------------------------------------------------------------
# Input synthesis (sized by bench profile) and the case table.


def _make_cases(rng: np.random.Generator, n_entries: int, batch: int):
    """Build one shared input set and the per-kernel (legacy, vectorized,
    compiled) callables over it."""
    from repro.kernels import _fallback

    # MMU state + one strictly-ascending unique page batch over it.
    pages = np.sort(rng.choice(n_entries, size=batch, replace=False))
    entries = pages.copy()  # identity entry map (no huge collapse)
    counts = rng.integers(1, 64, size=batch, dtype=np.int64)
    writes = rng.integers(0, 8, size=batch, dtype=np.int64)
    sockets = rng.integers(0, 2, size=batch, dtype=np.int64).astype(np.int8)

    def mmu_state():
        return (np.zeros(n_entries, dtype=np.int64),
                np.zeros(n_entries, dtype=np.int64),
                np.full(n_entries, -1, dtype=np.int8),
                np.zeros(n_entries, dtype=np.uint16),
                np.zeros(n_entries, dtype=np.int64),
                np.zeros(n_entries, dtype=np.int64))

    ec, ew, es, fl, cc_, cw = mmu_state()

    # Node map with realistic run structure (migrated extents).
    node = np.full(n_entries, -1, dtype=np.int16)
    pos = 0
    while pos < n_entries:
        run = int(rng.integers(64, 4096))
        node[pos:pos + run] = int(rng.integers(-1, 4))
        pos += run
    bounds, values = _fallback.node_rle(node)

    # Region spans for the span kernels.
    nspans = max(16, batch // 256)
    span_starts = np.sort(
        rng.choice(n_entries - 512, size=nspans, replace=False)
    ).astype(np.int64)
    span_npages = rng.integers(32, 512, size=nspans).astype(np.int64)

    entry_map = np.arange(n_entries, dtype=np.int64)
    nodes16 = node.copy()
    detected = rng.integers(0, 64, size=batch, dtype=np.int64)

    def ingest_args():
        return (entries, counts, writes, sockets, pages,
                ec, ew, es, fl, cc_, cw, 1 << 5, 1 << 6)

    def poisson_case(lam):
        # Every arm draws from the same fresh generator state.
        def seeded():
            return np.random.default_rng(13)

        return (
            f"poisson_sparse[{lam:g}]",
            lambda: _legacy_poisson_sparse(seeded(), POISSON_PAGES, lam),
            lambda: _fallback.poisson_sparse(seeded(), POISSON_PAGES, lam),
            lambda: kernels.poisson_sparse(seeded(), POISSON_PAGES, lam),
        )

    return [
        ("mmu_scatter_reset",
         lambda: _legacy_scatter_reset(pages, ec, ew, es),
         lambda: _fallback.mmu_scatter_reset(pages, ec, ew, es),
         lambda: kernels.mmu_scatter_reset(pages, ec, ew, es)),
        ("mmu_ingest",
         lambda: _legacy_mmu_ingest(*ingest_args()),
         lambda: _fallback.mmu_ingest(*ingest_args()),
         lambda: kernels.mmu_ingest(*ingest_args())),
        ("node_rle",
         lambda: _legacy_node_rle(node),
         lambda: _fallback.node_rle(node),
         lambda: kernels.node_rle(node)),
        ("span_majority",
         lambda: _legacy_span_majority(span_starts, span_npages, bounds, values),
         lambda: _fallback.span_majority(span_starts, span_npages, bounds, values),
         lambda: kernels.span_majority(span_starts, span_npages, bounds, values)),
        ("span_entries",
         lambda: _legacy_span_entries(span_starts, span_npages, entry_map),
         lambda: _fallback.span_entries(span_starts, span_npages, entry_map),
         lambda: kernels.span_entries(span_starts, span_npages, entry_map)),
        ("node_accumulate",
         lambda: _legacy_node_accumulate(nodes16[pages], counts, writes, 6),
         lambda: _fallback.node_accumulate(nodes16[pages], counts, writes, 6),
         lambda: kernels.node_accumulate(nodes16[pages], counts, writes, 6)),
        ("score_detected",
         lambda: _legacy_score_detected(detected),
         lambda: _fallback.score_detected(detected),
         lambda: kernels.score_detected(detected)),
        *(poisson_case(lam) for lam in POISSON_RATES),
    ]


def _as_comparable(result):
    """Normalize a kernel return value for cross-arm equality checks."""
    if result is None:
        return None
    if isinstance(result, tuple):
        return tuple(np.asarray(r).tolist() for r in result)
    return np.asarray(result).tolist()


def _time_arm(fn) -> tuple[float, object]:
    """Best-of-``ROUNDS`` wall time of ``fn`` plus its (last) result."""
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _chunked_arm(n_pages: int) -> dict:
    """Drive a paper-scale chunked page table and record its footprint."""
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    pt = PageTable(n_pages)
    assert pt.chunked, "paper-scale table should auto-chunk"
    rng = np.random.default_rng(7)
    region_pages = 64 * PAGES_PER_HUGE_PAGE
    starts = np.sort(rng.choice(
        n_pages // region_pages, size=48, replace=False,
    )).astype(np.int64) * region_pages
    for i, start in enumerate(starts.tolist()):
        pt.map_range(start, region_pages, node=i % 3,
                     huge=(i % 4 == 0))
    npages = np.full(starts.size, region_pages, dtype=np.int64)
    majority = pt.span_majority_nodes(starts, npages)
    assert int(majority.size) == starts.size
    entries, offsets = pt.span_entries(starts[:8], npages[:8])
    assert int(offsets[-1]) == entries.size
    mapped = pt.mapped_pages()
    chunked_bytes = pt.storage_nbytes()
    elapsed = time.perf_counter() - t0
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Dense layout is exactly flags(u16) + node(i16) + entry(i64).
    dense_bytes = n_pages * (2 + 2 + 8)
    return {
        "n_pages": n_pages,
        "chunk_pages": pt.chunk_pages,
        "mapped_pages": int(mapped),
        "chunked_bytes": int(chunked_bytes),
        "dense_equiv_bytes": int(dense_bytes),
        "storage_ratio": round(chunked_bytes / dense_bytes, 4),
        "elapsed_seconds": round(elapsed, 3),
        "peak_rss_kb": int(rss_after),
        "peak_rss_delta_kb": int(rss_after - rss_before),
    }


def run_experiment(profile: BenchProfile) -> str:
    """Time every compiled kernel against its vectorized and legacy arms."""
    # Kernel timings use fixed paper-shaped sizes regardless of profile
    # (the whole sweep takes seconds; profile-scaling them would just
    # measure call overhead).  Only the chunked arm scales up on full.
    n_entries, batch = 1 << 21, 1 << 19
    chunked_pages = 1 << 24 if profile.name != "quick" else 10_485_760

    warmup_seconds = kernels.warmup()  # build/load outside timed regions
    rng = np.random.default_rng(11)
    cases = _make_cases(rng, n_entries, batch)

    per_kernel = {}
    speedups = []
    lines = []
    for name, legacy, vectorized, compiled in cases:
        compiled()  # touch once so first-call overhead is off-clock
        legacy_s, legacy_out = _time_arm(legacy)
        vec_s, vec_out = _time_arm(vectorized)
        comp_s, comp_out = _time_arm(compiled)
        if name not in ("mmu_scatter_reset", "mmu_ingest"):
            # The MMU arms mutate shared state (by design); the pure
            # kernels must agree bit-for-bit across all three arms.
            assert _as_comparable(vec_out) == _as_comparable(comp_out), name
            assert _as_comparable(legacy_out) == _as_comparable(vec_out), name
        speedup = vec_s / comp_s if comp_s > 0 else float("inf")
        per_kernel[name] = {
            "legacy_seconds": round(legacy_s, 6),
            "vectorized_seconds": round(vec_s, 6),
            "compiled_seconds": round(comp_s, 6),
            "speedup_vs_vectorized": round(speedup, 2),
            "speedup_vs_legacy": round(legacy_s / comp_s, 1) if comp_s else None,
        }
        speedups.append(speedup)
        lines.append(
            f"  {name:22s} legacy {legacy_s * 1e3:8.2f}ms  "
            f"vectorized {vec_s * 1e3:8.3f}ms  "
            f"compiled {comp_s * 1e3:8.3f}ms  "
            f"({speedup:5.1f}x vs vectorized)"
        )

    chunked = _chunked_arm(chunked_pages)
    geomean = float(np.exp(np.mean(np.log(speedups))))
    best = max(speedups)

    block = {
        "kernel_backend": kernels.active_backend(),
        "warmup_seconds": round(warmup_seconds, 3),
        "n_entries": n_entries,
        "batch_pages": batch,
        "per_kernel": per_kernel,
        "speedup_geomean": round(geomean, 2),
        "speedup_best": round(best, 2),
        "chunked": chunked,
    }
    payload = {}
    if OUTPUT.exists():
        try:
            payload = json.loads(OUTPUT.read_text())
        except (ValueError, OSError):
            payload = {}
    payload["kernels"] = block
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    report = [
        f"kernel microbench ({profile.name} profile, "
        f"backend={block['kernel_backend']}, "
        f"warmup {warmup_seconds:.2f}s off-clock)",
        *lines,
        f"  geomean speedup vs vectorized: {geomean:.2f}x (best {best:.1f}x)",
        f"  chunked arm: {chunked['n_pages']:,} pages in "
        f"{chunked['elapsed_seconds']:.2f}s, storage "
        f"{chunked['chunked_bytes'] / 1e6:.1f}MB vs dense "
        f"{chunked['dense_equiv_bytes'] / 1e6:.1f}MB "
        f"({chunked['storage_ratio']:.1%})",
        f"  appended 'kernels' block to {OUTPUT.name}",
    ]
    return "\n".join(report)


def test_kernel_bench(benchmark, profile):
    out = benchmark.pedantic(run_experiment, args=(profile,), rounds=1,
                             iterations=1)
    print(out)


if __name__ == "__main__":
    from repro.bench.cli import bench_main

    bench_main(run_experiment, default_profile="quick")
