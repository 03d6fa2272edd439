"""C implementations of the kernels, built with the system ``cc``.

This is the rung used wherever any C compiler is on ``PATH``
(gcc/clang).  The source below is embedded as a string, written
to the shared kernel cache directory, compiled once per source revision
(``cc -O3 -march=native -shared -fPIC ... -lm``, with a portable-flag
retry) into a hash-keyed shared object, and bound
with :mod:`ctypes` — no ``Python.h`` or build system required.

Bit-identity with the numpy fallback holds because no float reduction
is performed in C (numpy's pairwise summation would differ from a naive
accumulation loop) and weight/count sums stay in ``int64``.  The one
loop that does float math, the sparse Poisson draw, repeats numpy's own
sampler operation for operation on uniforms taken from the caller's
numpy bit generator, so its counts and the generator's final state
match ``Generator.poisson`` exactly.

Builds are concurrency-safe: the object is compiled to a
process-unique temporary name and ``os.replace``d into place, so
parallel workers racing on a cold cache all end up loading the same
file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from . import _fallback

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

void repro_scatter_reset(int64_t n, const int64_t *touched,
                         int64_t *ec, int64_t *ew, int8_t *es) {
    for (int64_t i = 0; i < n; i++) {
        int64_t e = touched[i];
        ec[e] = 0;
        ew[e] = 0;
        es[e] = -1;
    }
}

/* Fused interval ingest: the caller guarantees pages are strictly
 * ascending and every touched count/write slot is zero, so per-entry
 * accumulation (+=) equals the fallback's run-sum assignment. */
void repro_mmu_ingest(int64_t n, const int64_t *entries, const int64_t *counts,
                      const int64_t *writes, const int8_t *sockets,
                      const int64_t *pages, int64_t *ec, int64_t *ew,
                      int8_t *esock, uint16_t *flags, int64_t *cumc,
                      int64_t *cumw, uint16_t accessed_bit, uint16_t dirty_bit) {
    for (int64_t i = 0; i < n; i++) {
        int64_t e = entries[i];
        ec[e] += counts[i];
        ew[e] += writes[i];
        esock[e] = sockets[i];
        uint16_t f = (uint16_t)(flags[e] | accessed_bit);
        if (writes[i] > 0)
            f = (uint16_t)(f | dirty_bit);
        flags[e] = f;
        cumc[pages[i]] += counts[i];
        cumw[pages[i]] += writes[i];
    }
}

/* Single-pass run-length encoding.  Node maps are long runs of equal
 * values (migrated extents), so the scan walks fixed-width blocks: a
 * vectorizable xor-or reduction detects "any change in block" and
 * uniform blocks are skipped at SIMD speed; only blocks containing a
 * run boundary fall back to the scalar scan.  Writes into caller
 * buffers of capacity cap runs (bounds needs cap + 1 slots); returns
 * the true run count — when it exceeds cap the writes stop but the
 * count completes, so the caller retries with exact capacity. */
#define RLE_BLOCK 64

int64_t repro_node_rle(int64_t n, const int16_t *node, int64_t cap,
                       int64_t *bounds, int64_t *values) {
    int64_t r = 1;
    if (cap > 0) {
        bounds[0] = 0;
        values[0] = node[0];
    }
    int64_t i = 1;
    for (; i + RLE_BLOCK <= n; i += RLE_BLOCK) {
        int16_t diff = 0;
        for (int64_t j = i; j < i + RLE_BLOCK; j++)
            diff |= (int16_t)(node[j] ^ node[j - 1]);
        if (diff == 0)
            continue;
        for (int64_t j = i; j < i + RLE_BLOCK; j++) {
            if (node[j] != node[j - 1]) {
                if (r < cap) {
                    bounds[r] = j;
                    values[r] = node[j];
                }
                r++;
            }
        }
    }
    for (; i < n; i++) {
        if (node[i] != node[i - 1]) {
            if (r < cap) {
                bounds[r] = i;
                values[r] = node[i];
            }
            r++;
        }
    }
    if (r <= cap)
        bounds[r] = n;
    return r;
}

static int64_t upper_bound(const int64_t *a, int64_t n, int64_t key) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] <= key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Majority node per span over a node RLE.  scratch has n_nodes slots;
 * ties break to the lowest node id (first maximum), matching argmax. */
void repro_span_majority(int64_t nspans, const int64_t *starts,
                         const int64_t *npages, int64_t nbounds,
                         const int64_t *bounds, const int64_t *values,
                         int64_t n_nodes, int64_t *scratch, int64_t *out) {
    for (int64_t s = 0; s < nspans; s++) {
        int64_t start = starts[s];
        int64_t end = start + npages[s];
        memset(scratch, 0, (size_t)n_nodes * sizeof(int64_t));
        int64_t total = 0;
        int64_t r = upper_bound(bounds, nbounds, start) - 1;
        if (r < 0)
            r = 0;
        for (; r + 1 < nbounds && bounds[r] < end; r++) {
            int64_t lo = bounds[r] > start ? bounds[r] : start;
            int64_t hi = bounds[r + 1] < end ? bounds[r + 1] : end;
            int64_t node = values[r];
            if (hi > lo && node >= 0) {
                scratch[node] += hi - lo;
                total += hi - lo;
            }
        }
        if (total == 0) {
            out[s] = -1;
            continue;
        }
        int64_t best = 0;
        for (int64_t v = 1; v < n_nodes; v++)
            if (scratch[v] > scratch[best])
                best = v;
        out[s] = best;
    }
}

/* First-occurrence compaction of per-span leaf entries; returns the
 * number of entries written to out_entries.  out_counts[s] holds the
 * number of unique entries of span s. */
int64_t repro_span_entries(int64_t nspans, const int64_t *starts,
                           const int64_t *npages, const int64_t *entry,
                           int64_t *out_entries, int64_t *out_counts) {
    int64_t k = 0;
    for (int64_t s = 0; s < nspans; s++) {
        int64_t prev = -1;
        int64_t emitted = 0;
        int64_t end = starts[s] + npages[s];
        for (int64_t p = starts[s]; p < end; p++) {
            int64_t e = entry[p];
            if (emitted == 0 || e != prev) {
                out_entries[k++] = e;
                emitted++;
                prev = e;
            }
        }
        out_counts[s] = emitted;
    }
    return k;
}

/* Per-node accumulation with four independent accumulator banks: the
 * node map is mostly long runs of one value, so a single-accumulator
 * loop stalls on the store-to-load dependency of the repeated slot.
 * Banks break the chain; integer addition is order-independent, so
 * the merged totals are bit-identical to the simple loop. */
#define ACC_BANKS 4
#define ACC_MAX_SLOTS 64

void repro_node_accumulate(int64_t n, const int16_t *nodes,
                           const int64_t *counts, const int64_t *writes,
                           int64_t n_slots, int64_t *acc, int64_t *wr) {
    if (n_slots <= ACC_MAX_SLOTS) {
        int64_t ab[ACC_BANKS][ACC_MAX_SLOTS];
        int64_t wb[ACC_BANKS][ACC_MAX_SLOTS];
        memset(ab, 0, sizeof ab);
        memset(wb, 0, sizeof wb);
        int64_t i = 0;
        for (; i + ACC_BANKS <= n; i += ACC_BANKS) {
            for (int b = 0; b < ACC_BANKS; b++) {
                int64_t slot = (int64_t)nodes[i + b] + 1;
                ab[b][slot] += counts[i + b];
                wb[b][slot] += writes[i + b];
            }
        }
        for (; i < n; i++) {
            int64_t slot = (int64_t)nodes[i] + 1;
            ab[0][slot] += counts[i];
            wb[0][slot] += writes[i];
        }
        for (int64_t s = 0; s < n_slots; s++) {
            for (int b = 0; b < ACC_BANKS; b++) {
                acc[s] += ab[b][s];
                wr[s] += wb[b][s];
            }
        }
        return;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t slot = (int64_t)nodes[i] + 1;
        acc[slot] += counts[i];
        wr[slot] += writes[i];
    }
}

/* out = {sum, min, max, argmax-of-first-maximum}.  Two passes: the
 * branchless sum/min/max reduction vectorizes, then a second scan
 * finds the first index holding the max (numpy argmax's tie-break)
 * and exits early. */
void repro_score_detected(int64_t n, const int64_t *detected, int64_t *out) {
    int64_t total = 0, mn = detected[0], mx = detected[0];
    for (int64_t i = 0; i < n; i++) {
        int64_t d = detected[i];
        total += d;
        mn = d < mn ? d : mn;
        mx = d > mx ? d : mx;
    }
    int64_t arg = 0;
    for (int64_t i = 0; i < n; i++) {
        if (detected[i] == mx) {
            arg = i;
            break;
        }
    }
    out[0] = total;
    out[1] = mn;
    out[2] = mx;
    out[3] = arg;
}

/* numpy's bit generator interface (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Per-page Poisson(lam) counts for 0 < lam < 10, keeping only the
 * non-zero ones.  The loop is numpy's random_poisson_mult, consuming
 * the caller's generator draw for draw: multiply uniforms until the
 * product drops to exp(-lam) (numpy evaluates exp(-lam) per element;
 * it is the same libm value once per call).  The first product is
 * 1.0 * U == U exactly.  Returns the number of touched pages written
 * to offsets/counts, which hold n slots each. */
int64_t repro_poisson_sparse(bitgen_t *bitgen, int64_t n, double lam,
                             int64_t *offsets, int64_t *counts) {
    const double enlam = exp(-lam);
    double (*next_double)(void *) = bitgen->next_double;
    void *state = bitgen->state;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t x = 0;
        double prod = next_double(state);
        while (prod > enlam) {
            x++;
            prod *= next_double(state);
        }
        if (x) {
            offsets[k] = i;
            counts[k] = x;
            k++;
        }
    }
    return k;
}
"""

#: Array arguments travel as raw addresses (``ndarray.ctypes.data``), so
#: every array handed to C must be C-contiguous with the dtype its C
#: parameter names, and stay referenced (a local or an argument) for
#: the call.  Wrappers convert the inputs that may arrive otherwise.
_P = ctypes.c_void_p
_I = ctypes.c_int64

_SIGNATURES = {
    "repro_scatter_reset": (None, [_I, _P, _P, _P, _P]),
    "repro_mmu_ingest": (
        None,
        [_I, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P,
         ctypes.c_uint16, ctypes.c_uint16],
    ),
    "repro_node_rle": (_I, [_I, _P, _I, _P, _P]),
    "repro_span_majority": (None, [_I, _P, _P, _I, _P, _P, _I, _P, _P]),
    "repro_span_entries": (_I, [_I, _P, _P, _P, _P, _P]),
    "repro_node_accumulate": (None, [_I, _P, _P, _P, _I, _P, _P]),
    "repro_score_detected": (None, [_I, _P, _P]),
    "repro_poisson_sparse": (_I, [_P, _I, ctypes.c_double, _P, _P]),
}

_lib: ctypes.CDLL | None = None


def _compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        from shutil import which

        if which(name):
            return name
    return None


def available() -> bool:
    """Whether a C compiler (or an already-built object) is usable."""
    if _lib is not None:
        return True
    return _compiler() is not None


#: Optimization flags; ``-march=native`` lets the auto-vectorizer use
#: the host's full SIMD width (results are unaffected — the integer
#: kernels have no rounding, and the one float loop is a chain of
#: single multiplies and compares with nothing to contract or
#: reassociate).  Never add ``-ffast-math``.  Compilers that reject
#: ``-march=native`` get the portable fallback.
_CFLAGS = ("-O3", "-march=native", "-funroll-loops")
_CFLAGS_PORTABLE = ("-O3",)
#: Link flags for both attempts: ``exp`` comes from the same libm numpy
#: calls.
_LDLIBS = ("-lm",)


def load(cache_dir: Path) -> None:
    """Build (if needed) and bind the shared object; raises on failure."""
    global _lib
    if _lib is not None:
        return
    key = _SOURCE + "\0" + " ".join(_CFLAGS + _LDLIBS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:12]
    cache_dir.mkdir(parents=True, exist_ok=True)
    so_path = cache_dir / f"repro_kernels_{digest}.so"
    if not so_path.exists():
        cc = _compiler()
        if cc is None:
            raise RuntimeError("no C compiler found")
        src_path = cache_dir / f"repro_kernels_{digest}.c"
        src_path.write_text(_SOURCE)
        fd, tmp = tempfile.mkstemp(
            dir=cache_dir, prefix=f"repro_kernels_{digest}_", suffix=".so"
        )
        os.close(fd)
        try:
            for flags in (_CFLAGS, _CFLAGS_PORTABLE):
                result = subprocess.run(
                    [cc, *flags, "-shared", "-fPIC", str(src_path), "-o", tmp,
                     *_LDLIBS],
                    capture_output=True,
                    text=True,
                )
                if result.returncode == 0:
                    break
            else:
                raise RuntimeError(
                    f"kernel build failed: {result.stderr.strip()}"
                )
            os.replace(tmp, so_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(so_path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    _lib = lib


def _p(a: np.ndarray) -> int:
    return a.ctypes.data


def mmu_scatter_reset(touched, entry_counts, entry_writes, entry_socket):
    """Reset interval state of previously-touched entries."""
    _lib.repro_scatter_reset(
        touched.size, _p(touched), _p(entry_counts), _p(entry_writes),
        _p(entry_socket),
    )


def mmu_ingest(
    entries, counts, writes, sockets, pages, entry_counts, entry_writes,
    entry_socket, flags, cumulative_counts, cumulative_writes,
    accessed_bit, dirty_bit,
):
    """Fused interval ingest for a strictly-ascending unique page batch."""
    _lib.repro_mmu_ingest(
        entries.size, _p(entries), _p(counts), _p(writes), _p(sockets),
        _p(pages), _p(entry_counts), _p(entry_writes), _p(entry_socket),
        _p(flags), _p(cumulative_counts), _p(cumulative_writes),
        accessed_bit, dirty_bit,
    )


def node_rle(node):
    """Run-length encoding ``(bounds, values)`` of a node array."""
    n = node.shape[0]
    cap = 4096  # covers typical run counts in one pass
    while True:
        bounds = np.empty(cap + 1, dtype=np.int64)
        values = np.empty(cap, dtype=np.int64)
        runs = int(
            _lib.repro_node_rle(n, _p(node), cap, _p(bounds), _p(values))
        )
        if runs <= cap:
            return bounds[: runs + 1], values[:runs]
        cap = runs


def span_majority(starts, npages, bounds, values):
    """Majority resident node of many spans over a node RLE."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    mapped = values >= 0
    if not np.any(mapped):
        return np.full(starts.size, -1, dtype=np.int64)
    n_nodes = int(values[mapped].max()) + 1
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    npages = np.ascontiguousarray(npages, dtype=np.int64)
    scratch = np.empty(n_nodes, dtype=np.int64)
    out = np.empty(starts.size, dtype=np.int64)
    _lib.repro_span_majority(
        starts.size, _p(starts), _p(npages), bounds.size, _p(bounds),
        _p(values), n_nodes, _p(scratch), _p(out),
    )
    return out


def span_entries(starts, npages, entry):
    """Unique leaf entries of many spans; ``(entries, offsets)``."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    npages = np.ascontiguousarray(npages, dtype=np.int64)
    total = int(npages.sum())
    out_entries = np.empty(total, dtype=np.int64)
    out_counts = np.empty(starts.size, dtype=np.int64)
    k = int(
        _lib.repro_span_entries(
            starts.size, _p(starts), _p(npages), _p(entry),
            _p(out_entries), _p(out_counts),
        )
    )
    offsets = np.empty(starts.size + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(out_counts, out=offsets[1:])
    return out_entries[:k].copy(), offsets


def node_accumulate(nodes, counts, writes, n_slots):
    """Per-node int64 access/write sums (slot 0 = unmapped)."""
    nodes = np.ascontiguousarray(nodes, dtype=np.int16)
    if nodes.size and not -1 <= int(nodes.min()) <= int(nodes.max()) < n_slots - 1:
        raise ValueError(f"node ids outside [-1, {n_slots - 2}]")
    acc = np.zeros(n_slots, dtype=np.int64)
    wr = np.zeros(n_slots, dtype=np.int64)
    _lib.repro_node_accumulate(
        nodes.size, _p(nodes), _p(counts), _p(writes), n_slots,
        _p(acc), _p(wr),
    )
    return acc, wr


def score_detected(detected):
    """Fused ``(sum, min, max, argmax)`` of detected counts."""
    detected = np.ascontiguousarray(detected, dtype=np.int64)
    if detected.size == 0:
        raise ValueError("score_detected of an empty array")
    out = np.empty(4, dtype=np.int64)
    _lib.repro_score_detected(detected.size, _p(detected), _p(out))
    return int(out[0]), int(out[1]), int(out[2]), int(out[3])


def poisson_sparse(rng, n, lam):
    """Non-zero per-page Poisson(lam) counts ``(offsets, counts)``.

    Draws through ``rng``'s own bit generator under its lock, so the
    stream is consumed exactly as ``rng.poisson(lam, n)`` consumes it.
    ``lam`` outside ``(0, 10)`` — zero, numpy's PTRS range, or an
    invalid value — takes the numpy reference.
    """
    if not 0.0 < lam < 10.0:
        return _fallback.poisson_sparse(rng, n, lam)
    n = int(n)
    offsets = np.empty(n, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        k = int(
            _lib.repro_poisson_sparse(
                bitgen.ctypes.bit_generator, n, float(lam), _p(offsets),
                _p(counts),
            )
        )
    return offsets[:k].copy(), counts[:k].copy()
