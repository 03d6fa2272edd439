"""Pure-numpy reference implementations of every kernel.

Each function here is the *definition* of its kernel's semantics.  The
C rung must be bit-identical to these — the differential suite in
``tests/test_kernels.py`` asserts it — which is possible because every
kernel is pure integer arithmetic and data movement (or element-wise
float math); none of them re-orders a float reduction.  The one kernel
that draws randomness, :func:`poisson_sparse`, is defined by
``Generator.poisson`` itself.

This module is also the only rung on machines without a C compiler,
and the one chunked page-table storage calls directly (its
:class:`~repro.mm.chunked.ChunkedArray` state has no flat buffer to hand
to C).
"""

from __future__ import annotations

import math

import numpy as np


def mmu_scatter_reset(
    touched: np.ndarray,
    entry_counts: np.ndarray,
    entry_writes: np.ndarray,
    entry_socket: np.ndarray,
) -> None:
    """Reset the interval state of the previously-touched entries."""
    entry_counts[touched] = 0
    entry_writes[touched] = 0
    entry_socket[touched] = -1


def mmu_ingest(
    entries: np.ndarray,
    counts: np.ndarray,
    writes: np.ndarray,
    sockets: np.ndarray,
    pages: np.ndarray,
    entry_counts: np.ndarray,
    entry_writes: np.ndarray,
    entry_socket: np.ndarray,
    flags: np.ndarray,
    cumulative_counts: np.ndarray,
    cumulative_writes: np.ndarray,
    accessed_bit: int,
    dirty_bit: int,
) -> None:
    """Fused interval ingest for a strictly-ascending unique page batch.

    Precondition (guaranteed by the caller): every slot of
    ``entry_counts``/``entry_writes`` the batch touches is zero, so
    per-entry accumulation equals assignment of contiguous-run sums.
    """
    keep = np.empty(entries.size, dtype=bool)
    keep[0] = True
    np.not_equal(entries[1:], entries[:-1], out=keep[1:])
    idx = np.flatnonzero(keep)
    if idx.size == entries.size:
        entry_counts[entries] = counts
        entry_writes[entries] = writes
    else:
        entry_counts[entries[idx]] = np.add.reduceat(counts, idx)
        entry_writes[entries[idx]] = np.add.reduceat(writes, idx)
    entry_socket[entries] = sockets
    flags[entries] |= np.uint16(accessed_bit)
    flags[entries[writes > 0]] |= np.uint16(dirty_bit)
    cumulative_counts[pages] += counts
    cumulative_writes[pages] += writes


def node_rle(node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encoding ``(bounds, values)`` of a node array."""
    change = np.flatnonzero(node[1:] != node[:-1])
    bounds = np.empty(change.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = change + 1
    bounds[-1] = node.shape[0]
    values = node[bounds[:-1]].astype(np.int64)
    return bounds, values


def span_majority(
    starts: np.ndarray,
    npages: np.ndarray,
    bounds: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Majority resident node of many spans over a node RLE (-1 unmapped)."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = starts + npages
    lo = np.searchsorted(bounds, starts, side="right") - 1
    hi = np.searchsorted(bounds, ends, side="left")  # runs [lo, hi) overlap
    nruns = np.maximum(hi - lo, 0)
    offs = np.concatenate(([0], np.cumsum(nruns)))
    span_id = np.repeat(np.arange(starts.size), nruns)
    ridx = (
        np.arange(int(offs[-1]), dtype=np.int64)
        - np.repeat(offs[:-1], nruns)
        + np.repeat(lo, nruns)
    )
    weights = np.minimum(bounds[ridx + 1], np.repeat(ends, nruns)) - np.maximum(
        bounds[ridx], np.repeat(starts, nruns)
    )
    nodes = values[ridx]
    mapped = (nodes >= 0) & (weights > 0)
    result = np.full(starts.size, -1, dtype=np.int64)
    if not np.any(mapped):
        return result
    n_nodes = int(nodes[mapped].max()) + 1
    counts = np.bincount(
        span_id[mapped] * n_nodes + nodes[mapped],
        weights=weights[mapped],
        minlength=starts.size * n_nodes,
    ).reshape(starts.size, n_nodes)
    has_mapped = counts.sum(axis=1) > 0
    result[has_mapped] = np.argmax(counts[has_mapped], axis=1)
    return result


def span_entries(
    starts: np.ndarray,
    npages: np.ndarray,
    entry: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique leaf entries of many spans over a dense page->entry map.

    Returns ``(entries, offsets)``; span ``i``'s entries are
    ``entries[offsets[i]:offsets[i+1]]``, ascending (``entry`` is
    non-decreasing within a span because huge mappings are aligned).
    """
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    pages, span_id = span_pages(starts, npages)
    return span_first_entries(entry[pages], span_id, starts.size)


def span_pages(starts: np.ndarray, npages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated pages of many spans, and each page's span index."""
    bounds = np.concatenate(([0], np.cumsum(npages)))
    span_id = np.repeat(np.arange(starts.size), npages)
    pages = (
        np.arange(int(bounds[-1]), dtype=np.int64)
        - np.repeat(bounds[:-1], npages)
        + np.repeat(starts, npages)
    )
    return pages, span_id


def span_first_entries(
    entries: np.ndarray,
    span_id: np.ndarray,
    nspans: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop repeats within each span of per-page ``entries``.

    ``entries`` is non-decreasing within each span, so first occurrences
    are the span's sorted unique entries; returns ``(entries, offsets)``
    as :func:`span_entries` does.
    """
    first = np.empty(entries.size, dtype=bool)
    first[0] = True
    np.logical_or(
        entries[1:] != entries[:-1], span_id[1:] != span_id[:-1], out=first[1:]
    )
    offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(span_id[first], minlength=nspans)))
    )
    return entries[first], offsets


def node_accumulate(
    nodes: np.ndarray,
    counts: np.ndarray,
    writes: np.ndarray,
    n_slots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node access/write sums; slot 0 collects unmapped (-1) pages.

    Slot ``node + 1`` holds node's totals, exactly the shifted layout of
    the PCM bincount path (float64 weighted sums of int64 counts are
    exact below 2**53, so integer accumulation is bit-identical).
    """
    shifted = nodes.astype(np.int64) + 1
    acc = np.bincount(shifted, weights=counts, minlength=n_slots)
    wr = np.bincount(shifted, weights=writes, minlength=n_slots)
    return acc.astype(np.int64), wr.astype(np.int64)


def score_detected(detected: np.ndarray) -> tuple[int, int, int, int]:
    """Fused per-region stats of one scan's detected counts.

    Returns ``(total, min, max, argmax)`` where ``argmax`` is the first
    maximum (numpy's tie-break).  ``total / size`` equals
    ``detected.mean()`` bit-for-bit: the values are small integers, so
    numpy's float64 accumulation is exact regardless of order.
    """
    return (
        int(detected.sum()),
        int(detected.min()),
        int(detected.max()),
        int(np.argmax(detected)),
    )


def poisson_sparse(
    rng: np.random.Generator, n: int, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-page Poisson(``lam``) counts of ``n`` pages, touched pages only.

    Returns ``(offsets, counts)``: the ascending page offsets whose count
    is non-zero, and those counts (both ``int64``).  Draws exactly what
    ``rng.poisson(lam, n)`` draws, so the generator is left in the same
    state on every rung.  Raises ``ValueError`` for a negative or
    non-finite ``lam``.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"poisson rate must be finite and >= 0, got {lam}")
    counts = rng.poisson(lam, n)
    touched = np.nonzero(counts)[0]
    return touched.astype(np.int64), counts[touched].astype(np.int64)
