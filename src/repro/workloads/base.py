"""Workload interface and the segment-rate machinery.

A workload describes each interval's activity as a list of
:class:`RateSegment` — contiguous page ranges with an expected per-page
access rate, a write ratio, a dominant socket, and a hotness label.  The
base class turns segments into an :class:`~repro.sim.trace.AccessBatch` by
drawing per-page Poisson counts, which is both fast (vectorized over each
segment) and statistically faithful: a page with rate 4 is touched several
times per interval (a multi-scan profiler can grade it), a page with rate
0.2 is usually untouched (exactly the sparsity that makes large-memory
profiling hard).

Calibration note: rates are per 4 KB page per interval and sit at
paper-realistic densities (hot ~0.2, cold ~0.015): most pages are
untouched in any given interval, which is exactly what makes large-memory
profiling hard.  At 2 MB huge-page granularity these integrate to ~100
accesses per hot entry and ~8 per cold entry per interval — the regime
where MTM's burst-window multi-scan discriminates while evenly-spread
access-bit checks saturate (see :mod:`repro.mm.mmu`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro import nputil
from repro.errors import WorkloadError
from repro.hw.placement import Placer
from repro.mm.hugepage import ThpManager
from repro.mm.vma import AddressSpace, Vma
from repro.sim.trace import AccessBatch
from repro.units import bytes_to_pages

#: Default calibrated rates (accesses per 4 KB page per interval).
HOT_RATE = 0.2
WARM_RATE = 0.05
COLD_RATE = 0.015


@dataclass(frozen=True)
class RateSegment:
    """One contiguous range of pages with uniform expected activity.

    Attributes:
        start: first page of the segment.
        npages: length in pages.
        rate: expected accesses per page this interval.
        write_ratio: fraction of the segment's accesses that write.
        socket: socket issuing the accesses.
        hot: ground-truth hotness label for quality metrics.
    """

    start: int
    npages: int
    rate: float
    write_ratio: float = 0.0
    socket: int = 0
    hot: bool = False

    def __post_init__(self) -> None:
        if self.npages < 1:
            raise WorkloadError(f"segment needs >= 1 page, got {self.npages}")
        if self.rate < 0:
            raise WorkloadError(f"negative rate: {self.rate}")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise WorkloadError(f"write_ratio must be in [0,1], got {self.write_ratio}")

    @property
    def end(self) -> int:
        return self.start + self.npages


class Workload(abc.ABC):
    """Common contract for workload generators."""

    #: Short name used in reports.
    name: str = "workload"
    #: Read/write description from Table 2 ("1:1", "read-only").
    rw_mix: str = "1:1"

    @abc.abstractmethod
    def build(self, space: AddressSpace, thp: ThpManager, placer: Placer) -> None:
        """Allocate this workload's VMAs and map them via ``placer``."""

    @abc.abstractmethod
    def next_batch(self, rng: np.random.Generator) -> AccessBatch:
        """The next interval's access histogram (advances workload state)."""

    @abc.abstractmethod
    def hot_pages(self) -> np.ndarray:
        """Ground-truth hot pages for the interval last generated."""

    @abc.abstractmethod
    def footprint_pages(self) -> int:
        """Total pages across this workload's VMAs."""

    def spans(self) -> list[tuple[int, int]]:
        """VMA spans ``(start, npages)`` for profiler setup."""
        return [(v.start, v.npages) for v in self.vmas()]

    @abc.abstractmethod
    def vmas(self) -> list[Vma]:
        """The VMAs this workload allocated (after :meth:`build`)."""


class SegmentedWorkload(Workload):
    """Workload base driven by per-interval :class:`RateSegment` lists.

    Subclasses allocate VMAs in :meth:`build` and implement
    :meth:`segments` returning the current interval's activity; the base
    class handles batch synthesis, hot-page ground truth, and interval
    advancement.
    """

    def __init__(self) -> None:
        self._vmas: list[Vma] = []
        self._interval = -1
        self._current_segments: list[RateSegment] = []
        self._segments_pending = 0

    # -- subclass API --------------------------------------------------------

    @abc.abstractmethod
    def segments(self, interval: int) -> list[RateSegment]:
        """Activity for ``interval`` (0-based)."""

    def _register_vma(self, vma: Vma) -> None:
        self._vmas.append(vma)

    # -- Workload implementation ------------------------------------------------

    def vmas(self) -> list[Vma]:
        return list(self._vmas)

    def footprint_pages(self) -> int:
        return sum(v.npages for v in self._vmas)

    @property
    def interval(self) -> int:
        """Index of the last generated interval (-1 before the first)."""
        return self._interval

    def next_batch(self, rng: np.random.Generator) -> AccessBatch:
        if not self._vmas:
            raise WorkloadError("next_batch() before build()")
        self._catch_up_segments()
        self._interval += 1
        self._current_segments = self.segments(self._interval)
        # Per-segment Poisson counts and binomial writes, assembled
        # without intermediate per-segment batches.  Segment lists are
        # normally disjoint and ascending, letting the concatenated
        # arrays skip the unique/scatter-add merge entirely.
        pages_l: list[np.ndarray] = []
        counts_l: list[np.ndarray] = []
        writes_l: list[np.ndarray] = []
        sockets_l: list[np.ndarray] = []
        for segment in self._current_segments:
            if segment.rate <= 0:
                continue
            counts = rng.poisson(segment.rate, segment.npages)
            touched = np.nonzero(counts)[0]
            if touched.size == 0:
                continue
            pages_l.append(segment.start + touched.astype(np.int64))
            counts_l.append(counts[touched].astype(np.int64))
            writes_l.append(
                rng.binomial(counts_l[-1], segment.write_ratio).astype(np.int64)
            )
            sockets_l.append(np.full(pages_l[-1].shape, segment.socket, dtype=np.int8))
        if not pages_l:
            return AccessBatch.empty()
        all_pages = np.concatenate(pages_l)
        if np.all(np.diff(all_pages) > 0):
            # Disjoint ascending segments: every page appears once, so the
            # merged histogram IS the concatenation (each page's dominant
            # socket is its only contributor).
            return AccessBatch(
                pages=all_pages,
                counts=np.concatenate(counts_l),
                writes=np.concatenate(writes_l),
                sockets=np.concatenate(sockets_l),
            )
        return AccessBatch.merge(
            [
                AccessBatch(pages=p, counts=c, writes=w, sockets=s)
                for p, c, w, s in zip(pages_l, counts_l, writes_l, sockets_l)
            ]
        )

    def advance_interval(self) -> None:
        """Advance interval state without synthesizing a batch.

        The engine calls this when a cached trace stream supplies the
        interval's activity, so :meth:`hot_pages` and
        :meth:`expected_accesses` stay in sync with the batch being
        replayed.  Draws no randomness.

        Segment plans are computed lazily: stateful workloads (BFS's
        traversal cursor) still see one ``segments()`` call per interval,
        in order, but only once something actually reads the plan — a run
        that never asks for ground truth skips the whole computation.
        """
        if not self._vmas:
            raise WorkloadError("advance_interval() before build()")
        self._interval += 1
        self._segments_pending += 1

    def _catch_up_segments(self) -> None:
        """Replay deferred ``segments()`` calls, one per skipped interval."""
        while self._segments_pending:
            self._segments_pending -= 1
            self._current_segments = self.segments(
                self._interval - self._segments_pending
            )

    def hot_pages(self) -> np.ndarray:
        if self._interval < 0:
            raise WorkloadError("hot_pages() before the first next_batch()")
        self._catch_up_segments()
        ranges = [
            np.arange(s.start, s.end, dtype=np.int64)
            for s in self._current_segments
            if s.hot
        ]
        if not ranges:
            return np.empty(0, dtype=np.int64)
        return nputil.unique(np.concatenate(ranges))

    def expected_accesses(self) -> float:
        """Expected accesses in the current interval's segment plan."""
        self._catch_up_segments()
        return sum(s.rate * s.npages for s in self._current_segments)


def balance_cold_rate(hot_accesses: float, cold_pages: int, hot_share: float = 0.8) -> float:
    """Cold-segment rate giving hot segments ``hot_share`` of all accesses.

    Skewed workloads (zipfian YCSB, TPC-C) concentrate ~80% of traffic on
    the hot structures; this solves for the uniform background rate that
    realizes a chosen split.
    """
    if not 0.0 < hot_share < 1.0:
        raise WorkloadError(f"hot_share must be in (0,1), got {hot_share}")
    if cold_pages <= 0:
        return 0.0
    return hot_accesses * (1.0 - hot_share) / hot_share / cold_pages


def scaled_pages(paper_bytes: float, scale: float) -> int:
    """Pages for a paper-scale size under ``scale``, at least one page."""
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    return max(1, bytes_to_pages(int(paper_bytes * scale)))


def populate(
    workload: SegmentedWorkload,
    space: AddressSpace,
    thp: ThpManager,
    placer: Placer,
    sizes: list[tuple[str, int]],
) -> dict[str, Vma]:
    """Allocate and map named VMAs for a workload.

    Each VMA may be split across components by the placer (spill-over when
    a tier fills); chunk boundaries stay huge-aligned so THP mappings are
    not torn at placement time.

    Args:
        sizes: list of ``(name, npages)``.

    Returns:
        Mapping of VMA name to the allocated VMA.
    """
    from repro.mm.vma import Vma as _Vma
    from repro.units import PAGES_PER_HUGE_PAGE

    result: dict[str, Vma] = {}
    for name, npages in sizes:
        vma = space.allocate_vma(npages, name)
        offset = vma.start
        chunks = placer.place(npages)
        for i, (chunk_pages, node) in enumerate(chunks):
            if i < len(chunks) - 1 and chunk_pages % PAGES_PER_HUGE_PAGE:
                raise WorkloadError(
                    f"placer chunk of {chunk_pages} pages is not huge-aligned"
                )
            chunk_vma = _Vma(start=offset, npages=chunk_pages, name=f"{name}[{i}]")
            thp.populate(space.page_table, chunk_vma, node)
            offset += chunk_pages
        if offset != vma.end:
            raise WorkloadError(
                f"placer covered {offset - vma.start} of {npages} pages for {name}"
            )
        workload._register_vma(vma)
        result[name] = vma
    return result
