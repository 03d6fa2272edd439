"""Unit tests for the MMU: interval state, detection model, attribution."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mm.mmu import Mmu
from repro.sim.trace import AccessBatch
from repro.units import PAGES_PER_HUGE_PAGE


def make_batch(pages, counts, writes=None, sockets=None):
    pages = np.asarray(pages, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if writes is None:
        writes = np.zeros_like(counts)
    return AccessBatch(
        pages=pages,
        counts=counts,
        writes=np.asarray(writes, dtype=np.int64),
        sockets=None if sockets is None else np.asarray(sockets, dtype=np.int8),
    )


class TestIntervalState:
    def test_counts_accumulate_on_entries(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        # Two pages inside the same huge page aggregate on its head.
        head = vma.start
        mmu.begin_interval(make_batch([head + 1, head + 2], [3, 4]))
        entry = np.array([head])
        assert mmu.entry_count(entry)[0] == 7

    def test_interval_resets(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [5]))
        mmu.begin_interval(make_batch([vma.start + PAGES_PER_HUGE_PAGE], [2]))
        assert mmu.entry_count(np.array([vma.start]))[0] == 0

    def test_cumulative_ground_truth(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [5], writes=[2]))
        mmu.begin_interval(make_batch([vma.start], [3], writes=[1]))
        assert mmu.cumulative_counts[vma.start] == 8
        assert mmu.cumulative_writes[vma.start] == 3

    def test_pte_bits_set(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start + 1], [1], writes=[1]))
        pt = mapped_space.page_table
        entry = pt.entry_index(np.array([vma.start + 1]))
        assert pt.scan_accessed(entry)[0]
        assert pt.test_and_clear_dirty(entry)[0]

    def test_bad_socket_rejected(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        with pytest.raises(ConfigError):
            mmu.begin_interval(make_batch([vma.start], [1], sockets=[5]))

    def test_pages_outside_space_rejected(self, mmu):
        n = mmu.page_table.n_pages
        for pages in ([-1, 3], [0, n]):
            with pytest.raises(ConfigError):
                mmu.begin_interval(make_batch(pages, [1, 1]))

    def test_current_batch_requires_interval(self, mapped_space):
        fresh = Mmu(mapped_space.page_table)
        with pytest.raises(ConfigError):
            _ = fresh.current_batch


class TestDetectionModel:
    def test_zero_count_never_detected(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [1]))
        untouched = np.array([vma.start + PAGES_PER_HUGE_PAGE])
        detected = mmu.scan_detect(untouched, 3, rng)
        assert detected[0] == 0

    def test_hot_entry_saturates_with_full_exposure(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [10_000]))
        detected = mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=1.0)
        assert detected[0] == 3

    def test_small_exposure_discriminates_rates(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        hot = vma.start
        cold = vma.start + PAGES_PER_HUGE_PAGE
        mmu.begin_interval(make_batch([hot, cold], [100, 5]))
        exposure = 0.0167
        hot_hits = np.array([
            mmu.scan_detect(np.array([hot]), 3, rng, exposure=exposure)[0]
            for _ in range(200)
        ])
        cold_hits = np.array([
            mmu.scan_detect(np.array([cold]), 3, rng, exposure=exposure)[0]
            for _ in range(200)
        ])
        assert hot_hits.mean() > cold_hits.mean() + 1.0

    def test_even_spread_saturates_on_huge_entries(self, mapped_space, mmu, rng):
        """The DAMON failure mode: evenly spread checks cannot tell a hot
        2 MB entry from a mildly warm one."""
        vma = mapped_space.vmas[0]
        hot, warm = vma.start, vma.start + PAGES_PER_HUGE_PAGE
        mmu.begin_interval(make_batch([hot, warm], [3000, 200]))
        hot_d = np.array([mmu.scan_detect(np.array([hot]), 3, rng)[0] for _ in range(50)])
        warm_d = np.array([mmu.scan_detect(np.array([warm]), 3, rng)[0] for _ in range(50)])
        assert hot_d.mean() == pytest.approx(3.0, abs=0.1)
        assert warm_d.mean() == pytest.approx(3.0, abs=0.2)

    def test_count_scale_thins_signal(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [512]))
        full = np.array([
            mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=0.02)[0]
            for _ in range(100)
        ])
        thinned = np.array([
            mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=0.02, count_scale=1 / 512)[0]
            for _ in range(100)
        ])
        assert thinned.mean() < full.mean()

    def test_invalid_args_rejected(self, mapped_space, mmu, rng):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [1]))
        with pytest.raises(ConfigError):
            mmu.scan_detect(np.array([vma.start]), 0, rng)
        with pytest.raises(ConfigError):
            mmu.scan_detect(np.array([vma.start]), 3, rng, exposure=1.5)
        with pytest.raises(ConfigError):
            mmu.scan_detect(np.array([vma.start]), 3, rng, count_scale=0)


class TestAttribution:
    def test_fault_detect_is_binary(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [7]))
        cold = vma.start + PAGES_PER_HUGE_PAGE
        assert mmu.fault_detect(np.array([vma.start, cold])).tolist() == [1, 0]

    def test_accessor_socket(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        mmu.begin_interval(make_batch([vma.start], [1], sockets=[1]))
        assert mmu.accessor_socket(np.array([vma.start]))[0] == 1
        cold = vma.start + PAGES_PER_HUGE_PAGE
        assert mmu.accessor_socket(np.array([cold]))[0] == -1

    def test_write_happened(self, mapped_space, mmu):
        vma = mapped_space.vmas[0]
        other = vma.start + PAGES_PER_HUGE_PAGE
        mmu.begin_interval(make_batch([vma.start, other], [2, 2], writes=[1, 0]))
        flags = mmu.write_happened(np.array([vma.start, other]))
        assert flags.tolist() == [True, False]
