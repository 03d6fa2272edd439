"""Unit tests for the workload generators (Table 2)."""

import numpy as np
import pytest

from repro.errors import ConfigError, WorkloadError
from repro.hw.placement import Placer
from repro.mm.hugepage import ThpManager
from repro.mm.vma import AddressSpace
from repro.workloads.base import RateSegment, balance_cold_rate, scaled_pages
from repro.workloads.gups import GupsConfig, GupsWorkload
from repro.workloads.registry import WORKLOAD_SPECS, build_workload, workload_names
from repro.units import GiB, PAGES_PER_HUGE_PAGE

SCALE = 1.0 / 512.0


def built(name, seed=5, **overrides):
    w = build_workload(name, SCALE, seed=seed, **overrides)
    space = AddressSpace(2_000_000)
    w.build(space, ThpManager(), Placer(0))
    return w


class TestRegistry:
    def test_six_workloads(self):
        assert workload_names() == ["gups", "voltdb", "cassandra", "bfs", "sssp", "spark"]

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("redis", SCALE)

    def test_specs_match_table2(self):
        assert WORKLOAD_SPECS["gups"].footprint_bytes == 512 * GiB
        assert WORKLOAD_SPECS["voltdb"].footprint_bytes == 300 * GiB
        assert WORKLOAD_SPECS["cassandra"].footprint_bytes == 400 * GiB
        assert WORKLOAD_SPECS["bfs"].rw_mix == "read-only"
        assert WORKLOAD_SPECS["gups"].paper_intervals == 1000

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_generates(self, name):
        w = built(name)
        rng = np.random.default_rng(2)
        batch = w.next_batch(rng)
        assert batch.total_accesses > 0
        assert w.footprint_pages() > 0
        assert len(w.spans()) >= 1

    @pytest.mark.parametrize("name", workload_names())
    def test_hot_pages_follow_batch(self, name):
        w = built(name)
        rng = np.random.default_rng(2)
        w.next_batch(rng)
        hot = w.hot_pages()
        assert hot.size > 0
        # Hot pages must be inside the footprint.
        spans = w.spans()
        lo = min(s for s, _ in spans)
        hi = max(s + n for s, n in spans)
        assert hot.min() >= lo and hot.max() < hi

    @pytest.mark.parametrize("name", workload_names())
    def test_determinism_per_seed(self, name):
        a = built(name, seed=9)
        b = built(name, seed=9)
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        batch_a, batch_b = a.next_batch(rng_a), b.next_batch(rng_b)
        assert np.array_equal(batch_a.pages, batch_b.pages)
        assert np.array_equal(batch_a.counts, batch_b.counts)


class TestHelpers:
    def test_scaled_pages(self):
        assert scaled_pages(512 * GiB, 1 / 512) == 1 * GiB // 4096

    def test_scaled_pages_rejects_bad_scale(self):
        with pytest.raises(WorkloadError):
            scaled_pages(1, 0)

    def test_balance_cold_rate_realizes_share(self):
        hot_accesses = 8000.0
        cold_pages = 100_000
        rate = balance_cold_rate(hot_accesses, cold_pages, hot_share=0.8)
        cold_accesses = rate * cold_pages
        assert hot_accesses / (hot_accesses + cold_accesses) == pytest.approx(0.8)

    def test_balance_cold_rate_validation(self):
        with pytest.raises(WorkloadError):
            balance_cold_rate(1.0, 10, hot_share=1.0)
        assert balance_cold_rate(1.0, 0) == 0.0

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -0.5])
    def test_segment_rejects_invalid_rate(self, rate):
        # A NaN rate must fail here: the sparse Poisson kernel would
        # otherwise have to be the one to notice it.
        with pytest.raises(WorkloadError):
            RateSegment(start=0, npages=8, rate=rate)
        assert RateSegment(start=0, npages=8, rate=0.0).rate == 0.0


class TestGups:
    def test_hot_share_is_80_percent(self):
        w = built("gups")
        rng = np.random.default_rng(2)
        batch = w.next_batch(rng)
        hot = set(w.hot_pages().tolist())
        mask = np.fromiter((p in hot for p in batch.pages), dtype=bool)
        share = batch.counts[mask].sum() / batch.total_accesses
        assert share == pytest.approx(0.8, abs=0.05)

    def test_write_ratio_one_to_one(self):
        w = built("gups")
        batch = w.next_batch(np.random.default_rng(2))
        assert batch.write_ratio() == pytest.approx(0.5, abs=0.05)

    def test_hot_window_drifts(self):
        w = built("gups", drift_every=2, drift_fraction=0.25)
        rng = np.random.default_rng(2)
        w.next_batch(rng)
        before = w.hot_window
        for _ in range(3):
            w.next_batch(rng)
        assert w.hot_window != before

    def test_hot_window_huge_aligned(self):
        w = built("gups")
        w.next_batch(np.random.default_rng(2))
        start, npages = w.hot_window
        assert start % PAGES_PER_HUGE_PAGE == 0

    def test_thread_scaling(self):
        w8 = built("gups", threads=8)
        w24 = built("gups", threads=24)
        b8 = w8.next_batch(np.random.default_rng(2))
        b24 = w24.next_batch(np.random.default_rng(2))
        assert b24.total_accesses > 2 * b8.total_accesses

    def test_remote_thread_attribution(self):
        w = built("gups", remote_thread_fraction=0.5)
        batch = w.next_batch(np.random.default_rng(2))
        assert set(np.unique(batch.sockets)) == {0, 1}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GupsConfig(hot_fraction=0.0)
        with pytest.raises(ConfigError):
            GupsConfig(drift_every=0)
        with pytest.raises(ConfigError):
            GupsConfig(remote_thread_fraction=1.5)

    def test_segments_before_build_rejected(self):
        w = GupsWorkload(GupsConfig(scale=SCALE))
        with pytest.raises(ConfigError):
            w.segments(0)


class TestVoltDb:
    def test_order_window_slides(self):
        w = built("voltdb")
        rng = np.random.default_rng(2)
        w.next_batch(rng)
        first_hot = set(w.hot_pages().tolist())
        for _ in range(10):
            w.next_batch(rng)
        later_hot = set(w.hot_pages().tolist())
        assert first_hot != later_hot

    def test_hot_share_near_80(self):
        w = built("voltdb")
        batch = w.next_batch(np.random.default_rng(2))
        hot = set(w.hot_pages().tolist())
        mask = np.fromiter((p in hot for p in batch.pages), dtype=bool)
        share = batch.counts[mask].sum() / batch.total_accesses
        assert share == pytest.approx(0.8, abs=0.08)


class TestCassandra:
    def test_fragments_reshuffle(self):
        w = built("cassandra", reshuffle_every=2)
        rng = np.random.default_rng(2)
        w.next_batch(rng)
        before = w._fragments.copy()
        for _ in range(3):
            w.next_batch(rng)
        assert not np.array_equal(before, w._fragments)

    def test_memtable_window_cycles(self):
        w = built("cassandra", flush_every=1)
        rng = np.random.default_rng(2)
        w.next_batch(rng)
        h1 = set(w.hot_pages().tolist())
        w.next_batch(rng)
        h2 = set(w.hot_pages().tolist())
        assert h1 != h2


class TestSpark:
    def test_phases_cycle(self):
        w = built("spark")
        lengths = w.config.phase_intervals
        assert w.phase_of(0)[0] == "scan"
        assert w.phase_of(lengths[0])[0] == "shuffle"
        assert w.phase_of(sum(lengths))[0] == "scan"  # wraps

    def test_shuffle_has_no_hot_set(self):
        w = built("spark")
        rng = np.random.default_rng(2)
        scan_len = w.config.phase_intervals[0]
        for _ in range(scan_len + 1):
            w.next_batch(rng)
        # In shuffle only the executor state is hot.
        hot = w.hot_pages()
        exec_vma = next(v for v in w.vmas() if v.name == "spark.exec")
        assert hot.min() >= exec_vma.start and hot.max() < exec_vma.end
