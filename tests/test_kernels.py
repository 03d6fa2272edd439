"""Differential suite for the kernels and chunked page-table storage.

Three invariants are enforced:

* **corpus identity** — whichever rung the dispatcher resolved (the C
  shared object, or the numpy reference where no compiler exists)
  reproduces the golden fingerprint corpus (``tests/test_golden.py``)
  under fault injection, through snapshot fork/resume, and at any
  worker count;
* **storage bit-identity** — chunked page tables (including multi-chunk
  layouts far below the auto threshold) are indistinguishable from the
  dense arrays above the :class:`~repro.mm.pagetable.PageTable` API;
* **kernel identity** — randomized differentials pin every
  :mod:`repro.kernels` entry point to its pure-numpy reference
  (:mod:`repro.kernels._fallback`) on adversarial inputs.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import kernels, perfflags
from repro.bench.runner import run_matrix, run_solution
from repro.bench.scaling import BenchProfile
from repro.kernels import _fallback
from repro.mm.chunked import ChunkedArray
from repro.mm.pagetable import PageTable
from repro.sim.engine import SimulationEngine
from tests.support import fingerprint, load_golden, matrix_fingerprint, normalize
from tests.test_golden import (
    FAULT_RATE,
    FAULT_SEED,
    INTERVALS,
    SCALE,
    SEED,
    engine,
    golden_key,
    run_fingerprint,
    small_chunks,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _golden(solution, workload, fault_rate=0.0):
    return load_golden()[golden_key(solution, workload, SEED, fault_rate)]


def _subprocess(code, backend):
    """Run ``code`` in a fresh interpreter pinned to one kernel rung (the
    dispatcher caches its resolution per process)."""
    env = dict(os.environ,
               REPRO_KERNEL_BACKEND=backend,
               PYTHONPATH=os.pathsep.join(
                   [SRC_DIR, os.path.dirname(os.path.dirname(__file__))]
               ))
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)


class TestBackendLadder:
    """The two rungs: ``cc`` where a compiler exists, else ``numpy``."""

    def test_unknown_backend_rejected(self):
        # The Numba rung is gone: pinning it must fail loudly, not fall
        # through to another rung.
        proc = _subprocess("import repro.kernels as k; k.active_backend()",
                           "numba")
        assert proc.returncode != 0
        assert "REPRO_KERNEL_BACKEND='numba' not in ('cc', 'numpy')" in proc.stderr

    def test_warmup_is_idempotent_and_accounted(self):
        first = kernels.warmup()
        assert first >= 0.0
        assert kernels.warmup() == 0.0  # second call is a no-op
        assert kernels.compile_seconds() >= first
        assert kernels.active_backend() in ("cc", "numpy")
        assert perfflags.backend() == "compiled"


class TestCompiledBitIdentity:
    #: The corpus configuration, as a bench profile for the runner paths.
    PROFILE = BenchProfile(name="golden", scale=SCALE,
                           intervals={"gups": INTERVALS}, seed=SEED)

    def test_compiled_under_fault_injection(self):
        # Through the bench runner's own fault-injector plumbing.
        result = run_solution("mtm", "gups", self.PROFILE,
                              fault_rate=FAULT_RATE, fault_seed=FAULT_SEED)
        assert normalize(fingerprint(result)) == _golden("mtm", "gups", FAULT_RATE)

    def test_compiled_snapshot_fork_resume(self):
        warm = engine("mtm", "gups", fault_rate=FAULT_RATE)
        for _ in range(INTERVALS // 2):
            warm.step()
        forked = SimulationEngine.fork(warm.snapshot())
        resumed = forked.run(INTERVALS - INTERVALS // 2)
        assert normalize(fingerprint(resumed)) == _golden("mtm", "gups", FAULT_RATE)

    def test_compiled_matrix_any_worker_count(self):
        workloads, solutions = ["gups"], ["first-touch", "mtm"]
        serial = matrix_fingerprint(
            run_matrix(workloads, solutions, self.PROFILE, workers=1))
        parallel = matrix_fingerprint(
            run_matrix(workloads, solutions, self.PROFILE, workers=2))
        assert serial == parallel
        assert normalize(serial) == {
            "gups": {sol: _golden(sol, "gups") for sol in solutions}}

    def test_compile_seconds_recorded_not_simulated(self):
        result = run_solution("mtm", "gups", self.PROFILE)
        assert result.perf is not None
        assert result.perf.compile_seconds >= 0.0
        assert "compile_seconds" in result.perf.as_dict()


class TestForcedNumpyRung:
    """``REPRO_KERNEL_BACKEND=numpy`` must pin the dispatcher to the
    reference implementations and still reproduce the corpus."""

    def test_numpy_rung_resolves(self):
        proc = _subprocess(
            "import repro.kernels as k; print(k.active_backend())", "numpy")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == "numpy"

    def test_numpy_rung_fingerprint_identical(self):
        code = """
import json
from tests.support import normalize
from tests.test_golden import run_fingerprint
print(json.dumps(normalize(run_fingerprint("mtm", "gups"))))
"""
        proc = _subprocess(code, "numpy")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == _golden("mtm", "gups")

    def test_unknown_rung_rejected(self):
        proc = _subprocess(
            "import repro.kernels as k; k.active_backend()", "fortran")
        assert proc.returncode != 0
        assert "fortran" in proc.stderr


class TestKernelDifferentials:
    """Randomized pin of the active rung against the numpy reference."""

    def test_mmu_scatter_reset(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 2000))
            touched = np.unique(rng.integers(0, n, size=rng.integers(1, n + 1)))
            state = [
                (rng.integers(0, 99, n), rng.integers(0, 99, n),
                 rng.integers(-1, 2, n).astype(np.int8))
                for _ in range(2)
            ]
            state[1] = tuple(a.copy() for a in state[0])
            kernels.mmu_scatter_reset(touched, *state[0])
            _fallback.mmu_scatter_reset(touched, *state[1])
            for got, want in zip(state[0], state[1]):
                np.testing.assert_array_equal(got, want)

    def _ingest_state(self, rng, n):
        return (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                np.full(n, -1, dtype=np.int8), np.zeros(n, dtype=np.uint16),
                np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    def test_mmu_ingest_with_huge_duplicates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(600, 3000))
            batch = int(rng.integers(1, 500))
            pages = np.sort(rng.choice(n, size=batch, replace=False))
            # Huge mappings collapse runs of pages onto one entry.
            entries = (pages - pages % 512
                       if rng.integers(0, 2) else pages.copy())
            counts = rng.integers(1, 50, batch).astype(np.int64)
            writes = rng.integers(0, 5, batch).astype(np.int64)
            sockets = rng.integers(0, 2, batch).astype(np.int8)
            got = self._ingest_state(rng, n)
            want = self._ingest_state(rng, n)
            kernels.mmu_ingest(entries, counts, writes, sockets, pages,
                               *got, 32, 64)
            _fallback.mmu_ingest(entries, counts, writes, sockets, pages,
                                 *want, 32, 64)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_node_rle(self):
        rng = np.random.default_rng(2)
        cases = [np.zeros(1, dtype=np.int16),
                 np.arange(300, dtype=np.int16) % 2 - 1,  # alternating
                 np.full(5000, 3, dtype=np.int16)]        # single run
        for _ in range(20):
            n = int(rng.integers(1, 5000))
            runs = rng.integers(-1, 4, 40).astype(np.int16)
            node = np.repeat(runs, rng.integers(1, 300, size=runs.size))[:n]
            if node.size == 0:
                continue
            cases.append(node)
        for node in cases:
            gb, gv = kernels.node_rle(node)
            wb, wv = _fallback.node_rle(node)
            np.testing.assert_array_equal(gb, wb)
            np.testing.assert_array_equal(gv, wv)

    def test_node_rle_capacity_retry(self):
        # More runs than the C wrapper's first-pass capacity.
        node = (np.arange(10_000, dtype=np.int16) % 5) - 1
        gb, gv = kernels.node_rle(node)
        wb, wv = _fallback.node_rle(node)
        np.testing.assert_array_equal(gb, wb)
        np.testing.assert_array_equal(gv, wv)

    def test_span_majority_including_ties_and_unmapped(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = int(rng.integers(1000, 8000))
            node = np.repeat(rng.integers(-1, 4, 30).astype(np.int16),
                             rng.integers(1, 500, size=30))[:n]
            if node.size < n:
                node = np.concatenate(
                    [node, np.full(n - node.size, -1, np.int16)])
            if trial == 0:
                node[:] = -1  # fully unmapped: every span must be -1
            bounds, values = _fallback.node_rle(node)
            nspans = int(rng.integers(1, 40))
            starts = rng.integers(0, n - 1, nspans).astype(np.int64)
            npages = rng.integers(
                1, np.maximum(2, n - starts), nspans).astype(np.int64)
            got = kernels.span_majority(starts, npages, bounds, values)
            want = _fallback.span_majority(starts, npages, bounds, values)
            np.testing.assert_array_equal(got, want)

    def test_span_entries(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1024, 8192))
            entry = np.arange(n, dtype=np.int64)
            for head in rng.integers(0, n // 512, size=3) * 512:
                entry[head:head + 512] = head  # huge-collapsed runs
            nspans = int(rng.integers(1, 30))
            starts = rng.integers(0, n - 1, nspans).astype(np.int64)
            npages = rng.integers(
                1, np.maximum(2, n - starts), nspans).astype(np.int64)
            ge, go = kernels.span_entries(starts, npages, entry)
            we, wo = _fallback.span_entries(starts, npages, entry)
            np.testing.assert_array_equal(ge, we)
            np.testing.assert_array_equal(go, wo)

    def test_node_accumulate_small_and_wide_slot_counts(self):
        rng = np.random.default_rng(5)
        for n_slots in (2, 6, 70):  # 70 exercises the C fallback branch
            for _ in range(10):
                n = int(rng.integers(1, 3000))
                nodes = rng.integers(-1, n_slots - 1, n).astype(np.int16)
                counts = rng.integers(0, 100, n).astype(np.int64)
                writes = rng.integers(0, 10, n).astype(np.int64)
                ga, gw = kernels.node_accumulate(nodes, counts, writes, n_slots)
                wa, ww = _fallback.node_accumulate(nodes, counts, writes, n_slots)
                np.testing.assert_array_equal(ga, wa)
                np.testing.assert_array_equal(gw, ww)

    def test_score_detected_first_max_tiebreak(self):
        rng = np.random.default_rng(6)
        cases = [np.array([7], dtype=np.int64),
                 np.full(100, 3, dtype=np.int64),
                 np.array([1, 9, 9, 9, 2], dtype=np.int64)]
        cases += [rng.integers(0, 20, int(rng.integers(1, 2000))).astype(np.int64)
                  for _ in range(20)]
        for detected in cases:
            assert kernels.score_detected(detected) == \
                _fallback.score_detected(detected)


class TestKernelInputChecks:
    """Out-of-range input is rejected before any kernel sees a pointer."""

    @pytest.mark.parametrize("chunked", [False, True])
    def test_spans_outside_space_rejected(self, chunked):
        from repro.errors import ConfigError

        pt = PageTable(2048, chunked=chunked, chunk_pages=512)
        pt.map_range(0, 2048, node=0)
        for starts, npages in (([-1], [4]), ([2040], [16]), ([0], [-3])):
            with pytest.raises(ConfigError):
                pt.span_entries(np.array(starts, dtype=np.int64),
                                np.array(npages, dtype=np.int64))

    def test_empty_score_rejected(self):
        with pytest.raises(ValueError):
            kernels.score_detected(np.empty(0, dtype=np.int64))

    def test_node_ids_beyond_slots_rejected(self):
        if kernels.active_backend() != "cc":
            pytest.skip("the numpy rung grows its histogram instead")
        nodes = np.array([0, 5], dtype=np.int16)
        ones = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError):
            kernels.node_accumulate(nodes, ones, ones, 3)


class TestChunkedArray:
    """ChunkedArray must behave exactly like the dense array it mirrors
    (checked against a plain ndarray shadow through a random op tape)."""

    CHUNK = 512

    def _pair(self, n, fill=0, dtype=np.int64):
        return (ChunkedArray(n, dtype, fill, self.CHUNK),
                np.full(n, fill, dtype=dtype))

    def test_random_op_tape_matches_dense(self):
        rng = np.random.default_rng(7)
        n = 4000  # spans 8 chunks of 512
        chunked, dense = self._pair(n, fill=-1, dtype=np.int16)
        for _ in range(300):
            op = rng.integers(0, 6)
            if op == 0:  # slice scalar store
                a, b = sorted(rng.integers(0, n, 2))
                v = int(rng.integers(-1, 4))
                chunked[a:b] = v
                dense[a:b] = v
            elif op == 1:  # fancy scalar store
                idx = rng.integers(0, n, rng.integers(1, 64))
                v = int(rng.integers(-1, 4))
                chunked[idx] = v
                dense[idx] = v
            elif op == 2:  # fancy array store (duplicate last-write-wins)
                idx = rng.integers(0, n, rng.integers(1, 64))
                vals = rng.integers(-1, 4, idx.size).astype(np.int16)
                chunked[idx] = vals
                dense[idx] = vals
            elif op == 3:  # slice array store
                a, b = sorted(rng.integers(0, n, 2))
                vals = rng.integers(-1, 4, b - a).astype(np.int16)
                chunked[a:b] = vals
                dense[a:b] = vals
            elif op == 4:  # int store
                i = int(rng.integers(0, n))
                v = int(rng.integers(-1, 4))
                chunked[i] = v
                dense[i] = v
            else:  # gather reads
                idx = rng.integers(0, n, rng.integers(1, 64))
                np.testing.assert_array_equal(chunked[idx], dense[idx])
                a, b = sorted(rng.integers(0, n, 2))
                np.testing.assert_array_equal(chunked[a:b], dense[a:b])
        np.testing.assert_array_equal(np.asarray(chunked), dense)

    def test_add_at_matches_dense(self):
        rng = np.random.default_rng(8)
        chunked, dense = self._pair(3000)
        for _ in range(30):
            idx = rng.integers(0, 3000, rng.integers(1, 200))
            vals = rng.integers(1, 9, idx.size).astype(np.int64)
            chunked.add_at(idx, vals)
            np.add.at(dense, idx, vals)
        np.testing.assert_array_equal(np.asarray(chunked), dense)

    def test_uniform_chunks_stay_scalar(self):
        chunked, _ = self._pair(4 * self.CHUNK, fill=0)
        assert chunked.dense_chunks() == 0
        chunked[10] = 5                      # densifies one chunk
        assert chunked.dense_chunks() == 1
        chunked[0:self.CHUNK] = 0            # whole-chunk store re-collapses
        assert chunked.dense_chunks() == 0
        assert chunked.storage_nbytes() < 4 * self.CHUNK * 8

    def test_eq_and_counts(self):
        chunked, dense = self._pair(2048, fill=-1, dtype=np.int16)
        chunked[100:700] = 2
        dense[100:700] = 2
        np.testing.assert_array_equal(chunked == 2, dense == 2)
        np.testing.assert_array_equal(chunked != -1, dense != -1)
        assert chunked.count_equal(2) == int((dense == 2).sum())
        mask = 0x4
        chunked[900] = mask
        dense[900] = mask
        assert (chunked.count_nonzero_and(mask)
                == int((dense & mask != 0).sum()))

    def test_bool_mask_read(self):
        chunked, dense = self._pair(1500)
        chunked[200:400] = 7
        dense[200:400] = 7
        np.testing.assert_array_equal(chunked[dense == 7], dense[dense == 7])


class TestChunkedPageTable:
    """Multi-chunk tables (chunk_pages=512, far below the auto
    threshold) must be indistinguishable from dense storage."""

    N = 16 * 512  # 16 chunks

    def _tables(self):
        return (PageTable(self.N, chunked=True, chunk_pages=512),
                PageTable(self.N, chunked=False))

    def _assert_same(self, chunked, dense):
        np.testing.assert_array_equal(np.asarray(chunked.flags), dense.flags)
        np.testing.assert_array_equal(np.asarray(chunked.node), dense.node)
        pages = np.arange(self.N, dtype=np.int64)
        np.testing.assert_array_equal(chunked.entry_index(pages),
                                      dense.entry_index(pages))

    def test_mirrored_mutation_sequence(self):
        chunked, dense = self._tables()
        rng = np.random.default_rng(9)
        for pt in (chunked, dense):
            pt.map_range(0, 2048, node=0, huge=True)
            pt.map_range(2048, 1000, node=1)
            pt.map_range(5000, 1536, node=2, huge=False)
            pt.unmap_range(2300, 200)
            pt.split_huge(512)
            pt.collapse_huge(1024)
            pt.move_pages(np.arange(5000, 5100, dtype=np.int64), 0)
        self._assert_same(chunked, dense)
        assert chunked.mapped_pages() == dense.mapped_pages()
        assert chunked.huge_mapped_pages() == dense.huge_mapped_pages()
        for node in (0, 1, 2):
            assert chunked.pages_on_node(node) == dense.pages_on_node(node)
        starts = rng.integers(0, self.N - 600, 20).astype(np.int64)
        npages = rng.integers(1, 600, 20).astype(np.int64)
        np.testing.assert_array_equal(
            chunked.span_majority_nodes(starts, npages),
            dense.span_majority_nodes(starts, npages))
        ce, co = chunked.span_entries(starts, npages)
        de, do = dense.span_entries(starts, npages)
        np.testing.assert_array_equal(ce, de)
        np.testing.assert_array_equal(co, do)

    def test_chunked_storage_is_sparse(self):
        chunked, dense = self._tables()
        chunked.map_range(0, 512, node=0)
        dense.map_range(0, 512, node=0)
        assert chunked.storage_nbytes() < dense.storage_nbytes()

    def test_chunk_pages_must_align_to_huge_pages(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            PageTable(2048, chunked=True, chunk_pages=100)

    def test_chunked_simulation_fingerprints(self):
        dense = run_fingerprint("mtm", "gups")
        with perfflags.chunked_mode(True):
            chunked = run_fingerprint("mtm", "gups")
        assert chunked == dense
        assert normalize(dense) == _golden("mtm", "gups")

    def test_chunked_multi_chunk_simulation(self):
        # Chunks far smaller than the footprint, so the run crosses many
        # chunk boundaries.
        with small_chunks():
            chunked = run_fingerprint("first-touch", "gups")
        assert normalize(chunked) == _golden("first-touch", "gups")
