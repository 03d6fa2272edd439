"""The simulator's hot-path kernels — the one implementation of each.

Eight kernels carry the per-interval inner loops: MMU scatter-reset and
ingest, the page table's node run-length encoding, span majority and
span entry resolution, per-node access accumulation (PCM counters and
the cost model), MTM's per-region score, and workload synthesis's
sparse per-page Poisson draw.  The package resolves one of two rungs at
first use:

``cc``
    A C shared object built once per cache directory with the system
    compiler and bound via ctypes (:mod:`repro.kernels._cc`), used when
    a C compiler is on ``PATH``.
``numpy``
    The pure-numpy reference implementations
    (:mod:`repro.kernels._fallback`) — always available, and the
    definition the C rung is tested against.

Set ``REPRO_KERNEL_BACKEND=cc|numpy`` to pin a rung (a pinned rung that
fails to load raises instead of falling through); set
``REPRO_KERNEL_CACHE`` to relocate the on-disk cache shared by pool
workers.  Both rungs are bit-identical: kernels perform only integer
arithmetic, data movement, and element-wise float math, so no float
reduction is ever reordered relative to numpy.  The one kernel that
draws randomness (:func:`poisson_sparse`) draws only through numpy's
own bit generator, in numpy's per-element order and with the
generator's lock held, and repeats numpy's float operations exactly —
so the generator ends in the same state on both rungs.

Build/bind time (C build + ctypes load) is accounted in
:func:`compile_seconds` so the engine can report the compile-vs-run
split in ``PerfStats``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from types import ModuleType

import numpy as np

__all__ = [
    "active_backend",
    "compile_seconds",
    "kernel_cache_dir",
    "mmu_ingest",
    "mmu_scatter_reset",
    "node_accumulate",
    "node_rle",
    "poisson_sparse",
    "score_detected",
    "span_entries",
    "span_majority",
    "warmup",
]

_CHOICES = ("cc", "numpy")

_impl: ModuleType | None = None
_backend: str | None = None
_compile_seconds = 0.0
_warmed = False


def kernel_cache_dir() -> Path:
    """Shared on-disk cache for compiled kernel artifacts.

    Deterministic across processes (override with ``REPRO_KERNEL_CACHE``)
    so every pool worker compiles at most once and the rest reuse the
    cached object code.
    """
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-kernels"


def _load(choice: str) -> ModuleType:
    global _compile_seconds
    start = time.perf_counter()
    if choice == "cc":
        from . import _cc as mod

        mod.load(kernel_cache_dir())
    else:
        from . import _fallback as mod
    _compile_seconds += time.perf_counter() - start
    return mod


def _resolve() -> ModuleType:
    global _impl, _backend
    if _impl is not None:
        return _impl
    forced = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
    if forced:
        if forced not in _CHOICES:
            raise ValueError(
                f"REPRO_KERNEL_BACKEND={forced!r} not in {_CHOICES}"
            )
        _impl = _load(forced)
        _backend = forced
        return _impl
    try:
        _impl = _load("cc")
        _backend = "cc"
    except Exception:  # noqa: BLE001 - no compiler: take the numpy rung
        _impl = _load("numpy")
        _backend = "numpy"
    return _impl


def active_backend() -> str:
    """The resolved kernel implementation: ``cc`` or ``numpy``."""
    _resolve()
    assert _backend is not None
    return _backend


def compile_seconds() -> float:
    """Cumulative time this process spent compiling/binding kernels."""
    return _compile_seconds


def warmup() -> float:
    """Resolve the rung and run every kernel once on tiny inputs.

    Moves the C build/load latency out of measured regions and — called
    before a pool fork — lets workers inherit the bound shared object.
    The elapsed time is added to :func:`compile_seconds`.  Idempotent
    after the first call.
    """
    global _compile_seconds, _warmed
    if _warmed:
        return 0.0
    impl = _resolve()
    start = time.perf_counter()
    one = np.array([0], dtype=np.int64)
    impl.mmu_scatter_reset(
        one.copy(),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int8),
    )
    impl.mmu_ingest(
        one.copy(),
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int8),
        one.copy(),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.full(1, -1, dtype=np.int8),
        np.zeros(1, dtype=np.uint16),
        np.zeros(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        1,
        2,
    )
    bounds, values = impl.node_rle(np.array([0, 0, 1], dtype=np.int16))
    impl.span_majority(one.copy(), np.array([2], dtype=np.int64), bounds, values)
    impl.span_entries(one.copy(), np.array([1], dtype=np.int64), np.arange(2))
    impl.node_accumulate(
        np.array([0], dtype=np.int16),
        np.ones(1, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        3,
    )
    impl.score_detected(np.array([1, 2], dtype=np.int64))
    impl.poisson_sparse(np.random.default_rng(0), 2, 0.5)
    elapsed = time.perf_counter() - start
    _compile_seconds += elapsed
    _warmed = True
    return elapsed


def mmu_scatter_reset(touched, entry_counts, entry_writes, entry_socket):
    return _resolve().mmu_scatter_reset(
        touched, entry_counts, entry_writes, entry_socket
    )


def mmu_ingest(
    entries,
    counts,
    writes,
    sockets,
    pages,
    entry_counts,
    entry_writes,
    entry_socket,
    flags,
    cumulative_counts,
    cumulative_writes,
    accessed_bit,
    dirty_bit,
):
    return _resolve().mmu_ingest(
        entries,
        counts,
        writes,
        sockets,
        pages,
        entry_counts,
        entry_writes,
        entry_socket,
        flags,
        cumulative_counts,
        cumulative_writes,
        accessed_bit,
        dirty_bit,
    )


def node_rle(node):
    return _resolve().node_rle(node)


def span_majority(starts, npages, bounds, values):
    return _resolve().span_majority(starts, npages, bounds, values)


def span_entries(starts, npages, entry):
    return _resolve().span_entries(starts, npages, entry)


def node_accumulate(nodes, counts, writes, n_slots):
    return _resolve().node_accumulate(nodes, counts, writes, n_slots)


def score_detected(detected):
    return _resolve().score_detected(detected)


def poisson_sparse(rng, n, lam):
    return _resolve().poisson_sparse(rng, n, lam)
