"""Process-wide knobs of the simulator's hot path.

Every hot spot has one implementation: a call into
:mod:`repro.kernels` (a C shared object where a compiler is present,
pure numpy otherwise — see :func:`repro.kernels.active_backend`).  What
is left here is:

* :func:`backend` — the name of that one path, which benchmark
  provenance records read;
* the page-table storage override, which lets tests run chunked storage
  on small address spaces (and dense storage on huge ones).  Storage
  layout is bit-identical either way.

The override is process-global, so workers forked by the parallel
matrix runner inherit it.
"""

from __future__ import annotations

from contextlib import contextmanager

_CHUNKED_OVERRIDE: bool | None = None


def backend() -> str:
    """The hot-path name; always ``"compiled"`` (the kernels)."""
    return "compiled"


def chunked_override() -> bool | None:
    """Process-wide page-table storage override.

    ``None`` (the default) lets each :class:`~repro.mm.pagetable.PageTable`
    auto-select dense vs chunked storage by footprint; ``True``/``False``
    forces one layout for every newly created table.
    """
    return _CHUNKED_OVERRIDE


def set_chunked_override(value: bool | None) -> None:
    """Force (True/False) or restore auto (None) page-table chunking."""
    global _CHUNKED_OVERRIDE
    _CHUNKED_OVERRIDE = None if value is None else bool(value)


@contextmanager
def chunked_mode(value: bool = True):
    """Run a block with page-table chunking forced on (or off)."""
    prev = _CHUNKED_OVERRIDE
    set_chunked_override(value)
    try:
        yield
    finally:
        set_chunked_override(prev)
