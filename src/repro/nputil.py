"""Drop-in ``np.unique`` variants tuned for the simulator's hot loops.

``np.unique`` on integer arrays goes through a hash table in recent
NumPy, which profiles as the single largest non-RNG cost in the
simulator's inner loops.  Sorting followed by a first-occurrence mask
produces the exact same output (ascending unique values) in a fraction
of the time for the array sizes the simulator handles, and degenerates
to a single vectorized comparison when the input is already sorted.

Each helper is *output-identical* to its ``np.unique`` spelling;
``tests/test_perf_opt.py`` checks both against ``np.unique`` on random
inputs.
"""

from __future__ import annotations

import numpy as np


def unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for 1-D arrays, via sort + first-occurrence mask."""
    a = np.sort(np.asarray(a).ravel())
    if a.size <= 1:
        return a
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def unique_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, return_inverse=True)`` via a stable argsort."""
    a = np.asarray(a).ravel()
    if a.size == 0:
        return a.copy(), np.empty(0, dtype=np.intp)
    order = np.argsort(a, kind="stable")
    sa = a[order]
    keep = np.empty(sa.size, dtype=bool)
    keep[0] = True
    np.not_equal(sa[1:], sa[:-1], out=keep[1:])
    inverse = np.empty(sa.size, dtype=np.intp)
    inverse[order] = np.cumsum(keep) - 1
    return sa[keep], inverse
