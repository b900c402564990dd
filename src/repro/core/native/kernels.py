"""NumPy kernels of the kernel step's array program.

Each kernel executes, elementwise over float64/int64 arrays, exactly
the IEEE-754 double operations of the scalar Python expression it
replaces (``a*x + b*y`` over float64 arrays is the same sequence of
rounded operations as the Python scalar expression), so the array
program stays bit-for-bit equal to the pure-Python cohort loop.

Equation-1 controller state is an ``[R, 4L]`` float64 matrix (present /
window / estimate / observations per layer, ``base = 4 * column``);
CLF and burst scans run over ``[D, width]`` bool matrices.
"""

from __future__ import annotations

import numpy as np


def ewma_fold(M, base, size, clamped, alpha) -> None:
    """Equation-1 fold of one (layer, observed-burst) pair into every row.

    Rows whose estimator is missing or sized for a different window are
    replaced first (fresh estimate ``size / 2``), mirroring
    ``AdaptiveController.observe`` exactly.
    """
    s = float(size)
    ac = alpha * float(clamped)
    a1 = 1.0 - alpha
    ok = (M[:, base] == 1.0) & (M[:, base + 1] == s)
    M[:, base + 2] = np.where(ok, ac + a1 * M[:, base + 2], ac + a1 * (s / 2.0))
    M[:, base + 3] = np.where(ok, M[:, base + 3] + 1.0, 1.0)
    M[:, base] = 1.0
    M[:, base + 1] = s


def burst_bounds(M, base, size, default):
    """Per-row burst bound of one layer; creates missing estimators.

    Mirrors ``AdaptiveController.burst_bound``: missing (or re-sized)
    estimators are replaced in ``M`` with the fresh ``size / 2``
    estimate — whose bound is ``default`` — and the bound is
    ``max(1, min(size, ceil(estimate)))``.  Returns an int64 vector.
    """
    s = float(size)
    present = M[:, base]
    window = M[:, base + 1]
    ok = (present == 1.0) & (window == s)
    b = np.minimum(np.ceil(M[:, base + 2]), s)
    np.maximum(b, 1.0, out=b)
    out = np.where(ok, b.astype(np.int64), default)
    miss = ~ok
    if miss.any():
        present[miss] = 1.0
        window[miss] = s
        M[miss, base + 2] = s / 2.0
        M[miss, base + 3] = 0.0
    return out


def worst_runs(mat):
    """Longest run of True per row of a bool matrix (the CLF scan)."""
    if mat.shape[1] == 0:
        return np.zeros(mat.shape[0], dtype=np.int64)
    c = np.cumsum(mat, axis=1, dtype=np.int64)
    floor = np.maximum.accumulate(np.where(mat, 0, c), axis=1)
    return (c - floor).max(axis=1)
