"""NumPy kernels of the kernel step's array program.

The CLF and per-layer burst scans run over ``[D, width]`` bool
matrices in exact integer arithmetic, so the array program stays
bit-for-bit equal to the pure-Python cohort loop.
"""

from __future__ import annotations

import numpy as np


def worst_runs(mat):
    """Longest run of True per row of a bool matrix (the CLF scan)."""
    if mat.shape[1] == 0:
        return np.zeros(mat.shape[0], dtype=np.int64)
    c = np.cumsum(mat, axis=1, dtype=np.int64)
    floor = np.maximum.accumulate(np.where(mat, 0, c), axis=1)
    return (c - floor).max(axis=1)
