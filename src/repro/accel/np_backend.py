"""NumPy-vectorized acceleration kernels.

Importing this module requires NumPy; the dispatch layer only does so
on demand, keeping NumPy a soft dependency of the package.  Every
kernel returns plain Python values identical to those of
:mod:`repro.accel.pure` — the backends are interchangeable bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import CodingError, PermutationError
from repro.protocols.gf256 import _EXP, _LOG

NAME = "numpy"

#: GF(256) log/antilog tables as arrays (shared with the pure tables).
_EXP_T = np.array(_EXP, dtype=np.int16)
_LOG_T = np.array(_LOG, dtype=np.int16)


def _run_lengths(mask: "np.ndarray") -> "np.ndarray":
    """Length of the True-run ending at each position, along the last axis.

    Standard cumsum/cummax trick: with ``c`` the running count of True
    and ``floor`` the running count at the most recent False, the run
    ending at a True position is ``c - floor`` (and 0 at False
    positions, since there ``c == floor``).
    """
    c = np.cumsum(mask, axis=-1, dtype=np.int32)
    floor = np.maximum.accumulate(np.where(mask, 0, c), axis=-1)
    return c - floor


def batch_burst_runs(
    orders: Sequence[Sequence[int]], burst: int
) -> List[List[int]]:
    """Per-start worst playback runs for many same-length permutations.

    One array pass scores every burst position of every candidate: for
    each (candidate, start) pair a boolean membership row marks the
    frames inside the burst, and the longest True-run of that row is the
    CLF contribution of the burst.
    """
    if not len(orders):
        return []
    arr = np.asarray(orders, dtype=np.int32)
    if arr.ndim != 2:
        raise PermutationError("orders must be same-length sequences")
    count, n = arr.shape
    if burst <= 0 or n == 0:
        return [[] for _ in range(count)]
    b = min(burst, n)
    starts = n - b + 1
    windows = np.lib.stride_tricks.sliding_window_view(arr, b, axis=1)
    member = np.zeros((count, starts, n), dtype=bool)
    member[
        np.arange(count)[:, None, None],
        np.arange(starts)[None, :, None],
        windows,
    ] = True
    per_start = _run_lengths(member).max(axis=-1)
    return per_start.tolist()


def burst_runs(order: Sequence[int], burst: int) -> List[int]:
    """Single-permutation variant of :func:`batch_burst_runs`."""
    if len(order) == 0 or burst <= 0:
        return []
    return batch_burst_runs([order], burst)[0]


def _sorted_window_worst(arr: "np.ndarray", burst: int) -> int:
    """Exact worst run via sorted burst windows (no per-start profile).

    Each burst window is sorted; a run of consecutive frames is a
    stretch where adjacent sorted values differ by one, so run starts
    are marked and run lengths read off as gaps between starts.
    """
    sw = np.sort(np.lib.stride_tricks.sliding_window_view(arr, burst), axis=1)
    mask = np.empty(sw.shape, dtype=bool)
    mask[:, 0] = True
    np.not_equal(sw[:, 1:], sw[:, :-1] + 1, out=mask[:, 1:])
    starts = np.flatnonzero(mask.ravel())
    lengths = np.diff(starts, append=np.int64(sw.size))
    return int(lengths.max())


#: Linear gallop budget before :func:`worst_clf` switches to the exact
#: sorted-window evaluation (each gallop step is a handful of tiny 1-D
#: array ops; long runs are better served by the one-shot path).
_GALLOP_LIMIT = 8


def worst_clf(order: Sequence[int], burst: int) -> int:
    """Worst-case CLF of one permutation over all positions of one burst.

    Uses the antibandwidth duality: a burst of ``b`` slots can wipe
    ``c`` consecutive frames iff their ``c`` transmission slots span at
    most ``b - 1``.  Good permutations keep the answer tiny, so testing
    ``c = 2, 3, ...`` against sliding slot-span minima exits after a
    couple of cheap array passes; pathological orders fall back to the
    exact sorted-window scan.
    """
    n = len(order)
    if burst <= 0 or n == 0:
        return 0
    if burst >= n:
        return n
    arr = np.asarray(order, dtype=np.int32)
    slots = np.empty(n, dtype=np.int32)
    slots[arr] = np.arange(n, dtype=np.int32)
    # hi/lo[i] hold the slot max/min of the current group of consecutive
    # frames starting at i; growing the group by one frame just folds in
    # one shifted slice — no windowed reductions needed.
    hi = slots
    lo = slots
    worst = 1
    while worst < burst:
        group = worst + 1
        hi = np.maximum(hi[:-1], slots[group - 1:])
        lo = np.minimum(lo[:-1], slots[group - 1:])
        if not (hi - lo <= burst - 1).any():
            return worst
        worst = group
        if worst >= _GALLOP_LIMIT:
            return _sorted_window_worst(arr, burst)
    return worst


def gf_matmul_bytes(
    matrix: Sequence[Sequence[int]], blocks: Sequence[bytes]
) -> List[bytes]:
    """``matrix @ blocks`` over GF(256) via log/antilog table lookups."""
    if len(matrix) and len(matrix[0]) != len(blocks):
        raise CodingError("matrix width must match the number of blocks")
    if any(len(row) != len(blocks) for row in matrix):
        raise CodingError("ragged matrix")
    length = len(blocks[0]) if blocks else 0
    if any(len(block) != length for block in blocks):
        raise CodingError("all blocks must have equal length")
    if not len(matrix):
        return []
    if not blocks or length == 0:
        return [bytes(length) for _ in matrix]
    coeffs = np.asarray(matrix, dtype=np.int16)          # (m, k)
    data = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(
        len(blocks), length
    )                                                    # (k, L)
    # gf_mul(c, x) = EXP[LOG[c] + LOG[x]] for c, x != 0; both zero cases
    # must yield 0, which masking handles.
    log_data = _LOG_T[data]                              # (k, L)
    out = np.zeros((coeffs.shape[0], length), dtype=np.uint8)
    nonzero_data = data != 0
    for i in range(coeffs.shape[0]):
        acc = np.zeros(length, dtype=np.uint8)
        for k in range(coeffs.shape[1]):
            c = int(coeffs[i, k])
            if c == 0:
                continue
            product = _EXP_T[_LOG_T[c] + log_data[k]].astype(np.uint8)
            acc ^= np.where(nonzero_data[k], product, 0).astype(np.uint8)
        out[i] = acc
    return [row.tobytes() for row in out]


#: Minimum total element count before the stacked batch kernels beat the
#: pure scalar scans: below this, converting Python lists into arrays
#: costs more than the vectorized pass saves (measured on the figure8
#: replication sweep), so small batches delegate to the pure backend.
_SMALL_BATCH = 4096


def batch_worst_clf(indicators: Sequence[Sequence[int]]) -> List[int]:
    """Longest truthy run per row of a 0/1 matrix, in one array pass.

    Rows must have equal length (the batch engine always produces
    rectangular indicator matrices); ragged input falls back to the pure
    row-by-row scan, as do small matrices (see ``_SMALL_BATCH``).
    """
    if not len(indicators):
        return []
    if len(indicators) * len(indicators[0]) < _SMALL_BATCH:
        from repro.accel import pure

        return pure.batch_worst_clf(indicators)
    try:
        arr = np.asarray(indicators, dtype=bool)
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 2:
        from repro.accel import pure

        return pure.batch_worst_clf(indicators)
    if arr.shape[1] == 0:
        return [0] * arr.shape[0]
    return _run_lengths(arr).max(axis=-1).tolist()


def loss_run_lengths(states: Sequence) -> List[int]:
    """Lengths of the maximal truthy runs in one indicator sequence.

    Run boundaries are the +1/-1 edges of the zero-padded indicator, so
    the lengths fall out of two ``flatnonzero`` calls.
    """
    arr = np.asarray(states, dtype=bool)
    if arr.size == 0:
        return []
    padded = np.zeros(arr.size + 2, dtype=np.int8)
    padded[1:-1] = arr
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return (ends - starts).tolist()


def gilbert_states(
    draws: Sequence[float],
    p_good: float,
    p_bad: float,
    start_bad: bool = False,
) -> List[bool]:
    """Vectorized scan of the two-state Gilbert recurrence.

    With ``A_t = draw_t >= p_good`` (BAD next if currently GOOD),
    ``B_t = draw_t < p_bad`` (BAD next if currently BAD) the state obeys
    ``s_t = A_t XOR (s_{t-1} AND (A_t XOR B_t))`` over GF(2).  Unrolling,
    the term for ``A_j`` survives only while ``C_i = A_i XOR B_i`` stays
    1 after ``j``, so with ``Z(t)`` the last index ``<= t`` where
    ``C == 0``:  ``s_t = P_t XOR P_{Z(t)-1}`` (prefix-XOR ``P`` of ``A``),
    and ``s_t = P_t XOR s_{-1}`` when no such index exists.

    The array scan only pays off when the draws already live in an
    ndarray: converting a list of Python floats costs more than the pure
    scalar scan saves (measured at every batch size), so list inputs —
    what :class:`repro.network.markov.GilbertModel` produces — delegate
    to the pure kernel.
    """
    if not isinstance(draws, np.ndarray):
        from repro.accel import pure

        return pure.gilbert_states(draws, p_good, p_bad, start_bad)
    d = np.asarray(draws, dtype=np.float64)
    if d.size == 0:
        return []
    a = d >= p_good
    b = d < p_bad
    c = a ^ b
    index = np.arange(d.size)
    last_zero = np.maximum.accumulate(np.where(~c, index, -1))
    prefix = np.logical_xor.accumulate(a)
    # prefix[last_zero - 1], with P_{-1} = 0 and the initial state
    # substituted where the C-product never broke.
    before = np.where(
        last_zero > 0, prefix[np.maximum(last_zero - 1, 0)], False
    )
    before = np.where(last_zero == 0, False, before)
    before = np.where(last_zero < 0, bool(start_bad), before)
    states = prefix ^ before
    return states.tolist()


def gilbert_states_batch(
    draws: Sequence[Sequence[float]],
    p_good: float,
    p_bad: float,
    start_bad: Sequence[bool],
) -> List[List[bool]]:
    """Vectorized Gilbert scan over many independent replication rows.

    The same prefix-XOR unrolling as :func:`gilbert_states`, with every
    accumulation running along the last axis of an (R x packets) draw
    matrix — one array pass resolves all R replications.  Unlike the
    single-row kernel this one converts list input: the conversion cost
    amortizes over the batch, which is the whole point of drawing
    replications together.  Ragged rows fall back to the pure scan, as
    do small batches (see ``_SMALL_BATCH``).
    """
    if not len(draws) or len(draws) * len(draws[0]) < _SMALL_BATCH:
        from repro.accel import pure

        return pure.gilbert_states_batch(draws, p_good, p_bad, start_bad)
    try:
        d = np.asarray(draws, dtype=np.float64)
    except ValueError:
        d = None
    if d is None or d.ndim != 2:
        from repro.accel import pure

        return pure.gilbert_states_batch(draws, p_good, p_bad, start_bad)
    rows, n = d.shape
    if n == 0:
        return [[] for _ in range(rows)]
    a = d >= p_good
    b = d < p_bad
    c = a ^ b
    index = np.arange(n)
    last_zero = np.maximum.accumulate(
        np.where(~c, index[None, :], -1), axis=1
    )
    prefix = np.logical_xor.accumulate(a, axis=1)
    gathered = np.take_along_axis(
        prefix, np.maximum(last_zero - 1, 0), axis=1
    )
    start = np.fromiter(
        (bool(flag) for flag in start_bad), dtype=bool, count=rows
    )[:, None]
    before = np.where(
        last_zero > 0, gathered, np.where(last_zero < 0, start, False)
    )
    states = prefix ^ before
    return [row.tolist() for row in states]


def _fast_array(window: Sequence) -> "np.ndarray | None":
    """``window`` when it is a 1-D non-object ndarray, else None.

    Only actual arrays take the vectorized path: converting arbitrary
    lists could silently coerce element types (e.g. a mixed int/float
    window), breaking parity with the pure backend.
    """
    if (
        isinstance(window, np.ndarray)
        and window.ndim == 1
        and window.dtype != object
    ):
        return window
    return None


def permute(order: Sequence[int], window: Sequence) -> list:
    if len(window) != len(order):
        raise PermutationError(
            f"window of {len(window)} items does not match permutation of {len(order)}"
        )
    arr = _fast_array(window)
    if arr is None:
        return [window[frame] for frame in order]
    return arr[np.asarray(order, dtype=np.intp)].tolist()


def unpermute(order: Sequence[int], transmitted: Sequence) -> list:
    if len(transmitted) != len(order):
        raise PermutationError(
            f"window of {len(transmitted)} items does not match permutation of {len(order)}"
        )
    arr = _fast_array(transmitted)
    if arr is None:
        restored: List[object] = [None] * len(order)
        for slot, item in enumerate(transmitted):
            restored[order[slot]] = item
        return restored
    out = np.empty_like(arr)
    out[np.asarray(order, dtype=np.intp)] = arr
    return out.tolist()
