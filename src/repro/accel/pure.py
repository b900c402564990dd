"""Pure-Python reference implementations of the acceleration kernels.

This backend is always available and defines the semantics: every other
backend must return bit-for-bit identical results (same values, same
Python types).  The kernels are deliberately dependency-free — they
duplicate tiny pieces of :mod:`repro.core.evaluation` /
:mod:`repro.protocols.gf256` rather than import them, so the dispatch
layer never participates in an import cycle with its call sites.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import CodingError, PermutationError
from repro.protocols.gf256 import _EXP, _LOG

NAME = "pure"


def _max_run(values: Sequence[int]) -> int:
    """Longest run of consecutive integers in ``values``."""
    present = set(values)
    best = 0
    for value in present:
        if value - 1 in present:
            continue
        length = 1
        while value + length in present:
            length += 1
        if length > best:
            best = length
    return best


def burst_runs(order: Sequence[int], burst: int) -> List[int]:
    """Worst playback run lost by a burst at every start position.

    ``order`` is a permutation of ``0..n-1`` (slot -> frame); the burst is
    clamped to the window, and entry ``s`` of the result is the longest
    run of consecutive frames wiped by a burst of ``burst`` slots
    starting at slot ``s``.
    """
    n = len(order)
    if burst <= 0 or n == 0:
        return []
    b = min(burst, n)
    return [_max_run(order[start:start + b]) for start in range(n - b + 1)]


def batch_burst_runs(
    orders: Sequence[Sequence[int]], burst: int
) -> List[List[int]]:
    """:func:`burst_runs` for many same-length permutations at once."""
    return [burst_runs(order, burst) for order in orders]


def worst_clf(order: Sequence[int], burst: int) -> int:
    """Worst-case CLF of one permutation over all positions of one burst."""
    n = len(order)
    if burst <= 0 or n == 0:
        return 0
    if burst >= n:
        return n
    return max(burst_runs(order, burst))


def gf_matmul_bytes(
    matrix: Sequence[Sequence[int]], blocks: Sequence[bytes]
) -> List[bytes]:
    """``matrix @ blocks`` over GF(256), blocks as equal-length byte rows.

    ``matrix`` is ``m x k``; ``blocks`` holds ``k`` byte strings of equal
    length ``L``; the result holds ``m`` byte strings of length ``L``
    where output byte ``j`` of row ``i`` is
    ``xor_k gf_mul(matrix[i][k], blocks[k][j])``.
    """
    if len(matrix) and len(matrix[0]) != len(blocks):
        raise CodingError("matrix width must match the number of blocks")
    length = len(blocks[0]) if blocks else 0
    out: List[bytes] = []
    for row in matrix:
        if len(row) != len(blocks):
            raise CodingError("ragged matrix")
        acc = bytearray(length)
        for coefficient, block in zip(row, blocks):
            if len(block) != length:
                raise CodingError("all blocks must have equal length")
            if coefficient == 0:
                continue
            if coefficient == 1:
                for i, byte in enumerate(block):
                    acc[i] ^= byte
            else:
                log_c = _LOG[coefficient]
                for i, byte in enumerate(block):
                    if byte:
                        acc[i] ^= _EXP[log_c + _LOG[byte]]
        out.append(bytes(acc))
    return out


def batch_worst_clf(indicators: Sequence[Sequence[int]]) -> List[int]:
    """Longest run of truthy entries in each row of a 0/1 matrix.

    Row ``r`` of the result is the CLF of indicator row ``r`` — the same
    number :func:`repro.metrics.continuity.consecutive_loss` computes,
    evaluated for many replications at once.
    """
    out: List[int] = []
    for row in indicators:
        best = 0
        current = 0
        for value in row:
            if value:
                current += 1
                if current > best:
                    best = current
            else:
                current = 0
        out.append(best)
    return out


def loss_run_lengths(states: Sequence) -> List[int]:
    """Lengths of the maximal truthy runs in one indicator sequence."""
    runs: List[int] = []
    current = 0
    for value in states:
        if value:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


def gilbert_states(
    draws: Sequence[float],
    p_good: float,
    p_bad: float,
    start_bad: bool = False,
) -> List[bool]:
    """Gilbert-channel packet outcomes for a batch of uniform draws.

    ``draws[t]`` decides the transition at step ``t`` exactly as
    :meth:`repro.network.markov.GilbertModel.step` does; entry ``t`` of
    the result is True when packet ``t`` is lost (state after the
    transition is BAD).
    """
    bad = bool(start_bad)
    states: List[bool] = []
    for draw in draws:
        if bad:
            if draw >= p_bad:
                bad = False
        else:
            if draw >= p_good:
                bad = True
        states.append(bad)
    return states


def gilbert_states_batch(
    draws: Sequence[Sequence[float]],
    p_good: float,
    p_bad: float,
    start_bad: Sequence[bool],
) -> List[List[bool]]:
    """:func:`gilbert_states` for many independent replication rows.

    Row ``r`` of ``draws`` is one replication's private uniform-draw
    stream and ``start_bad[r]`` its channel state before the first draw;
    row ``r`` of the result holds that replication's per-packet loss
    flags.  Rows are independent Markov chains, so the reference simply
    scans them one by one.
    """
    return [
        gilbert_states(row, p_good, p_bad, bool(flag))
        for row, flag in zip(draws, start_bad)
    ]


def permute(order: Sequence[int], window: Sequence) -> list:
    """Scramble ``window`` into transmission order (``out[t] = window[order[t]]``)."""
    if len(window) != len(order):
        raise PermutationError(
            f"window of {len(window)} items does not match permutation of {len(order)}"
        )
    return [window[frame] for frame in order]


def unpermute(order: Sequence[int], transmitted: Sequence) -> list:
    """Invert :func:`permute` (``out[order[t]] = transmitted[t]``)."""
    if len(transmitted) != len(order):
        raise PermutationError(
            f"window of {len(transmitted)} items does not match permutation of {len(order)}"
        )
    restored: List[Optional[object]] = [None] * len(order)
    for slot, item in enumerate(transmitted):
        restored[order[slot]] = item
    return restored
