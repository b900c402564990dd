"""Optional vectorized acceleration backend with pure-Python fallback.

The library's hot loops — worst-case-CLF candidate scoring, GF(256)
Reed–Solomon coding, Gilbert loss sampling and window scrambling — are
implemented twice: a dependency-free reference in
:mod:`repro.accel.pure` and a NumPy-vectorized variant in
:mod:`repro.accel.np_backend`.  Both return bit-for-bit identical
results; the fast one is used automatically when NumPy is importable.

Selection
---------
* environment: ``REPRO_BACKEND=pure`` / ``numpy`` / ``auto`` (default),
  read the first time a kernel is dispatched;
* runtime: :func:`set_backend`.

NumPy stays a *soft* dependency: nothing under ``src/`` imports it at
module load, and ``auto`` silently falls back to the pure backend when
the import fails.
"""

from __future__ import annotations

import os
from typing import List, Sequence

from repro import obs
from repro.errors import ConfigurationError

__all__ = [
    "AUTO",
    "NUMPY",
    "PURE",
    "available_backends",
    "backend_name",
    "batch_burst_runs",
    "batch_worst_clf",
    "burst_runs",
    "gf_matmul_bytes",
    "gilbert_states",
    "gilbert_states_batch",
    "loss_run_lengths",
    "numpy_available",
    "permute",
    "set_backend",
    "unpermute",
    "worst_clf",
]

PURE = "pure"
NUMPY = "numpy"
AUTO = "auto"

_ENV_VAR = "REPRO_BACKEND"

#: The active backend module; resolved lazily on first dispatch.
_active = None


def _load(name: str):
    if name == PURE:
        from repro.accel import pure

        return pure
    if name == NUMPY:
        try:
            from repro.accel import np_backend
        except ImportError as exc:
            raise ConfigurationError(
                f"the {NUMPY!r} backend needs NumPy, which is not importable: {exc}"
            ) from None
        return np_backend
    if name == AUTO:
        try:
            return _load(NUMPY)
        except ConfigurationError:
            return _load(PURE)
    raise ConfigurationError(
        f"unknown backend {name!r}; choose from {available_backends()} or {AUTO!r}"
    )


def _backend():
    global _active
    if _active is None:
        _active = _load(os.environ.get(_ENV_VAR, AUTO) or AUTO)
        obs.set_info("accel.backend", _active.NAME)
    return _active


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the name actually activated.

    ``"auto"`` prefers NumPy and falls back to pure; asking for
    ``"numpy"`` without NumPy installed raises
    :class:`~repro.errors.ConfigurationError`.
    """
    global _active
    _active = _load(name)
    obs.set_info("accel.backend", _active.NAME)
    return _active.NAME


def backend_name() -> str:
    """Name of the backend kernels currently dispatch to."""
    return _backend().NAME


def numpy_available() -> bool:
    """True when the NumPy backend can be activated."""
    try:
        _load(NUMPY)
    except ConfigurationError:
        return False
    return True


def available_backends() -> List[str]:
    """Backends that can be activated on this interpreter."""
    names = [PURE]
    if numpy_available():
        names.append(NUMPY)
    return names


# ----------------------------------------------------------------------
# Dispatched kernels — signatures documented in repro.accel.pure.
# ----------------------------------------------------------------------


def burst_runs(order: Sequence[int], burst: int) -> List[int]:
    """Worst lost playback run for every position of one burst."""
    if obs.enabled():
        obs.counter("accel.calls.burst_runs").inc()
    return _backend().burst_runs(order, burst)


def batch_burst_runs(
    orders: Sequence[Sequence[int]], burst: int
) -> List[List[int]]:
    """:func:`burst_runs` over many same-length candidate permutations."""
    if obs.enabled():
        obs.counter("accel.calls.batch_burst_runs").inc()
        obs.counter("accel.batch_orders").inc(len(orders))
    return _backend().batch_burst_runs(orders, burst)


def worst_clf(order: Sequence[int], burst: int) -> int:
    """Worst-case CLF of one permutation over all positions of one burst."""
    if obs.enabled():
        obs.counter("accel.calls.worst_clf").inc()
    return _backend().worst_clf(order, burst)


def gf_matmul_bytes(
    matrix: Sequence[Sequence[int]], blocks: Sequence[bytes]
) -> List[bytes]:
    """Matrix-of-coefficients times byte-blocks product over GF(256)."""
    if obs.enabled():
        obs.counter("accel.calls.gf_matmul_bytes").inc()
    return _backend().gf_matmul_bytes(matrix, blocks)


def gilbert_states(
    draws: Sequence[float],
    p_good: float,
    p_bad: float,
    start_bad: bool = False,
) -> List[bool]:
    """Per-packet loss flags of a Gilbert channel for a batch of draws."""
    if obs.enabled():
        obs.counter("accel.calls.gilbert_states").inc()
    return _backend().gilbert_states(draws, p_good, p_bad, start_bad)


def gilbert_states_batch(
    draws: Sequence[Sequence[float]],
    p_good: float,
    p_bad: float,
    start_bad: Sequence[bool],
) -> List[List[bool]]:
    """Per-packet loss flags for many independent replication rows.

    ``draws[r]`` is replication ``r``'s uniform-draw stream (rows must
    have equal length for the vectorized path) and ``start_bad[r]`` its
    Gilbert state before the first draw.
    """
    if len(draws) != len(start_bad):
        raise ConfigurationError(
            f"{len(draws)} draw rows but {len(start_bad)} start states"
        )
    if obs.enabled():
        obs.counter("accel.calls.gilbert_states_batch").inc()
        obs.counter("accel.batch_rows").inc(len(draws))
    return _backend().gilbert_states_batch(draws, p_good, p_bad, start_bad)


def batch_worst_clf(indicators: Sequence[Sequence[int]]) -> List[int]:
    """Longest truthy run (the CLF) of each row of a 0/1 matrix."""
    if obs.enabled():
        obs.counter("accel.calls.batch_worst_clf").inc()
    return _backend().batch_worst_clf(indicators)


def loss_run_lengths(states: Sequence) -> List[int]:
    """Lengths of the maximal truthy runs in one indicator sequence."""
    if obs.enabled():
        obs.counter("accel.calls.loss_run_lengths").inc()
    return _backend().loss_run_lengths(states)


def permute(order: Sequence[int], window: Sequence) -> list:
    """Scramble a window into transmission order."""
    if obs.enabled():
        obs.counter("accel.calls.permute").inc()
    return _backend().permute(order, window)


def unpermute(order: Sequence[int], transmitted: Sequence) -> list:
    """Restore a transmitted window to playback order."""
    if obs.enabled():
        obs.counter("accel.calls.unpermute").inc()
    return _backend().unpermute(order, transmitted)
