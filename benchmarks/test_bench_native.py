"""The kernel's array program at steady state: parity and the 1.2x gate.

Runs the same K = 256 Monte-Carlo fleet through the kernel step's two
implementations — the array program (:mod:`repro.core.native`, what the
step runs on the NumPy backend) and the pure-Python cohort loop
(``kernel._step_cohorts``, forced as the baseline arm by setting
``kernel._ARRAY_MAX_FRAMES`` to 0) — checks bit-for-bit parity of every
window stream, and gates the array program at ≥ 1.2x over the cohort
loop.

The workload is fragment-heavy on purpose: five GOPs per window and
2 KiB packets put ~190 packets in each window span, which is where the
cohort loop's per-packet Python dominates and the matrix passes pull
away.  The near-clean channel (``p_good=0.99``) keeps most rows on the
collapsed cohort path, matching the serve-side steady state.
"""

from __future__ import annotations

import gc
import time

from repro import accel
from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream

SESSIONS = 256
WINDOWS = 24
#: Fragment-heavy near-clean steady state: wide windows, small packets,
#: no anchor retransmission (every dirty row stays on the columnar
#: receiver instead of replaying the scalar sender).
CONFIG = ProtocolConfig(
    gops_per_window=5,
    p_good=0.99,
    retransmit_anchors=False,
    packet_size_bytes=2048,
)
STREAM = make_video_stream(GOP_12, 256)
SEEDS = tuple(range(SESSIONS))

#: Widest window the array program steps; 0 forces the cohort loop.
ARRAY = kernel._ARRAY_MAX_FRAMES
#: The baseline arm: every step runs the pure-Python cohort loop.
COHORTS = 0


def _run(max_frames=ARRAY):
    """One sweep with the array program's window limit at ``max_frames``."""
    kernel._ARRAY_MAX_FRAMES = max_frames
    try:
        return run_sessions_batch(
            STREAM, CONFIG, seeds=SEEDS, max_windows=WINDOWS
        )
    finally:
        kernel._ARRAY_MAX_FRAMES = ARRAY


def _canon(results):
    """The bit-for-bit comparable surface of a session sweep."""
    out = []
    for result in results:
        out.append(result.windows)
        out.append(result.series)
    return out


def test_bench_native_steady_state(benchmark, show):
    _run()  # warm permutation / stream / shape caches
    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    assert len(result) == SESSIONS
    show(
        f"kernel step on the {accel.backend_name()} backend: "
        f"K={SESSIONS}, {SESSIONS * WINDOWS} windows"
    )


def test_bench_native_speedup_and_parity(benchmark, show):
    _run(COHORTS)  # warm permutation / stream / shape caches

    # Interleaved min-of-3 on both arms: scheduler and allocator noise
    # hits both alike, so the minima give the honest ratio.
    loop_times = []
    array_times = []
    expected = got = None
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        expected = _run(COHORTS)
        loop_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        got = _run()
        array_times.append(time.perf_counter() - started)

    assert _canon(expected) == _canon(got)

    # Record the array arm for regression gating (tools/bench_compare.py).
    benchmark.pedantic(_run, rounds=1, iterations=1)

    loop_time = min(loop_times)
    array_time = min(array_times)
    speedup = loop_time / array_time
    windows = SESSIONS * WINDOWS
    show(
        f"cohort loop {loop_time:.3f}s, array program {array_time:.3f}s "
        f"=> {speedup:.2f}x on the {accel.backend_name()} backend "
        f"(K={SESSIONS}, {windows} windows, "
        f"{windows / array_time:,.0f} windows/sec)"
    )
    if accel.backend_name() != "numpy":
        return  # pure backend: both arms run the cohort loop
    assert speedup >= 1.2
