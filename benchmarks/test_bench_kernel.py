"""Unified kernel at steady state: parity and the 10x gate at K = 256.

Serves the same K = 256 fleet two ways — the event-loop
:class:`~repro.serve.service.StreamingService` and the kernel step
behind :mod:`repro.serve.fastpath` — and checks both bit-for-bit parity
of every session outcome and the headline claim of the unified
columnar kernel: at a steady-state fleet width of 256 rows per window
step, the kernel is at least 10x faster than event-loop serving on the
NumPy backend.
"""

from __future__ import annotations

import gc
import time

from repro import accel
from repro.core.protocol import ProtocolConfig
from repro.serve import LoadSpec, generate_requests, serve_sessions

SESSIONS = 256
#: Mostly-clean channel: the kernel's cohort collapse carries the
#: bulk of the fleet while the Gilbert bad state still exercises the
#: timeline and scalar fallbacks.
CONFIG = ProtocolConfig(p_good=0.995, p_bad=0.6)
SPEC = LoadSpec(
    sessions=SESSIONS,
    seed=9,
    gop_count=24,
    max_windows=12,
    mean_interarrival=0.0,
    config=CONFIG,
)
#: Everyone admitted at full demand — all 256 rows step every window.
CAPACITY_BPS = 1_200_000.0 * SESSIONS


def _serve(requests, **kwargs):
    return serve_sessions(requests, CAPACITY_BPS, **kwargs)


def test_bench_kernel_steady_state(benchmark, show):
    _serve(generate_requests(SPEC), fast=True)  # warm permutation caches
    requests = generate_requests(SPEC)
    result = benchmark.pedantic(
        lambda: _serve(requests, fast=True), rounds=3, iterations=1
    )
    assert len(result.admitted) == SESSIONS
    show(result.describe())


def test_bench_kernel_speedup_and_parity(benchmark, show):
    # Warm the permutation and stream caches so neither arm pays the
    # one-off plan-search cost.
    _serve(generate_requests(SPEC), fast=True)
    requests = generate_requests(SPEC)

    # Interleaved min-of-3 on both arms: scheduler and allocator noise
    # hits both engines alike, so the minima give the honest ratio.
    event_loop_times = []
    fast_times = []
    expected = fast = None
    for _ in range(3):
        gc.collect()
        started = time.perf_counter()
        expected = _serve(requests)
        event_loop_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        fast = _serve(requests, fast=True)
        fast_times.append(time.perf_counter() - started)

    assert len(fast.outcomes) == len(expected.outcomes)
    for a, b in zip(expected.outcomes, fast.outcomes):
        assert a.admitted == b.admitted
        assert a.share_bps == b.share_bps
        assert a.min_share_bps == b.min_share_bps
        assert a.shed_frames == b.shed_frames
        assert a.result == b.result, a.request.session_id

    # Record the fast arm for regression gating (tools/bench_compare.py).
    benchmark.pedantic(
        lambda: _serve(requests, fast=True), rounds=1, iterations=1
    )

    event_loop_time = min(event_loop_times)
    fast_time = min(fast_times)
    speedup = event_loop_time / fast_time
    windows = SESSIONS * SPEC.max_windows
    show(
        f"event loop {event_loop_time:.3f}s, kernel {fast_time:.3f}s "
        f"=> {speedup:.2f}x on the {accel.backend_name()} backend "
        f"(K={SESSIONS}, {windows} windows, "
        f"{windows / fast_time:,.0f} windows/sec)"
    )
    if accel.backend_name() == "numpy":
        assert speedup >= 10.0
