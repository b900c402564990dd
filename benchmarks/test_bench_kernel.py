"""Unified kernel at steady state: parity and the 10x gate at K = 256.

Serves the same K = 256 fleet two ways — the event-loop
:class:`~repro.serve.service.StreamingService` and the kernel step
behind :mod:`repro.serve.fastpath` — and checks both bit-for-bit parity
of every session outcome and the headline claim of the unified
columnar kernel: at a steady-state fleet width of 256 rows per window
step, the kernel is at least 10x faster than event-loop serving on the
NumPy backend.  The gate reads the median of per-pair ratios over
back-to-back pairs, not the ratio of each arm's separate minimum.
"""

from __future__ import annotations

import gc
import statistics
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
#: Back-to-back (event loop, kernel) timing pairs behind the 10x gate.
PAIRS = 5


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


def _paired_times(event_loop, kernel, pairs: int):
    """Time both arms back to back in ``pairs`` pairs, alternating order.

    The cyclic collector is off while the arms run (a collection runs
    between pairs), so a collector pass lands in neither arm.  A burst
    of load from elsewhere on the host slows both halves of a pair alike,
    so the per-pair ratio moves far less than either arm's minimum.
    Returns the per-pair ``(event_loop_s, kernel_s)`` times and the last
    result of each arm.
    """
    arms = {"event loop": event_loop, "kernel": kernel}
    times = []
    results = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(pairs):
            order = list(arms) if index % 2 == 0 else list(reversed(arms))
            gc.collect()
            elapsed = {}
            for name in order:
                started = time.perf_counter()
                results[name] = arms[name]()
                elapsed[name] = time.perf_counter() - started
            times.append((elapsed["event loop"], elapsed["kernel"]))
    finally:
        if enabled:
            gc.enable()
    return times, results["event loop"], results["kernel"]


def test_bench_kernel_speedup_and_parity(benchmark, show):
    # Warm the permutation and stream caches so neither arm pays the
    # one-off plan-search cost.
    _serve(generate_requests(SPEC), fast=True)
    requests = generate_requests(SPEC)

    times, expected, fast = _paired_times(
        lambda: _serve(requests), lambda: _serve(requests, fast=True), PAIRS
    )

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

    speedup = statistics.median(slow / quick for slow, quick in times)
    event_loop_time = statistics.median(slow for slow, _ in times)
    fast_time = statistics.median(quick for _, quick in times)
    windows = SESSIONS * SPEC.max_windows
    show(
        f"event loop {event_loop_time:.3f}s, kernel {fast_time:.3f}s "
        f"(medians of {PAIRS} pairs) => {speedup:.2f}x median pair ratio "
        f"on the {accel.backend_name()} backend "
        f"(K={SESSIONS}, {windows} windows, "
        f"{windows / fast_time:,.0f} windows/sec)"
    )
    if accel.backend_name() == "numpy":
        assert speedup >= 10.0
