"""Hierarchical fan-out vs a serial per-shard loop at K = 4096.

Runs the same 4096-session fleet through the two-level hierarchy
(:mod:`repro.serve.hierarchy`) and through a serial in-process loop of
``serve_sessions(fast=True)``, one call per shard of the *same* shard
partitioning, and checks every session outcome is bit-for-bit
identical.  The hierarchy hosts many shard fleets per worker, steps
them as one slab per window epoch and returns its aggregates as float
columns; the hierarchy-vs-serial ratio is reported, not gated.
"""

from __future__ import annotations

import gc
import time

from repro import accel
from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.hierarchy import plan_hierarchy, run_hierarchy

SESSIONS = 4096
CAPACITY_BPS = 80e6
SPEC = LoadSpec(
    sessions=SESSIONS,
    seed=3,
    gop_count=8,
    max_windows=4,
    mean_interarrival=1e-4,
)
#: 32 session-windows per shard puts 8 sessions in each of 512 shards —
#: a planner-scale tree width scaled down to a benchable fleet.  This is
#: the regime the hierarchy exists for: per-shard serving work is small,
#: so per-call overhead dominates a loop that serves one shard at a time.
TARGET_SHARD_COST = 32


def _warm_caches() -> None:
    # One in-process fast-path pass warms the permutation, stream and
    # demand caches; the serial arm and forked workers both inherit them.
    serve_sessions(generate_requests(SPEC), CAPACITY_BPS, fast=True)


def _outcome_keys(outcomes):
    return [
        (
            o.request.session_id,
            o.admitted,
            o.reason,
            o.shed_frames,
            o.share_bps,
            o.min_share_bps,
            o.result.mean_clf if o.result else None,
            o.result.stream_clf if o.result else None,
        )
        for o in outcomes
    ]


def _serve_shards_serially(plan):
    """The oracle arm: each shard task served alone, one after another."""
    return [
        serve_sessions(generate_requests(task.spec), CAPACITY_BPS, fast=True)
        for task in plan.shard_tasks
    ]


def test_bench_hierarchy_speedup_and_parity(benchmark, show):
    _warm_caches()
    plan = plan_hierarchy(SPEC, CAPACITY_BPS, target_shard_cost=TARGET_SHARD_COST)

    # Interleaved min-of-2 on both arms: scheduler and allocator noise
    # hits both alike, so the minima give the honest ratio.
    serial_times = []
    hierarchy_times = []
    serial = hier = None
    for _ in range(2):
        gc.collect()
        started = time.perf_counter()
        serial = _serve_shards_serially(plan)
        serial_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        hier = run_hierarchy(plan)
        hierarchy_times.append(time.perf_counter() - started)

    serial_outcomes = [o for shard in serial for o in shard.outcomes]
    assert _outcome_keys(hier.outcomes) == _outcome_keys(serial_outcomes)
    assert hier.admitted_count == sum(len(s.admitted) for s in serial)
    assert hier.shed_total == sum(s.shed_total for s in serial)

    # Record the hierarchy arm for regression gating (tools/bench_compare.py).
    benchmark.pedantic(lambda: run_hierarchy(plan), rounds=1, iterations=1)

    serial_time = min(serial_times)
    hierarchy_time = min(hierarchy_times)
    show(
        f"serial {plan.shards}-shard loop {serial_time:.3f}s, hierarchy "
        f"{hierarchy_time:.3f}s on {plan.workers} workers => "
        f"{serial_time / hierarchy_time:.2f}x on the "
        f"{accel.backend_name()} backend (K={SESSIONS}, "
        f"{SESSIONS / hierarchy_time:,.0f} sessions/s)"
    )


def test_bench_hierarchy_throughput(benchmark, show):
    _warm_caches()
    plan = plan_hierarchy(SPEC, CAPACITY_BPS, target_shard_cost=TARGET_SHARD_COST)
    result = benchmark.pedantic(
        lambda: run_hierarchy(plan), rounds=2, iterations=1
    )
    assert result.sessions == SESSIONS
    assert result.admitted_count + result.rejected_count == SESSIONS
    show(result.describe())
