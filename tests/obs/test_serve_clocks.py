"""Stage clocks of the serving paths.

The fast path times plan, then execute; the hierarchy times plan,
execute and reduce, summed over its shards.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.hierarchy import run_hierarchy

STAGES = ("serve.fastpath.plan", "serve.fastpath.execute")
HIERARCHY_STAGES = (
    "serve.hierarchy.plan",
    "serve.hierarchy.execute",
    "serve.hierarchy.reduce",
)


def _serve_fast(sessions=4):
    return serve_sessions(
        generate_requests(LoadSpec(sessions=sessions, seed=2, gop_count=4)),
        2_400_000.0,
        fast=True,
    )


class TestFastPathStageClocks:
    def test_each_stage_records_once_per_run(self, fresh_registry):
        _serve_fast()
        timers = fresh_registry.snapshot()["timers"]
        for stage in STAGES:
            assert timers[stage]["count"] == 1
            assert timers[stage]["total"] >= 0.0
        _serve_fast()
        timers = fresh_registry.snapshot()["timers"]
        for stage in STAGES:
            assert timers[stage]["count"] == 2

    def test_event_loop_path_records_no_stage_clock(self, fresh_registry):
        serve_sessions(
            generate_requests(LoadSpec(sessions=2, seed=2, gop_count=4)),
            2_400_000.0,
        )
        timers = fresh_registry.snapshot()["timers"]
        assert not set(STAGES) & set(timers)

    def test_disabled_metrics_create_no_timer(self):
        obs.disable()
        before = obs.snapshot()
        _serve_fast(sessions=2)
        assert obs.snapshot() == before


def _run_hierarchy(workers):
    return run_hierarchy(
        LoadSpec(sessions=16, seed=2, gop_count=4, max_windows=2),
        4_000_000.0,
        shards=4,
        workers=workers,
    )


class TestHierarchyStageClocks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_stage_records_once_per_run(self, fresh_registry, workers):
        result = _run_hierarchy(workers)
        assert result.plan.workers == workers
        timers = fresh_registry.snapshot()["timers"]
        for stage, column in zip(
            HIERARCHY_STAGES,
            ("plan_seconds", "serve_seconds", "reduce_seconds"),
        ):
            assert timers[stage]["count"] == 1
            # The clock is the per-shard timing column, summed.
            assert timers[stage]["total"] == pytest.approx(
                sum(result.shard_stats[column])
            )
            assert timers[stage]["total"] > 0.0

    def test_disabled_metrics_create_no_timer(self):
        obs.disable()
        before = obs.snapshot()
        _run_hierarchy(1)
        assert obs.snapshot() == before
