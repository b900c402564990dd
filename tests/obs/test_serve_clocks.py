"""Stage clocks of the serving fast path: plan, then execute."""

from __future__ import annotations

from repro import obs
from repro.serve import LoadSpec, generate_requests, serve_sessions

STAGES = ("serve.fastpath.plan", "serve.fastpath.execute")


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
