"""Differential battery for the window-batched serving fast path.

The fast path's contract is unconditional: for *any* fleet —
contended, staggered arrivals, mid-window departures, rejections,
priority splits, shedding on or off — ``serve_sessions(..., fast=True)``
returns bit-for-bit the :class:`~repro.serve.service.ServiceResult` of
the event-loop :class:`~repro.serve.service.StreamingService`, on every
available acceleration backend.  This module must keep passing with
NumPy absent, so it never imports it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import accel, obs
from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.media.gop import GOP_12, GopPattern
from repro.media.stream import make_video_stream
from repro.network.simulator import EventLoop
from repro.serve import (
    FastStreamingService,
    LoadSpec,
    SessionRequest,
    generate_requests,
    make_scheduler,
    run_hierarchy,
    serve_sessions,
    shard_specs,
)
from repro.serve.fastpath import serve_sessions_fast
from repro.serve.hierarchy import SHARD_SEED_STRIDE


def _outcome_key(outcome):
    return (
        outcome.request.session_id,
        outcome.admitted,
        outcome.reason,
        outcome.share_bps,
        outcome.min_share_bps,
        outcome.shed_frames,
        outcome.demand_bps,
        outcome.critical_bps,
        outcome.result,
    )


def _assert_fleet_parity(requests_fn, capacity_bps, **kwargs):
    previous = accel.backend_name()
    try:
        for name in accel.available_backends():
            accel.set_backend(name)
            slow = serve_sessions(requests_fn(), capacity_bps, **kwargs)
            fast = serve_sessions(
                requests_fn(), capacity_bps, fast=True, **kwargs
            )
            assert len(slow.outcomes) == len(fast.outcomes)
            for a, b in zip(slow.outcomes, fast.outcomes):
                assert _outcome_key(a) == _outcome_key(b), (
                    f"backend {name!r}: session "
                    f"{a.request.session_id!r} diverged"
                )
    finally:
        accel.set_backend(previous)


class TestFleetParity:
    def test_contended_generated_fleet(self):
        """Staggered arrivals, a rejection, shedding under contention."""
        _assert_fleet_parity(
            lambda: generate_requests(LoadSpec(sessions=4, seed=7)),
            2_400_000.0,
        )

    def test_priority_scheduler_fleet(self):
        _assert_fleet_parity(
            lambda: generate_requests(LoadSpec(sessions=4, seed=3)),
            2_000_000.0,
            scheduler=make_scheduler("priority"),
        )

    def test_unmanaged_overload(self):
        """No admission, no shedding: overload lands on the window budget."""
        _assert_fleet_parity(
            lambda: generate_requests(LoadSpec(sessions=4, seed=5)),
            1_200_000.0,
            shedding=False,
            admission=False,
        )

    def test_simultaneous_arrivals(self):
        _assert_fleet_parity(
            lambda: generate_requests(
                LoadSpec(sessions=3, seed=2, mean_interarrival=0.0)
            ),
            2_000_000.0,
        )

    def test_heterogeneous_window_shapes(self):
        """Different GOP patterns never share a batch group but must
        still agree with the event loop."""

        def requests():
            long_stream = make_video_stream(GOP_12, gop_count=4, name="long")
            short_stream = make_video_stream(
                GopPattern.parse("IBBP"), gop_count=8, name="short"
            )
            return [
                SessionRequest(
                    session_id="long",
                    stream=long_stream,
                    config=ProtocolConfig(seed=31),
                    max_windows=3,
                ),
                SessionRequest(
                    session_id="short",
                    stream=short_stream,
                    config=ProtocolConfig(gop_size=4, seed=77),
                    arrival_time=0.2,
                    max_windows=5,
                ),
            ]

        _assert_fleet_parity(requests, 2_400_000.0, admission=False)


class TestRebalanceEdgeCases:
    """Scheduler-rebalance edges: the fast path must replay them exactly."""

    def test_departure_mid_window(self):
        """A short session departs strictly inside a long session's
        window; the survivor's share grows at its next boundary only."""

        def requests():
            stream = make_video_stream(GOP_12, gop_count=4)
            return [
                SessionRequest(
                    session_id="long",
                    stream=stream,
                    config=ProtocolConfig(seed=13),
                    max_windows=4,
                ),
                SessionRequest(
                    session_id="short",
                    stream=stream,
                    config=ProtocolConfig(seed=29),
                    # Cycle is 1.0 s: windows at 0.4, 1.4 -> departs at
                    # 2.4, mid-way through the long session's window 2.
                    arrival_time=0.4,
                    max_windows=2,
                ),
            ]

        _assert_fleet_parity(requests, 1_800_000.0, admission=False)

    def test_admission_at_exact_window_boundary(self):
        """A newcomer arriving exactly on another session's window
        boundary: event order at the tied timestamp decides whether the
        boundary window sees the rebalanced share."""

        def requests():
            stream = make_video_stream(GOP_12, gop_count=4)
            return [
                SessionRequest(
                    session_id="first",
                    stream=stream,
                    config=ProtocolConfig(seed=41),
                    max_windows=4,
                ),
                SessionRequest(
                    session_id="boundary",
                    stream=stream,
                    config=ProtocolConfig(seed=43),
                    arrival_time=1.0,  # exactly the first window boundary
                    max_windows=3,
                ),
            ]

        _assert_fleet_parity(requests, 1_800_000.0, admission=False)

    def test_share_floor_starvation(self):
        """A starved session pinned at the minimum share floor."""

        def requests():
            stream = make_video_stream(GOP_12, gop_count=4)
            return [
                SessionRequest(
                    session_id="heavy",
                    stream=stream,
                    config=ProtocolConfig(seed=3),
                    weight=1.0,
                    priority=1,
                    max_windows=3,
                ),
                SessionRequest(
                    session_id="starved",
                    stream=stream,
                    config=ProtocolConfig(seed=4),
                    weight=1.0,
                    priority=0,
                    max_windows=3,
                ),
            ]

        _assert_fleet_parity(
            requests,
            1_000_000.0,
            scheduler=make_scheduler("priority"),
            admission=False,
        )


class TestFastServiceFrontend:
    def test_submit_run_matches_one_shot(self):
        requests = generate_requests(LoadSpec(sessions=2, seed=1))
        service = FastStreamingService(2_400_000.0)
        service.submit_all(requests)
        result = service.run()
        expected = serve_sessions(
            generate_requests(LoadSpec(sessions=2, seed=1)), 2_400_000.0
        )
        assert [_outcome_key(o) for o in result.outcomes] == [
            _outcome_key(o) for o in expected.outcomes
        ]

    def test_submit_after_run_rejected(self):
        service = FastStreamingService(1_000_000.0)
        service.run()
        with pytest.raises(ConfigurationError):
            service.submit(generate_requests(LoadSpec(sessions=1, seed=0))[0])

    def test_custom_loop_falls_back_to_event_loop(self):
        """A caller-owned loop may carry foreign events: the fast path
        must hand the run to the event-loop service wholesale."""
        requests = generate_requests(LoadSpec(sessions=2, seed=6))
        result = serve_sessions_fast(
            requests, 2_400_000.0, loop=EventLoop()
        )
        expected = serve_sessions(
            generate_requests(LoadSpec(sessions=2, seed=6)), 2_400_000.0
        )
        assert [_outcome_key(o) for o in result.outcomes] == [
            _outcome_key(o) for o in expected.outcomes
        ]


def _lean_key(outcome):
    """The outcome surface a sharded run's lean outcomes expose."""
    result = outcome.result
    return (
        outcome.request.session_id,
        outcome.request.priority,
        outcome.admitted,
        outcome.reason,
        outcome.share_bps,
        outcome.min_share_bps,
        outcome.shed_frames,
        outcome.demand_bps,
        outcome.critical_bps,
        result.mean_clf if result else None,
        result.stream_clf if result else None,
    )


def _shard_slices(result):
    """A sharded run's lean outcomes, one list per shard task."""
    outcomes = iter(result.outcomes)
    return [
        (task, [next(outcomes) for _ in range(task.spec.sessions)])
        for task in result.plan.shard_tasks
    ]


class TestSharding:
    """Sharded serving (:func:`repro.serve.hierarchy.run_hierarchy`)
    on top of this fast path: the pinned partition, and every shard
    equal to serving its derived spec alone."""

    def test_shard_specs_partition_and_seed_lineage(self):
        spec = LoadSpec(sessions=7, seed=11)
        shards = shard_specs(spec, 3)
        assert [s.sessions for s in shards] == [3, 2, 2]
        assert [s.seed for s in shards] == [
            11,
            11 + SHARD_SEED_STRIDE,
            11 + 2 * SHARD_SEED_STRIDE,
        ]
        # Non-partitioned fields are inherited untouched.
        assert all(s.gop_count == spec.gop_count for s in shards)

    def test_more_shards_than_sessions_drops_empty_tail(self):
        assert [s.sessions for s in shard_specs(LoadSpec(sessions=2), 5)] == [1, 1]

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard_specs(LoadSpec(sessions=2), 0)

    def test_sharded_run_independent_of_worker_count(self):
        spec = LoadSpec(sessions=4, seed=9, gop_count=4)
        serial = run_hierarchy(spec, 2_000_000.0, shards=2, workers=1, jobs=1)
        parallel = run_hierarchy(spec, 2_000_000.0, shards=2, workers=2, jobs=2)
        assert serial.plan.shard_seeds == parallel.plan.shard_seeds
        assert serial.summary_dict() == parallel.summary_dict()
        assert [_lean_key(o) for o in serial.outcomes] == [
            _lean_key(o) for o in parallel.outcomes
        ]

    def test_each_shard_matches_direct_fleet(self):
        """Shard i's fleet equals serving its derived spec directly."""
        spec = LoadSpec(sessions=4, seed=21, gop_count=4)
        sharded = run_hierarchy(spec, 2_400_000.0, shards=2, jobs=1)
        slices = _shard_slices(sharded)
        assert [task.spec for task, _ in slices] == shard_specs(spec, 2)
        for task, outcomes in slices:
            direct = serve_sessions(
                generate_requests(task.spec), 2_400_000.0, fast=True
            )
            assert [_lean_key(o) for o in outcomes] == [
                _lean_key(o) for o in direct.outcomes
            ]

    def test_sharded_event_loop_engine(self):
        """Each shard equals the event-loop service on its own spec."""
        spec = LoadSpec(sessions=3, seed=2, gop_count=4)
        sharded = run_hierarchy(spec, 2_000_000.0, shards=2, jobs=1)
        for task, outcomes in _shard_slices(sharded):
            slow = serve_sessions(
                generate_requests(task.spec), 2_000_000.0, fast=False
            )
            assert [_lean_key(o) for o in outcomes] == [
                _lean_key(o) for o in slow.outcomes
            ]

    def test_sharded_summary_and_manifest(self):
        from repro.serve import build_service_manifest

        result = run_hierarchy(
            LoadSpec(sessions=3, seed=2, gop_count=4), 2_000_000.0,
            shards=2, jobs=1,
        )
        summary = result.summary_dict()
        assert summary["plan"]["shards"] == 2
        assert summary["plan"]["shard_seeds"] == [2, 2 + SHARD_SEED_STRIDE]
        assert summary["sessions"] == 3
        manifest = build_service_manifest(result, seed=2)
        assert manifest["config"]["sessions"] == 3
        assert manifest["summary"]["plan"]["shards"] == 2
        assert "shards" in result.describe()


class TestObservability:
    def test_fastpath_counters(self):
        registry = obs.enable()
        obs.reset()
        try:
            serve_sessions(
                generate_requests(
                    LoadSpec(sessions=3, seed=2, mean_interarrival=0.0)
                ),
                6_000_000.0,
                fast=True,
            )
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            assert counters["serve.fastpath.runs"] == 1
            assert counters["serve.fastpath.sessions"] == 3
            # Identical streams admitted together at an uncontended
            # capacity share one batch group every window.
            assert counters["serve.fastpath.windows_batched"] > 0
            assert counters["serve.sessions_completed"] == 3
            assert counters["serve.windows"] == counters["protocol.windows"]
        finally:
            obs.disable()

    def test_demand_cache_counters(self):
        from repro.serve.admission import _demand_cache, _demand_id_cache

        registry = obs.enable()
        obs.reset()
        try:
            _demand_cache.clear()
            _demand_id_cache.clear()
            requests = generate_requests(LoadSpec(sessions=2, seed=77))
            stream = requests[0].stream
            config = requests[0].config
            from repro.serve import estimate_demand

            first = estimate_demand(stream, config, max_windows=4)
            again = estimate_demand(stream, config, max_windows=4)
            assert first == again
            counters = registry.snapshot()["counters"]
            assert counters["serve.demand_cache.misses"] >= 1
            assert counters["serve.demand_cache.hits"] >= 1
        finally:
            obs.disable()

    def test_demand_cache_is_correct_across_windowings(self):
        """Different windowings of one stream are distinct cache keys."""
        from repro.serve import estimate_demand
        from repro.serve.admission import _demand_cache

        _demand_cache.clear()
        stream = make_video_stream(GOP_12, gop_count=4)
        config = ProtocolConfig()
        whole = estimate_demand(stream, config)
        limited = estimate_demand(stream, config, max_windows=1)
        assert estimate_demand(stream, config) == whole
        assert estimate_demand(stream, config, max_windows=1) == limited
        small = estimate_demand(stream, replace(config, gop_size=6))
        assert estimate_demand(stream, replace(config, gop_size=6)) == small


class TestPrefetchHorizon:
    def test_two_window_fleet_draws_only_its_horizon(self):
        """Rows stop prefetching at their last window, on every backend.

        Uncapped, a ``max_windows=2`` fleet would draw
        ``PREFETCH_WINDOWS`` (8) windows' worth of loss flags per row;
        capped, each row's prefetch stops at its two windows' worth.
        """
        from repro.core import kernel
        from repro.serve import fastpath

        spec = LoadSpec(
            sessions=12, seed=4, mean_interarrival=1e-3, gop_count=4, max_windows=2
        )
        previous = accel.backend_name()
        try:
            for name in accel.available_backends():
                accel.set_backend(name)
                planner = fastpath._PlanningService(8_000_000.0)
                planner.submit_all(generate_requests(spec))
                result = planner.run()
                plans = [
                    planner.session_plans[outcome.request.session_id]
                    for outcome in result.outcomes
                    if outcome.admitted
                ]
                assert plans
                execution = fastpath._FleetExecution(plans, planner._shed_policy)
                for ordinal in range(execution.total_windows):
                    kernel.step_fleet(execution.batches_for(ordinal))
                shapes = {}
                for row in execution.rows:
                    horizon = len(row.plan.windows)
                    assert horizon == 2
                    needed = max(
                        kernel.window_layout(window, row.config, shapes)
                        .first_attempt_packets
                        for window in row.plan.windows
                    ) + kernel.PREFETCH_SLACK
                    assert len(row.result.windows) == horizon
                    assert row.fwd_drawn < kernel.PREFETCH_WINDOWS * needed
                    # Whether the first refill covered both windows or a
                    # later one topped up the last, fewer than the
                    # horizon's worth of flags is left unused.
                    unused = len(row.flags) - row.pos
                    assert unused < horizon * needed
        finally:
            accel.set_backend(previous)
