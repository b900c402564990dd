"""Tests for the streaming service itself (repro.serve.service)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.serve import (
    LoadSpec,
    PriorityScheduler,
    SessionRequest,
    StreamingService,
    build_service_manifest,
    estimate_demand,
    generate_requests,
    serve_sessions,
)

CAPACITY = 2_400_000.0


def fleet(sessions=4, seed=5, **kwargs):
    return generate_requests(
        LoadSpec(
            sessions=sessions, seed=seed, gop_count=4, max_windows=4, **kwargs
        )
    )


class TestLifecycle:
    def test_all_outcomes_recorded(self):
        requests = fleet(4)
        result = serve_sessions(requests, CAPACITY)
        assert len(result.outcomes) == len(requests)
        for outcome in result.admitted:
            assert outcome.result is not None
            # 4 GOPs of GOP-12 = 48 frames = 2 windows of 24
            assert len(outcome.result.windows) == 2
        for outcome in result.rejected:
            assert outcome.result is None
            assert outcome.reason

    def test_duplicate_session_id_rejected(self):
        stream = make_video_stream(GOP_12, gop_count=2)
        config = ProtocolConfig()
        requests = [
            SessionRequest(
                session_id="dup", stream=stream, config=config, max_windows=2
            )
            for _ in range(2)
        ]
        service = StreamingService(CAPACITY)
        service.submit_all(requests)
        with pytest.raises(ConfigurationError):
            service.run()

    def test_submit_after_run_rejected(self):
        service = StreamingService(CAPACITY)
        service.submit_all(fleet(1))
        service.run()
        with pytest.raises(ConfigurationError):
            service.submit(fleet(1, seed=6)[0])

    def test_empty_session_id_rejected(self):
        stream = make_video_stream(GOP_12, gop_count=2)
        with pytest.raises(ConfigurationError):
            SessionRequest(session_id="", stream=stream, config=ProtocolConfig())

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingService(0.0)


class TestContention:
    def test_overload_sheds_b_frames_not_anchors(self):
        result = serve_sessions(fleet(8), CAPACITY)
        assert result.shed_total > 0
        for outcome in result.admitted:
            for window in outcome.result.windows:
                assert window.shed <= window.dropped_at_sender
                # anchors (offsets 0 and the P frames) stay decodable
                # whenever the channel cooperated; at minimum the shed
                # set never includes the I frame's offset 0 slot unless
                # the channel lost it.
                assert window.sent + window.dropped_at_sender == window.frames

    def test_shedding_beats_baseline_under_overload(self):
        requests = fleet(8)
        shed = serve_sessions(requests, CAPACITY, shedding=True, admission=True)
        base = serve_sessions(requests, CAPACITY, shedding=False, admission=False)
        assert shed.mean_clf <= base.mean_clf
        assert base.shed_total == 0

    def test_admission_bounds_the_active_set(self):
        result = serve_sessions(fleet(10), CAPACITY)
        # 2.4 Mbps cannot carry ten 1.2 Mbps-provisioned sessions'
        # critical layers; somebody must have been refused.
        assert result.rejected
        assert len(result.admitted) + len(result.rejected) == 10

    def test_min_share_tracks_worst_split(self):
        result = serve_sessions(fleet(4, mean_interarrival=0.0), CAPACITY)
        for outcome in result.admitted:
            assert outcome.min_share_bps <= CAPACITY / len(result.admitted) + 1e-6
            assert outcome.min_share_bps > 0

    def test_no_contention_no_shedding(self):
        result = serve_sessions(fleet(2), CAPACITY)
        assert result.shed_total == 0
        assert len(result.admitted) == 2


class TestObservability:
    def test_counters_and_manifest(self):
        obs.enable()
        obs.reset()
        try:
            result = serve_sessions(fleet(6), CAPACITY)
            snapshot = obs.snapshot()
            counters = snapshot["counters"]
            assert counters["serve.sessions_submitted"] == 6
            assert (
                counters.get("serve.sessions_admitted", 0)
                + counters.get("serve.sessions_rejected", 0)
                == 6
            )
            assert counters.get("serve.sessions_completed", 0) == len(
                result.admitted
            )
            manifest = build_service_manifest(result, seed=5, wall_seconds=0.1)
        finally:
            obs.disable()
        from repro.obs.manifest import validate_manifest

        assert validate_manifest(manifest) == []
        summary = manifest["summary"]
        assert summary["sessions"] == 6
        assert summary["admitted"] == len(result.admitted)
        assert len(summary["per_session"]) == 6

    def test_describe_mentions_the_split(self):
        result = serve_sessions(fleet(2), CAPACITY)
        text = result.describe()
        assert "fair" in text and "admitted" in text

    @pytest.mark.parametrize("fast", [False, True])
    def test_metric_names_do_not_grow_with_fleet_size(self, fast):
        """No metric is named per session: K=4 and K=16 report the same names."""

        def metric_names(sessions):
            # A lossy channel, so both fleets hit every conditional
            # counter (lost ACKs, shed frames, rejections).
            requests = fleet(
                sessions,
                mean_interarrival=1e-3,
                config=ProtocolConfig(p_good=0.8),
            )
            obs.enable()
            obs.reset()
            try:
                serve_sessions(
                    requests, _overloaded_capacity(requests, 1.5), fast=fast
                )
                snapshot = obs.snapshot()
            finally:
                obs.disable()
            return {
                name
                for kind in ("counters", "gauges", "histograms", "timers")
                for name in snapshot[kind]
            }

        small = metric_names(4)
        assert "serve.sessions_rejected" in small  # the fleets contend
        assert metric_names(16) == small


def _overloaded_capacity(requests, overload):
    """A bottleneck ``overload`` times too small for the whole fleet."""
    total = sum(
        estimate_demand(r.stream, r.config, max_windows=r.max_windows)[0]
        for r in requests
    )
    return total / overload


class _CountingScheduler:
    """A scheduler wrapper that logs every allocation into an event log."""

    def __init__(self, inner, log):
        self.inner = inner
        self.name = inner.name
        self.log = log

    def allocate(self, demands, capacity_bps):
        self.log.append(("allocate",))
        return self.inner.allocate(demands, capacity_bps)


class _LoggingService(StreamingService):
    """The service with its arrival and window events logged."""

    def __init__(self, capacity_bps, *, log, **kwargs):
        super().__init__(capacity_bps, **kwargs)
        self.log = log

    def _arrive(self, request):
        self.log.append(("arrive", request.session_id))
        super()._arrive(request)

    def _window_event(self, session_id):
        index = self._active[session_id].next_index
        self.log.append(("window", session_id, index))
        super()._window_event(session_id)


class TestAllocationCalls:
    """The scheduler runs once per active-set change, not once per event."""

    def flash_crowd(self):
        requests = fleet(12, seed=9, mean_interarrival=1e-3)
        return requests, _overloaded_capacity(requests, 1.5)

    def test_admitted_arrival_and_first_window_allocate_once(self):
        requests, capacity = self.flash_crowd()
        log = []
        service = _LoggingService(
            capacity,
            scheduler=_CountingScheduler(PriorityScheduler(), log),
            admission=True,
            log=log,
        )
        service.submit_all(requests)
        result = service.run()
        assert result.rejected and result.admitted
        admitted = {outcome.request.session_id for outcome in result.admitted}
        events = [index for index, entry in enumerate(log) if entry[0] != "allocate"]
        checked = 0
        for position, start in enumerate(events[:-1]):
            entry = log[start]
            if entry[0] != "arrive" or entry[1] not in admitted:
                continue
            if log[events[position + 1]] != ("window", entry[1], 0):
                continue
            # From the arrival to the end of its first window event.
            end = events[position + 2] if position + 2 < len(events) else len(log)
            allocations = sum(1 for item in log[start:end] if item[0] == "allocate")
            assert allocations == 1, f"session {entry[1]!r}"
            checked += 1
        assert checked >= 3

    def test_fast_path_matches_event_loop_on_the_crowd(self):
        requests, capacity = self.flash_crowd()
        slow = serve_sessions(requests, capacity, scheduler=PriorityScheduler())
        fast = serve_sessions(
            requests, capacity, fast=True, scheduler=PriorityScheduler()
        )
        assert len(fast.outcomes) == len(slow.outcomes)
        for a, b in zip(slow.outcomes, fast.outcomes):
            assert (
                a.request.session_id,
                a.admitted,
                a.reason,
                a.share_bps,
                a.min_share_bps,
                a.shed_frames,
                a.result,
            ) == (
                b.request.session_id,
                b.admitted,
                b.reason,
                b.share_bps,
                b.min_share_bps,
                b.shed_frames,
                b.result,
            )
