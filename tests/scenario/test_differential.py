"""Differential battery: regime-switching channels across the engines.

Two anchors pin the tentpole:

* **single phase == stationary** — a one-phase ``channel_phases``
  schedule is *bit-for-bit* the plain ``(p_good, p_bad)`` path, on
  every accel backend, both kernel tiers, the batch engine, both
  serving engines (event loop and fast path) and the sharded fan-out.
  Only the config differs, so results are compared with the config
  normalized away.
* **object engine == kernel** — multi-phase schedules run through
  :class:`~repro.core.protocol.ProtocolSession` (the reference
  :class:`~repro.network.markov.SwitchingGilbertModel` duplex) must
  equal :func:`repro.core.kernel.step_window` on both tiers and
  backends, including the fused tier's per-phase-segment prefetch.

This module must keep passing with NumPy absent, so it never imports
it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import accel
from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig, ProtocolSession, run_session
from repro.media.gop import GOP_12, GopPattern
from repro.media.stream import make_video_stream
from repro.network.markov import GilbertPhase
from repro.scenario import (
    ChannelSpec,
    LoadSpec,
    PolicySpec,
    ScenarioSpec,
    as_load_spec,
    build_requests,
    run_scenario,
)
from repro.serve import loadgen, serve_sessions, shard_specs

#: One phase that never ends within any run here — the stationary
#: special case expressed in the DSL.
_FOREVER = 1_000_000_000


@pytest.fixture(scope="module")
def small_stream():
    return make_video_stream(GopPattern.parse("IBBP"), gop_count=6)


@pytest.fixture(autouse=True)
def _restore_tier():
    previous = kernel.tier_name()
    yield
    kernel.set_tier(previous)


def _single_phase(config: ProtocolConfig) -> ProtocolConfig:
    """The same channel, spelled as a one-phase schedule."""
    return replace(
        config,
        channel_phases=(
            GilbertPhase(_FOREVER, config.p_good, config.p_bad),
        ),
    )


def _strip(result, reference):
    """Normalize the config away (the only field allowed to differ)."""
    return replace(result, config=reference.config)


def _each_backend():
    previous = accel.backend_name()
    try:
        for name in accel.available_backends():
            accel.set_backend(name)
            yield name
    finally:
        accel.set_backend(previous)


class TestSinglePhaseIsStationary:
    @pytest.mark.parametrize("seed", [0, 7, 2000])
    def test_run_session_every_backend_and_tier(self, small_stream, seed):
        config = ProtocolConfig(gop_size=4, seed=seed)
        phased = _single_phase(config)
        for backend in _each_backend():
            for tier in kernel.available_tiers():
                kernel.set_tier(tier)
                expected = run_session(small_stream, config, max_windows=3)
                actual = run_session(small_stream, phased, max_windows=3)
                assert _strip(actual, expected) == expected, (
                    f"backend {backend!r} tier {tier!r} diverged"
                )

    def test_batch_engine(self, small_stream):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        seeds = [0, 7919, 15838]
        expected = run_sessions_batch(
            small_stream, config, seeds=seeds, max_windows=3
        )
        actual = run_sessions_batch(
            small_stream, _single_phase(config), seeds=seeds, max_windows=3
        )
        assert [_strip(a, e) for a, e in zip(actual, expected)] == expected

    def test_lossy_feedback_channel(self, small_stream):
        """The phased feedback channel (per-ACK lookups) stays pinned."""
        config = ProtocolConfig(
            gop_size=4, lossy_feedback=True, p_bad=0.7, seed=31
        )
        expected = run_session(small_stream, config, max_windows=4)
        actual = run_session(
            small_stream, _single_phase(config), max_windows=4
        )
        assert actual.acks_lost == expected.acks_lost
        assert _strip(actual, expected) == expected


def _scenario(seed=0, sessions=3, arrival="batch", correlation="independent"):
    return ScenarioSpec(
        name="diff",
        seed=seed,
        channel=ChannelSpec(
            phases=(GilbertPhase(_FOREVER, 0.92, 0.6),),
            correlation=correlation,
        ),
        load=LoadSpec(
            sessions=sessions, arrival=arrival, gop_count=4, max_windows=3
        ),
        policy=PolicySpec(capacity_bps=4_000_000.0),
    )


def _outcome_key(outcome):
    """Everything an outcome carries, minus the phase-bearing configs."""
    result = outcome.result
    return (
        outcome.request.session_id,
        outcome.admitted,
        outcome.reason,
        outcome.shed_frames,
        outcome.share_bps,
        outcome.min_share_bps,
        outcome.demand_bps,
        outcome.critical_bps,
        None
        if result is None
        else replace(
            result, config=replace(result.config, channel_phases=None)
        ),
    )


def _lean_key(outcome):
    """The outcome surface a sharded run's lean outcomes expose."""
    result = outcome.result
    return (
        outcome.request.session_id,
        outcome.request.priority,
        outcome.admitted,
        outcome.reason,
        outcome.shed_frames,
        outcome.share_bps,
        outcome.min_share_bps,
        outcome.demand_bps,
        outcome.critical_bps,
        None if result is None else result.mean_clf,
        None if result is None else result.stream_clf,
    )


def _stationary_requests(spec: ScenarioSpec):
    """The equivalent plain-loadgen fleet (no channel_phases anywhere)."""
    plain = as_load_spec(spec)
    return loadgen.generate_requests(
        replace(plain, config=ProtocolConfig())
    )


class TestServingParity:
    @pytest.mark.parametrize("fast", [False, True])
    def test_single_phase_scenario_equals_plain_loadgen(self, fast):
        spec = _scenario()
        expected = serve_sessions(
            _stationary_requests(spec),
            spec.policy.capacity_bps,
            fast=fast,
        )
        actual = run_scenario(spec, fast=fast)
        assert list(map(_outcome_key, actual.outcomes)) == list(
            map(_outcome_key, expected.outcomes)
        )

    def test_fast_path_matches_event_loop_multi_phase(self):
        """The serving fast path stays pinned *with* a real switch."""
        spec = replace(
            _scenario(seed=3, sessions=4),
            channel=ChannelSpec(
                phases=(
                    GilbertPhase(40, 0.99, 0.3),
                    GilbertPhase(_FOREVER, 0.85, 0.75),
                ),
            ),
        )
        slow = run_scenario(spec, fast=False)
        fast = run_scenario(spec, fast=True)
        assert [o.result for o in fast.outcomes] == [
            o.result for o in slow.outcomes
        ]

    def test_sharded_run_single_phase(self):
        spec = _scenario(seed=1, sessions=4)
        actual = run_scenario(spec, shards=2, jobs=1)
        plain = replace(as_load_spec(spec), config=ProtocolConfig())
        expected = [
            serve_sessions(
                loadgen.generate_requests(shard_spec), spec.policy.capacity_bps
            )
            for shard_spec in shard_specs(plain, 2)
        ]
        assert actual.plan.shard_seeds == [s.seed for s in shard_specs(plain, 2)]
        assert list(map(_lean_key, actual.outcomes)) == [
            _lean_key(o) for shard in expected for o in shard.outcomes
        ]

    def test_hierarchy_matches_flat_fanout_multi_phase(self):
        """The hierarchical fan-out inherits phased channels through
        `step_fleet`'s schedule-keyed refill; with a real switch in
        play it must equal the event-loop service run shard by shard."""
        spec = replace(
            _scenario(seed=2, sessions=6),
            channel=ChannelSpec(
                phases=(
                    GilbertPhase(40, 0.99, 0.3),
                    GilbertPhase(_FOREVER, 0.85, 0.75),
                ),
            ),
            policy=PolicySpec(capacity_bps=8_000_000.0),
        )
        tree = run_scenario(spec, shards=2, jobs=2)
        flat = [
            serve_sessions(
                loadgen.generate_requests(shard_spec), spec.policy.capacity_bps
            )
            for shard_spec in shard_specs(as_load_spec(spec), 2)
        ]
        assert list(map(_lean_key, tree.outcomes)) == [
            _lean_key(o) for shard in flat for o in shard.outcomes
        ]
        assert tree.admitted_count == sum(len(shard.admitted) for shard in flat)

    def test_flash_crowd_decoration_only_moves_arrivals(self):
        """Flash arrivals change *when* sessions show up, nothing else."""
        spec = _scenario(arrival="flash", sessions=4)
        flash = build_requests(spec)
        poisson = build_requests(replace(spec, load=replace(spec.load, arrival="poisson")))
        assert [r.arrival_time for r in flash[:2]] == [0.0, 0.0]
        assert [r.config for r in flash] == [r.config for r in poisson]
        assert [r.stream for r in flash] == [r.stream for r in poisson]

    def test_shared_correlation_replays_one_loss_process(self):
        """`shared` pins every forward channel to one seeded process."""
        spec = _scenario(correlation="shared", sessions=3)
        requests = build_requests(spec)
        seeds = {r.config.seed for r in requests}
        assert len(seeds) == 1
        independent = build_requests(
            replace(
                spec,
                channel=replace(spec.channel, correlation="independent"),
            )
        )
        assert len({r.config.seed for r in independent}) == len(independent)


class TestMultiPhaseObjectVsKernel:
    PHASES = (
        GilbertPhase(25, 0.99, 0.2),
        GilbertPhase(40, 0.7, 0.8),
        GilbertPhase(_FOREVER, 0.92, 0.6),
    )

    @pytest.mark.parametrize("seed", [0, 11, 4242])
    def test_every_backend_and_tier(self, small_stream, seed):
        config = ProtocolConfig(
            gop_size=4, channel_phases=self.PHASES, seed=seed
        )
        for backend in _each_backend():
            expected = ProtocolSession(small_stream, config).run(
                max_windows=4
            )
            for tier in kernel.available_tiers():
                kernel.set_tier(tier)
                actual = run_session(small_stream, config, max_windows=4)
                assert actual == expected, (
                    f"backend {backend!r} tier {tier!r} diverged"
                )

    def test_mixed_schedule_slab_matches_solo_rows(self):
        """Batches with *different* schedules advancing through one
        ``step_fleet`` slab equal each row run alone — the slab-wide
        refill keys its draw groups on the full channel dynamics, so a
        stationary batch and a phased batch sharing ``(p_good, p_bad)``
        never share a stacked prefetch."""
        stream = make_video_stream(GOP_12, gop_count=4)
        configs = [
            ProtocolConfig(seed=5),
            ProtocolConfig(channel_phases=self.PHASES, seed=5),
            # Same stationary parameters as configs[0], spelled as one
            # phase: identical (p_good, p_bad) but a distinct group.
            ProtocolConfig(
                channel_phases=(GilbertPhase(_FOREVER, 0.92, 0.6),), seed=9
            ),
        ]
        solo = [
            run_session(stream, config, max_windows=3) for config in configs
        ]
        windows = list(stream.windows(configs[0].window_frames))[:3]
        shapes: dict = {}
        rows = [
            kernel.SessionRow(config, config.seed) for config in configs
        ]
        for index, window in enumerate(windows):
            batches = [
                kernel.FleetBatch(
                    rows=[row],
                    info=kernel.WindowInfo(window, config, stream.fps, shapes),
                    config=config,
                    fps=stream.fps,
                    window_index=index,
                    control_serialization=(
                        kernel.CONTROL_PACKET_BYTES
                        * 8.0
                        / config.bandwidth_bps
                    ),
                )
                for row, config in zip(rows, configs)
            ]
            kernel.step_fleet(batches)
        assert [row.result for row in rows] == solo
