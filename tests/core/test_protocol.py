"""Tests for the adaptive transmission protocol (repro.core.protocol)."""

from __future__ import annotations

import pytest

from repro.core.protocol import (
    ProtocolConfig,
    ProtocolSession,
    compare_schemes,
    run_session,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.media.gop import GOP_12
from repro.media.stream import make_independent_stream, make_video_stream


def lossless_config(**overrides) -> ProtocolConfig:
    base = dict(
        p_good=1.0,
        p_bad=0.0,
        lossy_feedback=False,
        seed=1,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


@pytest.fixture(scope="module")
def stream():
    return make_video_stream(GOP_12, gop_count=12)


class TestConfig:
    def test_window_frames(self):
        assert ProtocolConfig(gops_per_window=2, gop_size=12).window_frames == 24

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(gops_per_window=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(bandwidth_bps=0)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(rtt=-1)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(packet_size_bytes=0)

    def test_reseeded_equals_replace_without_revalidating(self, monkeypatch):
        from dataclasses import replace

        base = ProtocolConfig(p_good=0.8, seed=3)
        expected = replace(base, seed=11)

        def refuse(self):
            raise AssertionError("re-validated")

        monkeypatch.setattr(ProtocolConfig, "__post_init__", refuse)
        copy = base.reseeded(11)
        assert copy == expected and hash(copy) == hash(expected)
        assert copy.seed == 11 and base.seed == 3
        assert repr(copy) == repr(expected)

    def test_family_ignores_only_the_seed(self):
        from dataclasses import replace

        base = ProtocolConfig(p_good=0.8, seed=3)
        assert base.reseeded(99).family == base.family
        assert replace(base, seed=5).family == base.family
        assert replace(base, p_bad=0.5).family != base.family
        # A cached family leaves equality and hash alone.
        assert base == ProtocolConfig(p_good=0.8, seed=3)
        assert hash(base) == hash(ProtocolConfig(p_good=0.8, seed=3))

    def test_empty_stream_rejected(self):
        import pytest

        from repro.media.stream import MediaStream

        with pytest.raises(ProtocolError):
            ProtocolSession(MediaStream(ldus=()), ProtocolConfig())


class TestLosslessChannel:
    def test_no_losses_no_clf(self, stream):
        result = run_session(stream, lossless_config())
        assert result.mean_clf == 0.0
        assert all(w.clf == 0 for w in result.windows)
        assert all(w.unit_losses == 0 for w in result.windows)

    def test_all_frames_received(self, stream):
        result = run_session(stream, lossless_config())
        for window in result.windows:
            assert len(window.received) == window.frames
            assert len(window.decodable) == window.frames

    def test_unscrambled_also_clean(self, stream):
        config = lossless_config(layered=False, scramble=False)
        result = run_session(stream, config)
        assert result.mean_clf == 0.0

    def test_acks_flow(self, stream):
        result = run_session(stream, lossless_config())
        assert result.acks_sent == len(result.windows)
        assert result.acks_lost == 0


class TestAccounting:
    def test_sent_plus_dropped_equals_frames(self, stream):
        config = ProtocolConfig(p_bad=0.6, seed=3)
        result = run_session(stream, config)
        for window in result.windows:
            assert window.sent + window.dropped_at_sender == window.frames

    def test_transmission_order_is_permutation(self, stream):
        result = run_session(stream, ProtocolConfig(seed=3))
        for window in result.windows:
            assert sorted(window.transmission_order) == list(range(window.frames))

    def test_decodable_subset_of_received(self, stream):
        result = run_session(stream, ProtocolConfig(p_bad=0.6, seed=3))
        for window in result.windows:
            assert window.decodable <= window.received

    def test_max_windows_respected(self, stream):
        result = run_session(stream, ProtocolConfig(seed=3), max_windows=3)
        assert len(result.windows) == 3

    def test_deterministic_given_seed(self, stream):
        a = run_session(stream, ProtocolConfig(p_bad=0.6, seed=9))
        b = run_session(stream, ProtocolConfig(p_bad=0.6, seed=9))
        assert a.series.clf_values == b.series.clf_values

    def test_different_seeds_differ(self, stream):
        a = run_session(stream, ProtocolConfig(p_bad=0.6, seed=9))
        b = run_session(stream, ProtocolConfig(p_bad=0.6, seed=10))
        assert a.series.clf_values != b.series.clf_values


class TestBandwidthPressure:
    def test_starved_sender_drops(self, stream):
        config = lossless_config(bandwidth_bps=300_000.0)
        result = run_session(stream, config)
        assert sum(w.dropped_at_sender for w in result.windows) > 0

    def test_layered_drops_b_frames_first(self, stream):
        config = lossless_config(bandwidth_bps=300_000.0)
        result = run_session(stream, config)
        for window in result.windows:
            if window.dropped_at_sender == 0:
                continue
            # anchors (layers 0..3) were all sent: the transmission order
            # puts them first and the budget covers at least them.
            anchor_offsets = {
                o for o in range(window.frames) if o % 12 in (0, 3, 6, 9)
            }
            assert anchor_offsets <= window.received | {
                o
                for o in anchor_offsets
                # lost in network is possible only with loss enabled
            }

    def test_generous_bandwidth_sends_all(self, stream):
        config = lossless_config(bandwidth_bps=50_000_000.0)
        result = run_session(stream, config)
        assert all(w.dropped_at_sender == 0 for w in result.windows)


class TestScrambledVsUnscrambled:
    def test_scrambled_wins_on_bursty_channel(self, stream):
        config = ProtocolConfig(p_bad=0.6, seed=21)
        scrambled, unscrambled = compare_schemes(stream, config)
        assert scrambled.mean_clf <= unscrambled.mean_clf

    def test_compare_uses_same_seed(self, stream):
        scrambled, unscrambled = compare_schemes(stream, ProtocolConfig(seed=5))
        assert scrambled.config.seed == unscrambled.config.seed
        assert scrambled.config.scramble and not unscrambled.config.scramble


class TestIndependentStreams:
    def test_mjpeg_stream_single_layer(self):
        stream = make_independent_stream(120, fps=30.0)
        config = lossless_config(gops_per_window=1, gop_size=24)
        result = run_session(stream, config)
        assert result.mean_clf == 0.0
        for window in result.windows:
            assert window.layer_sizes == {0: window.frames}

    def test_mjpeg_no_retransmissions(self):
        stream = make_independent_stream(120, fps=30.0)
        config = ProtocolConfig(
            gops_per_window=1, gop_size=24, p_bad=0.6, seed=2
        )
        result = run_session(stream, config)
        assert all(w.retransmissions == 0 for w in result.windows)


class TestFeedback:
    def test_stale_acks_ignored(self):
        from repro.network.feedback import Feedback, FeedbackCollector

        collector = FeedbackCollector()
        assert collector.offer(Feedback(sequence=2, window_index=2))
        assert not collector.offer(Feedback(sequence=1, window_index=1))
        assert collector.ignored_stale == 1
        assert collector.latest is not None
        assert collector.latest.sequence == 2

    def test_ack_loss_counted(self, stream):
        config = ProtocolConfig(p_bad=0.9, seed=4)
        result = run_session(stream, config)
        assert result.acks_sent == len(result.windows)
        assert result.acks_lost + result.acks_used <= result.acks_sent

    def test_adaptation_changes_permutation(self):
        """After heavy feedback, non-critical layer bounds move."""
        stream = make_video_stream(GOP_12, gop_count=12)
        config = ProtocolConfig(p_bad=0.6, seed=8)
        session = ProtocolSession(stream, config)
        session.run()
        estimators = session.controller.layers
        assert any(e.observations > 0 for e in estimators.values())
