"""Tests for the batched Monte-Carlo session engine (repro.core.batch).

The engine's contract is bit-for-bit equality: running R replications
in lockstep must produce exactly the :class:`SessionResult` objects
that R sequential :func:`repro.core.protocol.run_session` calls would.
The property below drives that equality over randomized protocol
configurations on every available acceleration backend and both
implementations of the kernel step — this module must keep passing with
NumPy absent, so it never imports it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.core.batch import run_sessions_batch, summarize_replications
from repro.core.protocol import ProtocolConfig, ProtocolSession, run_session
from repro.errors import ConfigurationError, ProtocolError
from repro.media.gop import GOP_12, GopPattern
from repro.media.stream import MediaStream, make_video_stream

#: Small, fast stream for the property: 6 GOPs of 4 frames.
SMALL_PATTERN = GopPattern.parse("IBBP")


@pytest.fixture(scope="module")
def small_stream():
    return make_video_stream(SMALL_PATTERN, gop_count=6)


@pytest.fixture(scope="module")
def figure_stream():
    return make_video_stream(GOP_12, gop_count=8)


@st.composite
def protocol_configs(draw):
    """Randomized configs spanning every branch the batch engine mirrors."""
    layered = draw(st.booleans())
    return ProtocolConfig(
        gops_per_window=draw(st.integers(min_value=1, max_value=2)),
        gop_size=4,
        p_good=draw(st.floats(min_value=0.5, max_value=1.0, allow_nan=False)),
        p_bad=draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False)),
        layered=layered,
        # The sequential engine only scrambles layered windows; pairing
        # them matches how every experiment drives the protocol.
        scramble=layered and draw(st.booleans()),
        retransmit_anchors=draw(st.booleans()),
        lossy_feedback=draw(st.booleans()),
        closed_gops=draw(st.booleans()),
        burst_policy=draw(st.sampled_from(["equation1", "quantile"])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def _sequential(stream, config, seeds, max_windows):
    # Anchor to the object engine directly: run_session itself routes
    # through the batch engine now, so comparing against it would be a
    # vacuous self-check.
    return [
        ProtocolSession(stream, replace(config, seed=seed)).run(
            max_windows=max_windows
        )
        for seed in seeds
    ]


def _assert_batch_matches(implementations, stream, config, seeds, max_windows):
    previous = accel.backend_name()
    try:
        for name in accel.available_backends():
            accel.set_backend(name)
            expected = _sequential(stream, config, seeds, max_windows)
            for impl in implementations():
                batched = run_sessions_batch(
                    stream, config, seeds=seeds, max_windows=max_windows
                )
                assert batched == expected, (
                    f"backend {name!r} {impl} diverged"
                )
    finally:
        accel.set_backend(previous)


class TestBatchSequentialParity:
    @given(
        protocol_configs(),
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_sequential(
        self, small_stream, kernel_implementations, config, seeds
    ):
        _assert_batch_matches(
            kernel_implementations, small_stream, config, seeds, max_windows=3
        )

    def test_figure8_shape_parity(self, figure_stream, kernel_implementations):
        """Pinned check at the paper's window geometry (N = 24)."""
        config = ProtocolConfig(seed=2000)
        _assert_batch_matches(
            kernel_implementations,
            figure_stream,
            config,
            seeds=[2000, 2001, 2002],
            max_windows=4,
        )

    def test_unscrambled_arm_parity(self, figure_stream, kernel_implementations):
        config = ProtocolConfig(layered=False, scramble=False, seed=2000)
        _assert_batch_matches(
            kernel_implementations,
            figure_stream,
            config,
            seeds=[2000, 2001],
            max_windows=4,
        )

    def test_single_seed_matches_run_session(self, small_stream):
        config = ProtocolConfig(gop_size=4, seed=9)
        (batched,) = run_sessions_batch(small_stream, config, seeds=[9])
        assert batched == run_session(small_stream, replace(config, seed=9))

    def test_empty_seed_list(self, small_stream):
        assert run_sessions_batch(small_stream, seeds=[]) == []

    def test_empty_stream_rejected(self):
        with pytest.raises(ProtocolError):
            run_sessions_batch(MediaStream(ldus=()), seeds=[1])


class TestSummarizeReplications:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_replications([])

    def test_statistics_match_hand_computation(self, small_stream):
        config = ProtocolConfig(gop_size=4, seed=3)
        results = run_sessions_batch(
            small_stream, config, seeds=[3, 4, 5, 6], max_windows=3
        )
        summary = summarize_replications(results)
        assert summary.replications == 4
        means = [r.mean_clf for r in results]
        assert summary.mean_clf.mean == pytest.approx(sum(means) / 4)
        streams = [float(r.stream_clf) for r in results]
        assert summary.stream_clf.mean == pytest.approx(sum(streams) / 4)
        low, high = summary.mean_clf_ci
        assert low <= summary.mean_clf.mean <= high
        assert "replications" in summary.describe()

    def test_single_replication_has_degenerate_interval(self, small_stream):
        config = ProtocolConfig(gop_size=4, seed=3)
        results = run_sessions_batch(
            small_stream, config, seeds=[3], max_windows=2
        )
        summary = summarize_replications(results)
        assert summary.replications == 1
        low, high = summary.mean_clf_ci
        assert low == high == summary.mean_clf.mean
