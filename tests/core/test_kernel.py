"""The unified columnar window-step kernel (repro.core.kernel).

The kernel is the single engine behind ``run_session``,
``core.batch`` and ``serve.fastpath``; its contract is bit-for-bit
equality with the object engine on both implementations of the step
(array program, cohort loop) and every accel backend.  The properties
here drive :func:`repro.core.kernel.step_window` directly — one step
must equal one :class:`ProtocolSession` window — including the
degenerate rows the collapse paths must not mishandle: zero effective
share and boundary-exact admission budgets — and after every window a
row's adaptation state (Equation-1 estimators, Gilbert fit, ACK
collector) must equal its session's.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.core import kernel
from repro.core.protocol import ProtocolConfig, ProtocolSession
from repro.media.gop import GopPattern
from repro.media.ldu import FrameType, Ldu
from repro.media.stream import MediaStream, make_video_stream

SMALL_PATTERN = GopPattern.parse("IBBP")


@pytest.fixture(scope="module")
def small_stream():
    return make_video_stream(SMALL_PATTERN, gop_count=6)


@st.composite
def kernel_configs(draw):
    """Randomized configs spanning every branch the kernel mirrors."""
    layered = draw(st.booleans())
    return ProtocolConfig(
        gops_per_window=draw(st.integers(min_value=1, max_value=2)),
        gop_size=4,
        p_good=draw(st.floats(min_value=0.5, max_value=1.0, allow_nan=False)),
        p_bad=draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False)),
        layered=layered,
        scramble=layered and draw(st.booleans()),
        retransmit_anchors=draw(st.booleans()),
        lossy_feedback=draw(st.booleans()),
        closed_gops=draw(st.booleans()),
        burst_policy=draw(st.sampled_from(["equation1", "quantile"])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def _drive_kernel(stream, config, max_windows):
    """Step one row through ``max_windows`` via the public kernel API."""
    windows = list(stream.windows(config.window_frames))[:max_windows]
    shapes = {}
    infos = [
        kernel.WindowInfo(window, config, stream.fps, shapes)
        for window in windows
    ]
    row = kernel.SessionRow(config, config.seed)
    control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps
    for index, info in enumerate(infos):
        kernel.step_window(
            [row],
            info,
            config,
            stream.fps,
            index,
            control_serialization=control,
        )
    return row.result


class TestStepWindowParity:
    @given(kernel_configs())
    @settings(max_examples=25, deadline=None)
    def test_steps_equal_session_windows(
        self, small_stream, kernel_implementations, config
    ):
        expected = ProtocolSession(small_stream, config).run(max_windows=3)
        for impl in kernel_implementations():
            actual = _drive_kernel(small_stream, config, 3)
            assert actual == expected, f"{impl} diverged"

    def test_parity_on_every_backend(self, small_stream, kernel_implementations):
        config = ProtocolConfig(gop_size=4, seed=11)
        previous = accel.backend_name()
        try:
            for name in accel.available_backends():
                accel.set_backend(name)
                expected = ProtocolSession(small_stream, config).run(
                    max_windows=3
                )
                for impl in kernel_implementations():
                    actual = _drive_kernel(small_stream, config, 3)
                    assert actual == expected, (
                        f"backend {name!r} {impl} diverged"
                    )
        finally:
            accel.set_backend(previous)

    def test_mixed_seed_fleet_matches_solo_rows(self, small_stream):
        """A fleet stepping in lockstep equals each row run alone."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5, seed=0)
        windows = list(stream_windows(small_stream, config))[:3]
        shapes = {}
        infos = [
            kernel.WindowInfo(window, config, small_stream.fps, shapes)
            for window in windows
        ]
        control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps
        rows = [kernel.SessionRow(config, seed) for seed in (3, 7, 19)]
        for index, info in enumerate(infos):
            kernel.step_window(
                rows,
                info,
                config,
                small_stream.fps,
                index,
                control_serialization=control,
            )
        for row, seed in zip(rows, (3, 7, 19)):
            solo = ProtocolSession(
                small_stream, replace(config, seed=seed)
            ).run(max_windows=3)
            assert row.result == solo

    def test_zero_share_row(self, small_stream, kernel_implementations):
        """A starved row (1 bps) sheds every frame at the sender."""
        config = ProtocolConfig(gop_size=4, bandwidth_bps=1.0, seed=5)
        expected = ProtocolSession(small_stream, config).run(max_windows=2)
        for _ in kernel_implementations():
            actual = _drive_kernel(small_stream, config, 2)
            assert actual == expected
            assert actual.windows[0].sent == 0
            assert actual.windows[0].dropped_at_sender == len(
                actual.windows[0].transmission_order
            )

    def test_boundary_exact_admission(self, kernel_implementations):
        """Frames whose serialization lands exactly on the window end.

        With dyadic frame times (1/32 s at 32 fps) the last frame of
        every window completes exactly at the cycle boundary — the
        strict ``>`` budget must admit it, on both implementations, and
        the link must end the window exactly busy until the boundary.
        """
        frames = 4
        stream = MediaStream(
            ldus=tuple(
                Ldu(index=i, frame_type=FrameType.X, size_bits=8192)
                for i in range(frames * 4)
            ),
            fps=32.0,
        )
        config = ProtocolConfig(
            gops_per_window=1,
            gop_size=frames,
            bandwidth_bps=262144.0,  # 8192 bits -> exactly 1/32 s
            p_good=1.0,
            p_bad=0.0,
            seed=1,
        )
        expected = ProtocolSession(stream, config).run(max_windows=4)
        for _ in kernel_implementations():
            actual = _drive_kernel(stream, config, 4)
            assert actual == expected
            for window in actual.windows:
                assert window.sent == frames
                assert window.dropped_at_sender == 0

    def test_run_session_routes_through_kernel(self, small_stream):
        from repro.core.protocol import run_session

        config = ProtocolConfig(gop_size=4, seed=9)
        assert run_session(small_stream, config, max_windows=3) == (
            ProtocolSession(small_stream, config).run(max_windows=3)
        )


#: (config, fleet size, duplicate each window's in-flight ACK).  Most
#: rows of the clean 64-row fleet share one ACK message per window.
STATE_CASES = {
    "layered-scrambled": (
        ProtocolConfig(gop_size=4, p_good=0.85, p_bad=0.6, lossy_feedback=False),
        8,
        False,
    ),
    "quantile": (
        ProtocolConfig(
            gop_size=4, p_good=0.85, p_bad=0.6, burst_policy="quantile"
        ),
        8,
        False,
    ),
    "lossy-feedback-stale": (
        ProtocolConfig(gop_size=4, p_good=0.8, p_bad=0.6, lossy_feedback=True),
        8,
        True,
    ),
    "fleet-64": (ProtocolConfig(gop_size=4, p_good=0.995, p_bad=0.5), 64, False),
}
STATE_WINDOWS = 8


def _adaptation_state(controller, estimator, collector):
    """Equation-1 estimators, Gilbert-fit counts and ACK collector counts."""
    return (
        {
            layer: (est.window, est.estimate, est.observations)
            for layer, est in controller.layers.items()
        },
        vars(estimator),
        (collector.received, collector.ignored_stale),
    )


def _duplicate_acks(pending, index):
    """``pending`` plus a copy of window ``index``'s ACK, if in flight."""
    return pending + [item for item in pending if item[1].window_index == index]


class TestAdaptationState:
    @pytest.mark.parametrize("case", sorted(STATE_CASES))
    def test_rows_keep_the_sessions_adaptation_state(
        self, case, kernel_implementations
    ):
        """Every window leaves each row's estimators equal to its session's.

        The duplicate case copies each window's in-flight ACK on both
        sides, so the copy reaches the collector as a stale message.
        """
        config, fleet, duplicate = STATE_CASES[case]
        stream = make_video_stream(SMALL_PATTERN, gop_count=2 * STATE_WINDOWS)
        seeds = list(range(1, fleet + 1))
        windows = list(stream_windows(stream, config))[:STATE_WINDOWS]
        control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps
        for impl in kernel_implementations():
            sessions = [
                ProtocolSession(stream, replace(config, seed=seed))
                for seed in seeds
            ]
            rows = [kernel.SessionRow(config, seed) for seed in seeds]
            shapes = {}
            shared_ack = 0
            for index, window in enumerate(windows):
                info = kernel.WindowInfo(window, config, stream.fps, shapes)
                kernel.step_window(
                    rows,
                    info,
                    config,
                    stream.fps,
                    index,
                    control_serialization=control,
                )
                for session in sessions:
                    session.run_window(index, window)
                if duplicate:
                    for row, session in zip(rows, sessions):
                        row.pending = _duplicate_acks(row.pending, index)
                        session._pending_acks = _duplicate_acks(
                            session._pending_acks, index
                        )
                for seed, row, session in zip(seeds, rows, sessions):
                    assert _adaptation_state(
                        row.controller, row.estimator, row.collector
                    ) == _adaptation_state(
                        session.controller,
                        session.channel_estimator,
                        session.collector,
                    ), (impl, index, seed)
                sharing = {}
                for row in rows:
                    for _, feedback in row.pending:
                        key = id(feedback.burst_estimates)
                        sharing[key] = sharing.get(key, 0) + 1
                shared_ack = max([shared_ack, *sharing.values()])
            if duplicate:
                assert sum(row.collector.ignored_stale for row in rows) > 0
            if fleet == 64:
                assert shared_ack > 48, shared_ack


def stream_windows(stream, config):
    return stream.windows(config.window_frames)


def _reference_info(window, config, fps, bandwidth):
    """``WindowInfo``'s fields computed from scratch, per share."""
    from repro.network.packet import fragments_needed

    n = len(window)
    packet_size = config.packet_size_bytes
    frag_counts, frag_times, frame_ser = [], [], []
    for ldu in window:
        count = fragments_needed(ldu.size_bits, packet_size)
        remaining = ldu.size_bytes
        times = []
        for _ in range(count):
            payload = min(packet_size, max(remaining, 0))
            times.append(payload * 8.0 / bandwidth)
            remaining -= payload
        frag_counts.append(count)
        frag_times.append(tuple(times))
        frame_ser.append(ldu.size_bytes * 8.0 / bandwidth)
    return {
        "n": n,
        "cycle": n / fps,
        "anchors": frozenset(
            offset for offset in range(n) if window[offset].frame_type.is_anchor
        ),
        "frag_counts": tuple(frag_counts),
        "frag_times": tuple(frag_times),
        "frame_ser": tuple(frame_ser),
        "first_attempt_packets": sum(frag_counts),
    }


@st.composite
def layout_cases(draw):
    """(stream, config, bandwidths): GOP or independent, odd sizes."""
    gop = draw(st.booleans())
    gop_size = 4
    gops_per_window = draw(st.integers(min_value=1, max_value=2))
    # Non-multiples of the window length leave a partial tail window.
    count = draw(st.integers(min_value=1, max_value=3 * gops_per_window * gop_size))
    if gop:
        count = gop_size * max(1, count // gop_size)
    # Zero-size LDUs, sub-packet frames and multi-fragment frames.
    sizes = draw(
        st.lists(
            st.one_of(
                st.just(0), st.integers(min_value=1, max_value=200_000)
            ),
            min_size=count,
            max_size=count,
        )
    )
    if gop:
        stream = make_video_stream(
            SMALL_PATTERN, gop_count=count // gop_size, sizes_bits=sizes
        )
    else:
        stream = MediaStream(
            ldus=tuple(
                Ldu(index=i, frame_type=FrameType.X, size_bits=size)
                for i, size in enumerate(sizes)
            ),
            fps=draw(st.sampled_from([24.0, 30.0])),
        )
    config = ProtocolConfig(
        gops_per_window=gops_per_window,
        gop_size=gop_size,
        packet_size_bytes=draw(st.integers(min_value=1, max_value=30_000)),
        layered=gop,
    )
    bandwidths = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e10, allow_nan=False),
            min_size=2,
            max_size=5,
        )
    )
    return stream, config, bandwidths


class TestWindowLayout:
    """``WindowInfo`` built off the cached layout equals a fresh build."""

    @given(layout_cases())
    @settings(max_examples=60, deadline=None)
    def test_cached_layout_matches_reference(self, case):
        stream, config, bandwidths = case
        shapes = {}
        for window in stream.windows(config.window_frames):
            shape = None
            for bandwidth in bandwidths:
                info = kernel.WindowInfo(
                    window, config, stream.fps, shapes, bandwidth_bps=bandwidth
                )
                expected = _reference_info(window, config, stream.fps, bandwidth)
                for name, value in expected.items():
                    # == on tuples of floats is exact equality.
                    assert getattr(info, name) == value, name
                assert info.schedules == {}
                # Every share of one window shares one shape object.
                if shape is None:
                    shape = info.shape
                assert info.shape is shape

    def test_default_bandwidth_is_the_configs(self, small_stream):
        config = ProtocolConfig(gop_size=4, bandwidth_bps=3_000_000.0)
        window = next(iter(small_stream.windows(config.window_frames)))
        shapes = {}
        implicit = kernel.WindowInfo(window, config, small_stream.fps, shapes)
        explicit = kernel.WindowInfo(
            window,
            replace(config, bandwidth_bps=1.0),
            small_stream.fps,
            shapes,
            bandwidth_bps=3_000_000.0,
        )
        assert implicit.frag_times == explicit.frag_times
        assert implicit.frame_ser == explicit.frame_ser

    def test_layout_cached_once_per_window_and_packet_size(self, small_stream):
        config = ProtocolConfig(gop_size=4)
        window = next(iter(small_stream.windows(config.window_frames)))
        shapes = {}
        first = kernel.window_layout(window, config, shapes)
        assert kernel.window_layout(window, config, shapes) is first
        smaller = replace(config, packet_size_bytes=1024)
        other = kernel.window_layout(window, smaller, shapes)
        assert other is not first
        assert other.shape is first.shape
        assert sum(other.frag_counts) > sum(first.frag_counts)


class TestPrefetchHorizon:
    """Prefetch depth is capped at the windows a row still has to step."""

    def test_depth_counts_down_to_one_window(self, small_stream):
        config = ProtocolConfig(gop_size=4)
        unbounded = kernel.SessionRow(config, 1)
        assert kernel.prefetch_windows(unbounded) == kernel.PREFETCH_WINDOWS
        row = kernel.SessionRow(config, 1, horizon=3)
        depths = []
        for _ in range(3):
            depths.append(kernel.prefetch_windows(row))
            row.result.windows.append(None)
        assert depths == [3, 2, 1]
        long_row = kernel.SessionRow(config, 1, horizon=100)
        assert kernel.prefetch_windows(long_row) == kernel.PREFETCH_WINDOWS

    def test_loss_heavy_last_window_refills_mid_window(
        self, kernel_implementations
    ):
        """Retransmissions overrun a one-window buffer; parity holds.

        With ``max_windows=1`` the capped prefetch draws exactly the
        window's first-attempt packets plus slack.  A lossy channel with
        idle air time retransmits lost anchors past that slack, so the
        sender refills mid-window off the same private stream.
        """
        from repro import obs
        from repro.core.batch import run_sessions_batch
        from repro.media.gop import GOP_12

        stream = make_video_stream(GOP_12, gop_count=4)
        config = ProtocolConfig(
            p_good=0.5, p_bad=0.9, retransmit_anchors=True, bandwidth_bps=4e6
        )
        seeds = list(range(8))
        expected = [
            ProtocolSession(stream, replace(config, seed=seed)).run(max_windows=1)
            for seed in seeds
        ]
        for impl in kernel_implementations():
            registry = obs.enable()
            obs.reset()
            try:
                got = run_sessions_batch(stream, config, seeds=seeds, max_windows=1)
                refills = registry.snapshot()["counters"].get("batch.refills", 0)
            finally:
                obs.disable()
            assert got == expected, f"{impl} diverged"
            assert refills > 0, f"{impl} never refilled mid-window"
