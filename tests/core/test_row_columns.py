"""Per-row shares and shed sets: one kernel step for a mixed batch.

A row's bottleneck share reaches the kernel as its own
:class:`~repro.core.kernel.WindowInfo` (:attr:`SessionRow.info`), and
its shed set through the ``shed_for`` hook, so rows at many shares and
shed sets step in one :func:`~repro.core.kernel.step_window` call.  The
properties here pin, on both implementations of the step, that such a
batch equals one :class:`~repro.core.protocol.ProtocolSession` per row
run at the row's share and shedding the row's frames, and equals
stepping each share group alone; and that shedding rows take the
collapse paths rather than the scalar sender, with the same results.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel, obs
from repro.core import kernel
from repro.core.protocol import ProtocolConfig, ProtocolSession
from repro.media.gop import GopPattern
from repro.media.stream import make_video_stream

STREAM = make_video_stream(GopPattern.parse("IBBP"), gop_count=6)
WINDOWS = 3

#: Share fractions of the config's own rate: unconstrained, mildly and
#: heavily constrained, and starved (every frame misses the budget).
FRACTIONS = (1.0, 0.8, 0.55, 0.3, 1e-6)


@pytest.fixture(autouse=True)
def _restore_backend():
    backend = accel.backend_name()
    yield
    accel.set_backend(backend)


class _Row(kernel.SessionRow):
    """A row carrying its share and shed mask for the test hooks."""

    __slots__ = ("share", "mask")


def _rotated(mask: int, n: int, turn: int) -> frozenset:
    """The offsets of an ``n``-frame window that ``mask`` sheds at ``turn``."""
    return frozenset(
        offset for offset in range(n) if mask >> ((offset + turn) % n) & 1
    )


def _shed_for(row: _Row, plan) -> frozenset:
    """A per-row shed set that moves with the window index."""
    return _rotated(row.mask, len(plan.order), len(row.result.windows))


class _ShedSession(ProtocolSession):
    """The object engine shedding exactly what ``_shed_for`` sheds."""

    def __init__(self, stream, config, mask: int) -> None:
        super().__init__(stream, config)
        self.mask = mask

    def _shed_frames(self, window_index, window, plan) -> frozenset:
        return _rotated(self.mask, len(plan.order), window_index)


def _sessions(config, cases):
    """One :class:`ProtocolSession` per case, at the case's share.

    A row's result carries its batch's config, so only the oracle's
    ``bandwidth_bps`` is set back to the batch's before comparing.
    """
    results = []
    for seed, share, mask in cases:
        session = _ShedSession(
            STREAM, replace(config, seed=seed, bandwidth_bps=share), mask
        )
        result = session.run(max_windows=WINDOWS)
        results.append(
            replace(
                result,
                config=replace(result.config, bandwidth_bps=config.bandwidth_bps),
            )
        )
    return results


def _ack(row: _Row) -> float:
    return kernel.CONTROL_PACKET_BYTES * 8.0 / row.share


def _infos(config, shares):
    """Per-share window infos over one shape cache."""
    shapes: dict = {}
    windows = list(STREAM.windows(config.window_frames))[:WINDOWS]
    return {
        share: [
            kernel.WindowInfo(window, config, STREAM.fps, shapes, bandwidth_bps=share)
            for window in windows
        ]
        for share in shares
    }


def _rows(config, cases):
    rows = []
    for seed, share, mask in cases:
        row = _Row(config, seed)
        row.share = share
        row.mask = mask
        rows.append(row)
    return rows


def _step_mixed(config, cases):
    """Every row in one ``FleetBatch`` per window; shares ride on ``row.info``."""
    shares = sorted({share for _, share, _ in cases})
    infos = _infos(config, shares)
    rows = _rows(config, cases)
    for index in range(WINDOWS):
        for row in rows:
            row.info = infos[row.share][index]
        batch = kernel.FleetBatch(
            rows=rows,
            info=infos[shares[0]][index],
            config=config,
            fps=STREAM.fps,
            window_index=index,
            control_serialization=_ack,
            shed_for=_shed_for,
        )
        kernel.step_fleet([batch])
    return [row.result for row in rows]


def _step_grouped(config, cases):
    """Each share group stepped alone on its own info (no ``row.info``)."""
    results = {}
    for share in sorted({share for _, share, _ in cases}):
        group = [case for case in cases if case[1] == share]
        infos = _infos(config, [share])[share]
        rows = _rows(config, group)
        for index, info in enumerate(infos):
            kernel.step_window(
                rows,
                info,
                config,
                STREAM.fps,
                index,
                control_serialization=kernel.CONTROL_PACKET_BYTES * 8.0 / share,
                shed_for=_shed_for,
            )
        for case, row in zip(group, rows):
            results[case] = row.result
    return [results[case] for case in cases]


@st.composite
def mixed_batches(draw):
    layered = draw(st.booleans())
    config = ProtocolConfig(
        gops_per_window=draw(st.integers(min_value=1, max_value=2)),
        gop_size=4,
        p_good=draw(st.floats(min_value=0.6, max_value=1.0, allow_nan=False)),
        p_bad=draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False)),
        layered=layered,
        scramble=layered and draw(st.booleans()),
        retransmit_anchors=draw(st.booleans()),
        lossy_feedback=draw(st.booleans()),
        burst_policy=draw(st.sampled_from(["equation1", "quantile"])),
    )
    cases = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from(FRACTIONS).map(lambda f: f * config.bandwidth_bps),
                # Mostly light shedding, sometimes none, sometimes heavy.
                st.one_of(
                    st.just(0),
                    st.integers(min_value=0, max_value=2**8 - 1),
                    st.integers(min_value=0, max_value=2**16 - 1),
                ),
            ),
            min_size=2,
            max_size=8,
            unique_by=lambda case: case[0],
        )
    )
    return config, cases


class TestMixedShareBatch:
    @given(mixed_batches())
    @settings(max_examples=30, deadline=None)
    def test_mixed_batch_equals_share_groups_alone(
        self, kernel_implementations, case
    ):
        config, cases = case
        expected = _sessions(config, cases)
        for impl in kernel_implementations():
            grouped = _step_grouped(config, cases)
            assert grouped == expected, impl
            assert _step_mixed(config, cases) == grouped, impl

    def test_on_every_backend(self, kernel_implementations):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5, lossy_feedback=True)
        rate = config.bandwidth_bps
        cases = [
            (seed, fraction * rate, mask)
            for seed, fraction, mask in (
                (1, 1.0, 0),
                (2, 0.8, 0b1010_0000),
                (3, 0.55, 0),
                (4, 0.55, 0b1100_0000_0000),
                (5, 0.3, 0b1),
                (6, 1e-6, 0),
            )
        ]
        for name in accel.available_backends():
            accel.set_backend(name)
            expected = _sessions(config, cases)
            for impl in kernel_implementations():
                assert _step_mixed(config, cases) == expected, (name, impl)


class TestShedRowsCollapse:
    """A shed row that loses no anchor never needs the scalar sender."""

    def _cases(self, config, seeds, mask):
        return [(seed, config.bandwidth_bps, mask) for seed in seeds]

    def _run(self, config, seeds, mask):
        registry = obs.enable()
        obs.reset()
        try:
            results = _step_mixed(config, self._cases(config, seeds, mask))
            counters = registry.snapshot()["counters"]
        finally:
            obs.disable()
        return results, counters

    @pytest.mark.parametrize(
        "channel, path",
        [
            (dict(p_good=1.0, p_bad=0.0), "kernel.collapse.full"),
            # Lossy, but without anchor retransmission no row can need
            # the data-dependent retransmission tail.
            (dict(p_good=0.8, p_bad=0.6, retransmit_anchors=False), None),
        ],
    )
    def test_shed_rows_take_collapse_paths(self, channel, path):
        config = replace(ProtocolConfig(gop_size=4), **channel)
        seeds = range(1, 9)
        mask = 0b0110_0110  # B frames of the IBBP pattern
        for name in accel.available_backends():
            accel.set_backend(name)
            expected = _sessions(config, self._cases(config, seeds, mask))
            assert all(
                window.shed > 0 for result in expected for window in result.windows
            )
            results, counters = self._run(config, seeds, mask)
            assert results == expected, name
            assert counters.get("kernel.collapse.scalar", 0) == 0, name
            collapsed = counters.get("kernel.collapse.full", 0) + counters.get(
                "kernel.collapse.timeline", 0
            )
            assert collapsed == WINDOWS * len(seeds), name
            if path is not None:
                assert counters[path] == WINDOWS * len(seeds), name
            else:
                assert counters.get("kernel.collapse.timeline", 0) > 0

    def test_shed_row_losing_an_anchor_replays(self, monkeypatch):
        """Shed + lost anchor: replayed in columns by the array program,
        ``run_row_sender`` in the cohort loop, equal results either way."""
        if "numpy" in accel.available_backends():
            from repro.core.native import step

            # Eight rows are below the scan's dispatch floor.
            monkeypatch.setattr(step, "_REPLAY_MIN_ROWS", 1)
        config = ProtocolConfig(gop_size=4, p_good=0.5, p_bad=0.9)
        seeds = range(1, 9)
        mask = 0b0110_0110
        expected = _sessions(config, self._cases(config, seeds, mask))
        for name in accel.available_backends():
            accel.set_backend(name)
            results, counters = self._run(config, seeds, mask)
            assert results == expected, name
            path = "replay" if name == "numpy" else "scalar"
            assert counters.get(f"kernel.collapse.{path}", 0) > 0, name
