"""Kernel observability: cohort collapse and batch width.

Satellite contract of the unified window-step kernel: every step
reports how many rows it carried (``kernel.steps`` / ``kernel.rows`` /
the ``kernel.rows_per_window`` histogram) and how the cohort split
between full collapse, shared-timeline collapse, the array program's
lost-anchor replay and the scalar tail (``kernel.collapse.*``), on both
implementations of the step.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig
from repro.media.gop import GopPattern
from repro.media.stream import make_video_stream

SEEDS = (1, 2, 3, 4)
MAX_WINDOWS = 3


@pytest.fixture
def stream():
    return make_video_stream(GopPattern.parse("IBBP"), gop_count=6)


@pytest.fixture
def tracked():
    registry = obs.enable()
    obs.reset()
    yield registry
    obs.disable()


def _counters(registry, stream, config):
    obs.reset()
    run_sessions_batch(
        stream, config, seeds=list(SEEDS), max_windows=MAX_WINDOWS
    )
    return registry.snapshot()


class TestKernelCounters:
    def test_steps_rows_and_dispatch_fused(
        self, tracked, stream, kernel_implementations
    ):
        config = ProtocolConfig(gop_size=4, p_good=0.95, p_bad=0.5)
        for impl in kernel_implementations():
            counters = _counters(tracked, stream, config)["counters"]
            assert counters["kernel.steps"] == MAX_WINDOWS, impl
            assert counters["kernel.rows"] == MAX_WINDOWS * len(SEEDS), impl

    def test_collapse_split_accounts_for_every_row(
        self, tracked, stream, kernel_implementations
    ):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        for impl in kernel_implementations():
            counters = _counters(tracked, stream, config)["counters"]
            split = (
                counters.get("kernel.collapse.full", 0)
                + counters.get("kernel.collapse.timeline", 0)
                + counters.get("kernel.collapse.replay", 0)
                + counters.get("kernel.collapse.scalar", 0)
            )
            assert split == counters["kernel.rows"], impl

    def test_lossless_fleet_fully_collapses(
        self, tracked, stream, kernel_implementations
    ):
        """With no channel losses every row rides the shared verdict."""
        config = ProtocolConfig(gop_size=4, p_good=1.0, p_bad=0.0)
        for impl in kernel_implementations():
            counters = _counters(tracked, stream, config)["counters"]
            assert counters["kernel.collapse.full"] == counters["kernel.rows"], impl
            assert counters.get("kernel.collapse.scalar", 0) == 0, impl

    def test_rows_per_window_histogram(self, tracked, stream):
        config = ProtocolConfig(gop_size=4)
        snapshot = _counters(tracked, stream, config)
        hist = snapshot["histograms"]["kernel.rows_per_window"]
        assert hist["count"] == MAX_WINDOWS
        assert hist["min"] == len(SEEDS)
        assert hist["max"] == len(SEEDS)
