"""The fused tier's two implementations: dispatch, plumbing and parity.

``fused`` runs the array program (:mod:`repro.core.native`) when the
accel backend is NumPy and the window has at most 63 frames, and the
pure-Python cohort loop (``kernel._step_cohorts``) otherwise.  The
contract pinned here, beyond the general parity batteries:

* **Tier plumbing.**  ``reference`` and ``fused`` are the only tiers;
  ``native`` is not a tier name.
* **Silent dispatch.**  The per-step choice never warns: the pure
  backend and a 72-frame window run the cohort loop with results equal
  to the reference tier.
* **One column ABI.**  Rows stepped by either implementation, or by the
  reference tier, snapshot to the same :class:`FleetState` columns.
* **Serving shapes.**  A flash-crowd fleet with premium viewers,
  per-row shares, shedding and lost anchors is bit-for-bit equal on
  the reference tier, the array program and the cohort loop.
* **One receiver pass per step.**  The array receiver scores exactly
  the step's timeline-collapse rows, in one call per window step.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import replace

import pytest

from repro import accel, obs
from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.media.gop import GopPattern
from repro.media.stream import make_video_stream
from repro.serve import bandwidth, service
from repro.serve.admission import estimate_demand
from repro.serve.loadgen import LoadSpec, generate_requests

np = pytest.importorskip("numpy") if accel.backend_name() == "numpy" else None

SEEDS = (3, 5, 8, 13, 21, 34)
MAX_WINDOWS = 4


@pytest.fixture
def stream():
    return make_video_stream(GopPattern.parse("IBBP"), gop_count=8)


@pytest.fixture(autouse=True)
def _restore_tier_and_backend():
    tier = kernel.tier_name()
    backend = accel.backend_name()
    yield
    kernel.set_tier(tier)
    accel.set_backend(backend)


def _canon(results):
    return [(result.windows, result.series) for result in results]


def _sweep(stream, config, tier):
    kernel.set_tier(tier)
    return run_sessions_batch(
        stream, config, seeds=list(SEEDS), max_windows=MAX_WINDOWS
    )


def _steps_by(monkeypatch):
    """Count the steps each fused-tier implementation takes."""
    from repro.core import native

    calls = {"array": 0, "cohorts": 0}
    array_step = native.step_native
    cohort_step = kernel._step_cohorts

    def spy_array(*args):
        calls["array"] += 1
        array_step(*args)

    def spy_cohorts(*args):
        calls["cohorts"] += 1
        cohort_step(*args)

    monkeypatch.setattr(native, "step_native", spy_array)
    monkeypatch.setattr(kernel, "_step_cohorts", spy_cohorts)
    return calls


class TestTierPlumbing:
    def test_every_available_tier_round_trips_set_tier(self):
        for tier in kernel.available_tiers():
            assert kernel.set_tier(tier) == tier
            assert kernel.tier_name() == tier

    def test_auto_does_not_resolve_to_native(self):
        assert kernel.available_tiers() == ("reference", "fused")
        assert kernel.set_tier(kernel.AUTO) == kernel.FUSED

    def test_native_is_not_a_tier(self):
        with pytest.raises(ConfigurationError):
            kernel.set_tier("native")


class TestGracefulFallback:
    def test_wide_window_downgrades_to_fused(self, stream, monkeypatch):
        """A 72-frame window runs the cohort loop, silently and exactly."""
        # 6 GOPs of 12 frames = 72 > the 63-bit received mask.
        wide = make_video_stream(GopPattern.parse("IBBPBBPBBPBB"), gop_count=12)
        config = ProtocolConfig(gops_per_window=6, p_good=0.9, p_bad=0.5)
        expected = _sweep(wide, config, kernel.REFERENCE)
        calls = _steps_by(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sweep(wide, config, kernel.FUSED)
        assert _canon(got) == _canon(expected)
        assert calls == {"array": 0, "cohorts": len(expected[0].windows)}


class TestDispatch:
    def test_pure_backend_runs_the_cohort_loop_silently(
        self, stream, monkeypatch
    ):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        expected = _sweep(stream, config, kernel.REFERENCE)
        accel.set_backend("pure")
        calls = _steps_by(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sweep(stream, config, kernel.FUSED)
        assert _canon(got) == _canon(expected)
        assert calls == {"array": 0, "cohorts": MAX_WINDOWS}

    @pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
    def test_numpy_backend_runs_the_array_program(self, stream, monkeypatch):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        calls = _steps_by(monkeypatch)
        _sweep(stream, config, kernel.FUSED)
        assert calls == {"array": MAX_WINDOWS, "cohorts": 0}


def _step_rows(stream, config, tier, *, horizon=None):
    windows = list(stream.windows(config.window_frames))[:MAX_WINDOWS]
    shapes: dict = {}
    infos = [
        kernel.WindowInfo(window, config, stream.fps, shapes) for window in windows
    ]
    control = kernel.CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps
    rows = [kernel.SessionRow(config, seed, horizon) for seed in SEEDS]
    for index, info in enumerate(infos):
        kernel.step_window(
            rows,
            info,
            config,
            stream.fps,
            index,
            control_serialization=control,
            tier=tier,
        )
    return rows, infos


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
class TestMixedTierFleetState:
    def test_mixed_tier_snapshot_round_trips_shared_memory(
        self, stream, arena_round_trip
    ):
        """Rows stepped under different tiers share one column ABI."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        fused_rows, _ = _step_rows(stream, config, kernel.FUSED)
        reference_rows, _ = _step_rows(stream, config, kernel.REFERENCE)

        # The numeric column surface is tier-invariant: the same seeds
        # stepped under either tier snapshot to identical columns.
        assert (
            kernel.FleetState.from_rows(fused_rows).as_dict()
            == kernel.FleetState.from_rows(reference_rows).as_dict()
        )

        # And a *mixed* fleet — half array-stepped, half reference-
        # stepped — survives the shared-memory round trip unchanged.
        mixed = kernel.FleetState.from_rows(fused_rows[:3] + reference_rows[3:])
        assert arena_round_trip(mixed) == mixed

    def test_array_path_prefetch_obeys_the_horizon(self, stream):
        """Capped prefetch draws the same flags on both implementations."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        array_rows, infos = _step_rows(
            stream, config, kernel.FUSED, horizon=MAX_WINDOWS
        )
        accel.set_backend("pure")
        loop_rows, _ = _step_rows(stream, config, kernel.FUSED, horizon=MAX_WINDOWS)
        assert (
            kernel.FleetState.from_rows(array_rows).as_dict()
            == kernel.FleetState.from_rows(loop_rows).as_dict()
        )
        needed = infos[0].first_attempt_packets + kernel.PREFETCH_SLACK
        for row in array_rows:
            assert row.fwd_drawn < kernel.PREFETCH_WINDOWS * needed


# ----------------------------------------------------------------------
# Serving shapes: per-row shares, shedding and lost anchors in one step
# ----------------------------------------------------------------------

FLASH_SESSIONS = 24
FLASH_OVERLOAD = 1.2


def _flash_crowd(seed):
    """A ``serve-flash``-shaped fleet: a quarter premium, 20% over capacity."""
    spec = LoadSpec(
        sessions=FLASH_SESSIONS,
        seed=seed,
        mean_interarrival=1e-3,
        gop_count=16,
        max_windows=8,
        high_priority_fraction=0.0,
    )
    premium = set(random.Random(seed).sample(range(spec.sessions), spec.sessions // 4))
    requests = [
        replace(request, weight=2.0, priority=1) if index in premium else request
        for index, request in enumerate(generate_requests(spec))
    ]
    probe = generate_requests(replace(spec, sessions=1))[0]
    demand, _ = estimate_demand(
        probe.stream, probe.config, max_windows=spec.max_windows
    )
    return requests, spec.sessions * demand / FLASH_OVERLOAD


def _outcome(outcome):
    result = outcome.result
    return (
        outcome.request.session_id,
        outcome.admitted,
        outcome.shed_frames,
        outcome.share_bps,
        None if result is None else (result.windows, result.series),
    )


def _serve(requests, capacity):
    registry = obs.enable()
    obs.reset()
    try:
        result = service.serve_sessions(
            requests,
            capacity,
            fast=True,
            scheduler=bandwidth.PriorityScheduler(),
        )
        counters = registry.snapshot()["counters"]
    finally:
        obs.disable()
    return [_outcome(outcome) for outcome in result.outcomes], counters


@pytest.mark.parametrize("seed", [0, 1])
def test_serving_shape_parity(seed, monkeypatch):
    """Reference tier, array program and cohort loop serve one fleet alike."""
    requests, capacity = _flash_crowd(seed)
    kernel.set_tier(kernel.REFERENCE)
    expected, _ = _serve(requests, capacity)

    # The fleet exercises what the serving path feeds the kernel.
    shares = {share for _, admitted, _, share, _ in expected if admitted}
    assert len(shares) > 1
    assert any(shed for _, _, shed, _, _ in expected)

    kernel.set_tier(kernel.FUSED)
    runs = {}
    backends = ["pure"] + (["numpy"] if np is not None else [])
    for backend in backends:
        accel.set_backend(backend)
        calls = _steps_by(monkeypatch)
        runs[backend] = _serve(requests, capacity)
        monkeypatch.undo()
        implementation = "array" if backend == "numpy" else "cohorts"
        assert calls[implementation] > 0
        assert sum(calls.values()) == calls[implementation]
    for backend, (got, counters) in runs.items():
        assert got == expected, backend
        # Some rows lose an anchor (scalar tail), some are scored.
        assert counters.get("kernel.collapse.scalar", 0) > 0, backend
        assert counters.get("kernel.collapse.timeline", 0) > 0, backend
    collapse = [
        {name: value for name, value in counters.items() if "collapse" in name}
        for _, counters in runs.values()
    ]
    assert all(split == collapse[0] for split in collapse)


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
def test_array_receiver_runs_once_per_step_on_the_timeline_rows(monkeypatch):
    """One receiver pass per window step, scoring only the rows it keeps."""
    from repro.core.native import step

    from repro.core import native
    from repro.core.native import step

    requests, capacity = _flash_crowd(0)
    kernel.set_tier(kernel.FUSED)
    passes = []
    per_step = []
    receive = step._receive_timeline
    array_step = native.step_native

    def spy_receive(timeline, *args):
        passes.append(len(timeline))
        return receive(timeline, *args)

    def spy_step(*args):
        before = len(passes)
        array_step(*args)
        per_step.append(len(passes) - before)

    monkeypatch.setattr(step, "_receive_timeline", spy_receive)
    monkeypatch.setattr(native, "step_native", spy_step)
    _, counters = _serve(requests, capacity)
    assert len(per_step) == counters["kernel.steps"]
    assert set(per_step) <= {0, 1} and sum(per_step) > 0
    assert sum(passes) == counters["kernel.collapse.timeline"]
    # Lost-anchor rows went to the scalar tail without being scored.
    assert counters["kernel.collapse.scalar"] > 0
