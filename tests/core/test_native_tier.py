"""The kernel step's two implementations: dispatch and parity.

``kernel.step_window`` runs the array program (:mod:`repro.core.native`)
when the accel backend is NumPy and the window has at most 63 frames,
and the pure-Python cohort loop (``kernel._step_cohorts``) otherwise.
The contract pinned here, beyond the general parity batteries:

* **Silent dispatch.**  The per-step choice never warns: the pure
  backend and a 72-frame window run the cohort loop with results equal
  to :class:`~repro.core.protocol.ProtocolSession`.
* **One column ABI.**  Rows stepped by either implementation snapshot
  to the same :class:`FleetState` columns.
* **Serving shapes.**  A flash-crowd fleet with premium viewers,
  per-row shares, shedding and lost anchors served on the fast path by
  the array program or the cohort loop is bit-for-bit the event-loop
  service's.
* **One receiver pass per step.**  The array receiver scores exactly
  the step's timeline-collapse and replayed lost-anchor rows, in one
  call per window step.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import replace

import pytest

from repro import accel, obs
from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig, ProtocolSession
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
def _restore_backend():
    backend = accel.backend_name()
    yield
    accel.set_backend(backend)


def _sweep(stream, config):
    return run_sessions_batch(
        stream, config, seeds=list(SEEDS), max_windows=MAX_WINDOWS
    )


def _sessions(stream, config):
    """The object engine's results for the sweep's seeds."""
    return [
        ProtocolSession(stream, replace(config, seed=seed)).run(
            max_windows=MAX_WINDOWS
        )
        for seed in SEEDS
    ]


def _steps_by(monkeypatch):
    """Count the steps each implementation of the kernel step takes."""
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


class TestGracefulFallback:
    def test_wide_window_downgrades_to_fused(self, stream, monkeypatch):
        """A 72-frame window runs the cohort loop, silently and exactly."""
        # 6 GOPs of 12 frames = 72 > the 63-bit received mask.
        wide = make_video_stream(GopPattern.parse("IBBPBBPBBPBB"), gop_count=12)
        config = ProtocolConfig(gops_per_window=6, p_good=0.9, p_bad=0.5)
        expected = _sessions(wide, config)
        calls = _steps_by(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sweep(wide, config)
        assert got == expected
        assert calls == {"array": 0, "cohorts": len(expected[0].windows)}


class TestDispatch:
    def test_pure_backend_runs_the_cohort_loop_silently(
        self, stream, monkeypatch
    ):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        expected = _sessions(stream, config)
        accel.set_backend("pure")
        calls = _steps_by(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sweep(stream, config)
        assert got == expected
        assert calls == {"array": 0, "cohorts": MAX_WINDOWS}

    @pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
    def test_numpy_backend_runs_the_array_program(self, stream, monkeypatch):
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        calls = _steps_by(monkeypatch)
        _sweep(stream, config)
        assert calls == {"array": MAX_WINDOWS, "cohorts": 0}

    def test_each_implementation_turn_runs_its_own_loop(
        self, stream, monkeypatch, kernel_implementations
    ):
        """The test fixture's turns step the implementation they name."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        calls = _steps_by(monkeypatch)
        seen = {}
        for impl in kernel_implementations():
            before = dict(calls)
            _sweep(stream, config)
            seen[impl] = {key: calls[key] - before[key] for key in calls}
        assert seen.pop("cohort loop") == {"array": 0, "cohorts": MAX_WINDOWS}
        if np is not None:
            assert seen == {"array program": {"array": MAX_WINDOWS, "cohorts": 0}}
        assert kernel._ARRAY_MAX_FRAMES == 63


def _step_rows(stream, config, *, horizon=None):
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
        )
    return rows, infos


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
class TestMixedTierFleetState:
    def test_mixed_tier_snapshot_round_trips_shared_memory(
        self, stream, arena_round_trip, kernel_implementations
    ):
        """Rows stepped by either implementation share one column ABI."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        expected = _sessions(stream, config)
        stepped = {}
        for impl in kernel_implementations():
            rows, _ = _step_rows(stream, config)
            assert [row.result for row in rows] == expected, impl
            stepped[impl] = rows
        array_rows, loop_rows = stepped["array program"], stepped["cohort loop"]

        # The numeric column surface does not depend on the
        # implementation: the same seeds snapshot to identical columns.
        assert (
            kernel.FleetState.from_rows(array_rows).as_dict()
            == kernel.FleetState.from_rows(loop_rows).as_dict()
        )

        # And a *mixed* fleet — half array-stepped, half loop-stepped —
        # survives the shared-memory round trip unchanged.
        mixed = kernel.FleetState.from_rows(array_rows[:3] + loop_rows[3:])
        assert arena_round_trip(mixed) == mixed

    def test_array_path_prefetch_obeys_the_horizon(self, stream):
        """Capped prefetch draws the same flags on both implementations."""
        config = ProtocolConfig(gop_size=4, p_good=0.9, p_bad=0.5)
        array_rows, infos = _step_rows(stream, config, horizon=MAX_WINDOWS)
        accel.set_backend("pure")
        loop_rows, _ = _step_rows(stream, config, horizon=MAX_WINDOWS)
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


def _serve(requests, capacity, *, fast=True):
    registry = obs.enable()
    obs.reset()
    try:
        result = service.serve_sessions(
            requests,
            capacity,
            fast=fast,
            scheduler=bandwidth.PriorityScheduler(),
        )
        counters = registry.snapshot()["counters"]
    finally:
        obs.disable()
    return [_outcome(outcome) for outcome in result.outcomes], counters


@pytest.mark.parametrize("seed", [0, 1])
def test_serving_shape_parity(seed, monkeypatch):
    """The array program and the cohort loop serve one fleet as the
    event-loop service does."""
    requests, capacity = _flash_crowd(seed)
    expected, _ = _serve(requests, capacity, fast=False)

    # The fleet exercises what the serving path feeds the kernel.
    shares = {share for _, admitted, _, share, _ in expected if admitted}
    assert len(shares) > 1
    assert any(shed for _, _, shed, _, _ in expected)

    runs = {}
    backends = ["pure"] + (["numpy"] if np is not None else [])
    for backend in backends:
        accel.set_backend(backend)
        calls = _steps_by(monkeypatch)
        _replay_every_cohort(monkeypatch)
        runs[backend] = _serve(requests, capacity)
        monkeypatch.undo()
        implementation = "array" if backend == "numpy" else "cohorts"
        assert calls[implementation] > 0
        assert sum(calls.values()) == calls[implementation]
    for backend, (got, counters) in runs.items():
        assert got == expected, backend
        # Some rows lose an anchor (replayed or scalar), some are scored.
        assert _lost_anchor_rows(counters) > 0, backend
        assert counters.get("kernel.collapse.timeline", 0) > 0, backend
    if np is not None:
        assert runs["numpy"][1].get("kernel.collapse.replay", 0) > 0
    # The array program replays the rows the cohort loop sends to
    # ``run_row_sender``; the split is otherwise the same.
    collapse = [
        {
            "full": counters.get("kernel.collapse.full", 0),
            "timeline": counters.get("kernel.collapse.timeline", 0),
            "lost_anchor": _lost_anchor_rows(counters),
        }
        for _, counters in runs.values()
    ]
    assert all(split == collapse[0] for split in collapse)


def _replay_every_cohort(monkeypatch) -> None:
    """Let the array program replay lost-anchor cohorts of any size.

    The test fleets step fewer lost-anchor rows per window than the
    scan's dispatch floor, which would send them all to the scalar tail.
    """
    if np is None:
        return
    from repro.core.native import step

    monkeypatch.setattr(step, "_REPLAY_MIN_ROWS", 1)


def _lost_anchor_rows(counters) -> int:
    return counters.get("kernel.collapse.scalar", 0) + counters.get(
        "kernel.collapse.replay", 0
    )


@pytest.mark.skipif(np is None, reason="needs the NumPy accel backend")
def test_array_receiver_runs_once_per_step_on_the_timeline_rows(monkeypatch):
    """One receiver pass per window step, scoring only the rows it keeps."""
    from repro.core import native
    from repro.core.native import step

    requests, capacity = _flash_crowd(0)
    passes = []
    per_step = []
    receive = step._receive_timeline
    array_step = native.step_native

    def spy_receive(blocks, *args):
        passes.append(sum(len(block.entries) for block in blocks))
        return receive(blocks, *args)

    def spy_step(*args):
        before = len(passes)
        array_step(*args)
        per_step.append(len(passes) - before)

    monkeypatch.setattr(step, "_receive_timeline", spy_receive)
    monkeypatch.setattr(native, "step_native", spy_step)
    _replay_every_cohort(monkeypatch)
    _, counters = _serve(requests, capacity)
    assert len(per_step) == counters["kernel.steps"]
    assert set(per_step) <= {0, 1} and sum(per_step) > 0
    # The one pass scores the timeline rows and the replayed lost-anchor
    # rows; rows left to the scalar tail are never scored here.
    assert sum(passes) == (
        counters["kernel.collapse.timeline"] + counters["kernel.collapse.replay"]
    )
    assert counters["kernel.collapse.replay"] > 0
