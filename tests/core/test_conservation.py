"""Conservation invariants of every window, on every implementation and backend.

An oracle that shares no code with the engines: whatever path stepped a
window (cohort loop, array program with its timeline scoring,
lost-anchor replay or scalar tail), its
:class:`~repro.core.protocol.WindowResult` must balance —

* every frame is sent or dropped at the sender;
* every delivered frame (first attempts not lost, plus recoveries) is
  received on time or late;
* every frame is decodable or a unit loss;
* shed frames are a subset of the sender's drops;
* a recovery needs a retransmission and a frame lost in the network;
* a consecutive loss run cannot exceed the unit losses.

The configs are chosen to stress the sender: heavy retransmission, load
shedding and budgets too small for the window.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import accel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.serve import bandwidth, service
from repro.serve.admission import estimate_demand
from repro.serve.loadgen import LoadSpec, generate_requests


def violations(window) -> list:
    """Names of the invariants ``window`` breaks."""
    checks = {
        "sent + dropped_at_sender == frames": (
            window.sent + window.dropped_at_sender == window.frames
        ),
        "received + late == sent - lost_in_network + recovered": (
            len(window.received) + window.late
            == window.sent - window.lost_in_network + window.recovered
        ),
        "unit_losses == frames - decodable": (
            window.unit_losses == window.frames - len(window.decodable)
        ),
        "shed <= dropped_at_sender": window.shed <= window.dropped_at_sender,
        "recovered <= min(retransmissions, lost_in_network)": (
            window.recovered <= min(window.retransmissions, window.lost_in_network)
        ),
        "clf <= unit_losses": window.clf <= window.unit_losses,
    }
    return [name for name, holds in checks.items() if not holds]


@pytest.fixture(autouse=True)
def _restore_backend():
    backend = accel.backend_name()
    yield
    accel.set_backend(backend)


@pytest.fixture(params=[False, True], ids=["dispatch", "replay-all"])
def replay_floor(request, monkeypatch):
    """The array program's scan at its own floor, or on every cohort."""
    if request.param and "numpy" in accel.available_backends():
        from repro.core.native import step

        monkeypatch.setattr(step, "_REPLAY_MIN_ROWS", 1)


def _every_engine(implementations):
    for backend in accel.available_backends():
        accel.set_backend(backend)
        for impl in implementations():
            yield backend, impl


def _checked(windows) -> dict:
    """Assert every window balances; return totals of what they did."""
    totals = {"windows": 0, "retransmissions": 0, "recovered": 0, "shed": 0}
    budget_drops = 0
    for window in windows:
        assert violations(window) == [], window
        totals["windows"] += 1
        totals["retransmissions"] += window.retransmissions
        totals["recovered"] += window.recovered
        totals["shed"] += window.shed
        budget_drops += window.dropped_at_sender - window.shed
    totals["budget_drops"] = budget_drops
    return totals


STREAM = make_video_stream(GOP_12, gop_count=2 * 6)

BATCH_CONFIGS = {
    # Long bad bursts and a short round trip: anchors retry many times.
    "retry-heavy": ProtocolConfig(p_good=0.7, p_bad=0.75, rtt=0.004),
    # The window's frames need more air time than one cycle.
    "budget-exhausting": ProtocolConfig(p_good=0.85, bandwidth_bps=500_000.0),
}


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_batch_windows_balance(name, replay_floor, kernel_implementations):
    config = BATCH_CONFIGS[name]
    for backend, impl in _every_engine(kernel_implementations):
        results = run_sessions_batch(
            STREAM, config, seeds=list(range(24)), max_windows=6
        )
        totals = _checked(
            window for result in results for window in result.windows
        )
        assert totals["windows"] == 24 * 6, (backend, impl)
        assert totals["retransmissions"] > 0 and totals["recovered"] > 0
        if name == "budget-exhausting":
            assert totals["budget_drops"] > 0, (backend, impl)


def test_served_windows_balance_under_shedding(replay_floor, kernel_implementations):
    spec = LoadSpec(
        sessions=32,
        seed=4,
        mean_interarrival=1e-3,
        gop_count=8,
        max_windows=4,
        config=ProtocolConfig(p_good=0.8),
    )
    requests = generate_requests(spec)
    probe = generate_requests(replace(spec, sessions=1))[0]
    demand, _ = estimate_demand(probe.stream, probe.config, max_windows=4)
    capacity = spec.sessions * demand / 1.3
    for backend, impl in _every_engine(kernel_implementations):
        served = service.serve_sessions(
            requests,
            capacity,
            fast=True,
            scheduler=bandwidth.PriorityScheduler(),
        )
        totals = _checked(
            window
            for outcome in served.outcomes
            if outcome.admitted and outcome.result is not None
            for window in outcome.result.windows
        )
        assert totals["shed"] > 0, (backend, impl)
        assert totals["retransmissions"] > 0, (backend, impl)
