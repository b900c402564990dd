"""Disabled metrics must stay close to free on the hot paths.

The strict <2% budget is enforced by ``tools/obs_overhead_guard.py``
(run by CI's bench-smoke job with many repetitions).  These tests keep
a coarser functional version of the same promise in the regular suite:
the instrumented hot paths, with metrics off, must not be measurably
slower than the identical code without the instrumentation branch.  The
threshold is loose (25%) because shared test runners are noisy; the
point here is catching accidental *always-on* recording, which costs
far more than that (about 1.6x on ``GilbertModel.losses``).

The two paths are timed in back-to-back pairs, in alternating order and
with the cyclic collector off, and the test compares the median of the
per-pair ratios: a burst of load from elsewhere on the machine then
slows both halves of a pair alike instead of only the path that happened
to be running.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import accel, obs
from repro.network.markov import BAD, GOOD, GilbertModel


def _plain_losses(model: GilbertModel, count: int) -> list:
    """``GilbertModel.losses`` body with the obs branch removed."""
    draws = [model._rng.random() for _ in range(count)]
    states = accel.gilbert_states(
        draws, model.p_good, model.p_bad, start_bad=model._state == BAD
    )
    if states:
        model._state = BAD if states[-1] else GOOD
    return states


def _paired_ratio(func, baseline, pairs: int) -> float:
    """Median over ``pairs`` back-to-back runs of ``func``/``baseline`` time."""
    ratios = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(pairs):
            order = (func, baseline) if index % 2 == 0 else (baseline, func)
            elapsed = {}
            for call in order:
                started = time.perf_counter()
                call()
                elapsed[call] = time.perf_counter() - started
            ratios.append(elapsed[func] / elapsed[baseline])
    finally:
        if enabled:
            gc.enable()
    return statistics.median(ratios)


class TestDisabledOverhead:
    def test_disabled_losses_overhead_is_small(self):
        obs.disable()
        batch = 50_000
        instrumented = GilbertModel(p_good=0.92, p_bad=0.6, seed=3)
        baseline = GilbertModel(p_good=0.92, p_bad=0.6, seed=3)
        ratio = _paired_ratio(
            lambda: instrumented.losses(batch),
            lambda: _plain_losses(baseline, batch),
            pairs=15,
        )
        assert ratio <= 1.25

    def test_disabled_updates_allocate_no_instruments(self):
        obs.disable()
        before = obs.snapshot()
        model = GilbertModel(p_good=0.92, p_bad=0.6, seed=3)
        model.losses(1000)
        for _ in range(100):
            model.step()
        accel.burst_runs(list(range(12)), 3)
        assert obs.snapshot() == before

    def test_enabled_records_channel_batch(self):
        registry = obs.enable()
        obs.reset()
        model = GilbertModel(p_good=0.92, p_bad=0.6, seed=3)
        states = model.losses(5000)
        obs.disable()
        snap = registry.snapshot()
        assert snap["counters"]["channel.packets"] == 5000
        assert snap["counters"]["channel.losses"] == sum(states)
        runs = snap["histograms"]["channel.loss_run"]
        assert runs["total"] == float(sum(states))

    def test_step_and_losses_agree_on_counts(self):
        registry = obs.enable()
        obs.reset()
        model = GilbertModel(p_good=0.92, p_bad=0.6, seed=3)
        lost = sum(model.step() for _ in range(500))
        obs.disable()
        snap = registry.snapshot()
        assert snap["counters"]["channel.packets"] == 500
        assert snap["counters"].get("channel.losses", 0) == lost
