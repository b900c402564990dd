"""The fleet loops pause the cyclic garbage collector, and leak no cycles.

``run_sessions_batch``, the serving fast path and the hierarchy's slabs
step with :func:`repro.core.kernel.gc_paused` around their loops.  The
pause is safe only because those loops build no reference cycles: every
row object is freed by reference counting.  This module pins both
halves of that contract:

* the collector's state after each entry point equals its state before
  it — also when a caller disabled it, and when a step raises;
* a warm run of each entry point leaves nothing for ``gc.collect()``,
  on every kernel tier.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import kernel
from repro.core.batch import run_sessions_batch
from repro.core.protocol import ProtocolConfig
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.hierarchy import plan_hierarchy, run_hierarchy


@pytest.fixture(autouse=True)
def _restore_gc_and_tier():
    enabled = gc.isenabled()
    tier = kernel.tier_name()
    yield
    kernel.set_tier(tier)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _batch():
    stream = make_video_stream(GOP_12, gop_count=4)
    config = ProtocolConfig(p_good=0.9, p_bad=0.5, lossy_feedback=True)
    return run_sessions_batch(stream, config, seeds=range(8), max_windows=3)


def _serve():
    # Over capacity: the water-fill splits shares and shedding fires.
    spec = LoadSpec(
        sessions=8, seed=2, mean_interarrival=1e-3, gop_count=4, max_windows=3
    )
    return serve_sessions(generate_requests(spec), 2_400_000.0, fast=True)


def _hierarchy():
    spec = LoadSpec(
        sessions=32, seed=3, mean_interarrival=1e-3, gop_count=4, max_windows=2
    )
    return run_hierarchy(plan_hierarchy(spec, 1_400_000.0, shards=8, workers=1))


ENTRY_POINTS = {
    "run_sessions_batch": _batch,
    "serve_sessions_fast": _serve,
    "run_hierarchy": _hierarchy,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestPauseContract:
    def _steps_see(self, monkeypatch):
        """Record ``gc.isenabled()`` inside every kernel step."""
        seen = []
        real = kernel.step_window

        def step(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "step_window", step)
        return seen

    def test_enabled_collector_is_paused_then_restored(self, entry, monkeypatch):
        seen = self._steps_see(monkeypatch)
        gc.enable()
        ENTRY_POINTS[entry]()
        assert gc.isenabled()
        assert seen and not any(seen)

    def test_caller_disabled_collector_stays_disabled(self, entry, monkeypatch):
        seen = self._steps_see(monkeypatch)
        gc.disable()
        ENTRY_POINTS[entry]()
        assert not gc.isenabled()
        assert seen and not any(seen)

    def test_collector_reenabled_when_a_step_raises(self, entry, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setattr(kernel, "step_window", boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="step failed"):
            ENTRY_POINTS[entry]()
        assert gc.isenabled()


@pytest.mark.parametrize("tier", kernel.available_tiers())
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_warm_run_leaves_no_cyclic_garbage(entry, tier):
    kernel.set_tier(tier)
    run = ENTRY_POINTS[entry]
    run()  # warm: imports, module-level caches, permutation searches
    gc.collect()
    # Keep the collector off for the whole call, so a cycle built
    # outside the entry point's own pause is still found below.
    gc.disable()
    try:
        result = run()
    finally:
        gc.enable()
    del result
    assert gc.collect() == 0
