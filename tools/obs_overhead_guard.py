#!/usr/bin/env python3
"""Verify that *disabled* metrics add <2% overhead to the hot paths.

The observability layer (``repro.obs``) promises a near-zero cost when
metrics are off: instrumented code pays one ``obs.enabled()`` branch
per *batch* operation.  This guard measures that promise directly on
four instrumented paths:

* ``GilbertModel.losses`` — per-batch channel sampling — against a
  re-implementation of the *same body* with only the ``obs`` branch
  elided;
* ``repro.accel.burst_runs`` — the dispatched, instrumented kernel —
  against an identically-shaped dispatch function without the branch;
* ``serve_sessions_fast`` — whose plan and execute stage clocks are
  created only when metrics are on — against the same two phases with
  the clock branches elided;
* ``run_hierarchy`` — whose counters, stage clocks and fan-out gauge are
  recorded only when metrics are on — against the same plan and
  fan-out with the recording branch elided.

The baselines deliberately mirror the instrumented code line for line
(same attribute lookups, same call shape) so the measured delta is the
instrumentation alone, not incidental micro-optimizations.

Each of ``--repeats`` repeats times the arms in the order instrumented,
baseline, baseline, instrumented, so the arm order alternates within
every repeat and neither arm always pays for the caches or the
scheduler state the other leaves behind.  The verdict is the *median
of the per-repeat ratios* instrumented / baseline: a repeat's runs
share whatever load the host carries at that moment, which two
independent minima do not.  Exit code is non-zero when that median
overhead exceeds ``--threshold`` (default 0.02 = 2%).

The serving arms step their fleets through the kernel's array program
on the NumPy backend, whose per-step counters include
``kernel.collapse.replay``; the guard checks that those fleets really
replay lost-anchor rows, so the counter's branch is among the code
timed.

Run from the repository root::

    PYTHONPATH=src python tools/obs_overhead_guard.py
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import accel, obs  # noqa: E402
from repro.accel import _backend  # noqa: E402
from repro.network.markov import BAD, GOOD, GilbertModel  # noqa: E402
from repro.serve import LoadSpec, PriorityScheduler, generate_requests  # noqa: E402
from repro.serve import fastpath, hierarchy  # noqa: E402


def _plain_losses(model: GilbertModel, count: int) -> list:
    """``GilbertModel.losses`` with the ``obs`` branch removed, nothing else."""
    draws = [model._rng.random() for _ in range(count)]
    states = accel.gilbert_states(
        draws, model.p_good, model.p_bad, start_bad=model._state == BAD
    )
    if states:
        model._state = BAD if states[-1] else GOOD
    return states


def _plain_burst_runs(order, burst):
    """``repro.accel.burst_runs`` dispatch with the ``obs`` branch removed."""
    return _backend().burst_runs(order, burst)


def _plain_serve_fast(requests, capacity_bps, **kwargs):
    """``serve_sessions_fast`` with its ``obs`` branches removed, nothing else."""
    planner = fastpath._PlanningService(capacity_bps, **kwargs)
    planner.submit_all(requests)
    result = planner.run()
    plans = [
        planner.session_plans[outcome.request.session_id]
        for outcome in result.outcomes
        if outcome.admitted
    ]
    if plans:
        fastpath._execute_fleet(plans, planner._shed_policy)
    return result


def _plain_run_hierarchy(spec, capacity_bps, **kwargs):
    """``run_hierarchy`` with its ``obs`` branch removed, nothing else."""
    plan = hierarchy.plan_hierarchy(spec, capacity_bps, **kwargs)
    result = hierarchy._fan_out(plan, None)
    return result


def _paired(repeats: int, instrumented, baseline) -> tuple:
    """Median (instrumented s, baseline s, instrumented / baseline).

    Each repeat runs the arms instrumented, baseline, baseline,
    instrumented, so both orders occur in every repeat; its ratio is
    the instrumented arm's time over the baseline's, each summed over
    the repeat.
    """
    instr_times = []
    base_times = []
    ratios = []
    for _ in range(repeats):
        times = {instrumented: 0.0, baseline: 0.0}
        for arm in (instrumented, baseline, baseline, instrumented):
            start = time.perf_counter()
            arm()
            times[arm] += time.perf_counter() - start
        instr_times.append(times[instrumented] / 2)
        base_times.append(times[baseline] / 2)
        ratios.append(times[instrumented] / times[baseline])
    return (
        statistics.median(instr_times),
        statistics.median(base_times),
        statistics.median(ratios),
    )


def _replayed_rows(run) -> int:
    """Lost-anchor rows the kernel replays in columns during ``run()``."""
    registry = obs.enable()
    obs.reset()
    try:
        run()
        return registry.snapshot()["counters"].get("kernel.collapse.replay", 0)
    finally:
        obs.disable()


def guard_gilbert(batch: int, repeats: int) -> tuple:
    """Instrumented GilbertModel.losses vs the same body, uninstrumented."""
    instrumented_model = GilbertModel(p_good=0.92, p_bad=0.6, seed=1)
    baseline_model = GilbertModel(p_good=0.92, p_bad=0.6, seed=1)

    def instrumented() -> None:
        instrumented_model.losses(batch)

    def baseline() -> None:
        _plain_losses(baseline_model, batch)

    # Untimed first calls: the first batch of a process pays allocation.
    instrumented()
    baseline()
    return _paired(repeats, instrumented, baseline)


def guard_burst_runs(n: int, burst: int, calls: int, repeats: int) -> tuple:
    """Instrumented accel dispatch vs the same dispatch without the branch."""
    order = list(range(0, n, 2)) + list(range(1, n, 2))

    def instrumented() -> None:
        for _ in range(calls):
            accel.burst_runs(order, burst)

    def baseline() -> None:
        for _ in range(calls):
            _plain_burst_runs(order, burst)

    instrumented()
    baseline()
    return _paired(repeats, instrumented, baseline)


def guard_serve_fast(sessions: int, repeats: int) -> tuple:
    """Fast-path serving with its stage clocks vs the same two phases bare.

    Size ``sessions`` so one run takes tens of milliseconds (on a
    16-viewer fleet the order of the two arms alone moved the minima by
    more than the threshold) and each window step carries enough
    lost-anchor rows for the kernel to replay them in columns.
    """
    requests = generate_requests(
        LoadSpec(sessions=sessions, seed=3, gop_count=4, max_windows=4)
    )
    capacity_bps = sessions * 1_000_000.0
    kwargs = {"scheduler": PriorityScheduler()}

    def instrumented() -> None:
        fastpath.serve_sessions_fast(requests, capacity_bps, **kwargs)

    def baseline() -> None:
        _plain_serve_fast(requests, capacity_bps, **kwargs)

    # One untimed run of each fills the demand, window and plan caches.
    replayed = _replayed_rows(instrumented)
    baseline()
    # A run allocates enough objects to trigger cyclic collections, which
    # would land on whichever arm crosses the threshold.
    gc.collect()
    gc.disable()
    try:
        return (*_paired(repeats, instrumented, baseline), replayed)
    finally:
        gc.enable()


def guard_hierarchy(sessions: int, repeats: int) -> tuple:
    """The hierarchical fan-out with its observability vs the same run bare.

    One worker, in-process: a process pool would time the host's
    scheduler, not the recording branch.  The capacity admits every
    session, so each window step replays its lost-anchor rows in columns.
    """
    spec = LoadSpec(
        sessions=sessions,
        seed=3,
        mean_interarrival=1e-3,
        gop_count=4,
        max_windows=2,
    )
    capacity_bps = 40_000_000.0
    kwargs = {"shards": 8, "workers": 1}

    def instrumented() -> None:
        hierarchy.run_hierarchy(spec, capacity_bps, **kwargs)

    def baseline() -> None:
        _plain_run_hierarchy(spec, capacity_bps, **kwargs)

    replayed = _replayed_rows(instrumented)
    baseline()
    gc.collect()
    gc.disable()
    try:
        return (*_paired(repeats, instrumented, baseline), replayed)
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.02,
                        help="max tolerated overhead fraction (default 0.02)")
    parser.add_argument("--repeats", type=int, default=15,
                        help="interleaved repeats per check (default 15)")
    parser.add_argument("--batch", type=int, default=200_000,
                        help="Gilbert batch size per measurement")
    parser.add_argument("--calls", type=int, default=2_000,
                        help="burst_runs calls per measurement")
    args = parser.parse_args(argv)

    obs.disable()
    checks = [
        ("GilbertModel.losses", *guard_gilbert(args.batch, args.repeats)),
        ("accel.burst_runs", *guard_burst_runs(48, 20, args.calls, args.repeats)),
        ("serve_sessions_fast", *guard_serve_fast(256, args.repeats)),
        ("run_hierarchy", *guard_hierarchy(256, args.repeats)),
    ]
    failures = 0
    print(
        f"disabled-metrics overhead guard (threshold {args.threshold:.1%}, "
        f"median of {args.repeats} per-repeat ratios)"
    )
    for name, instr, base, ratio, *replayed in checks:
        overhead = ratio - 1.0
        verdict = "ok" if overhead <= args.threshold else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(
            f"  {name:24s} instrumented {instr * 1e3:8.2f} ms   "
            f"baseline {base * 1e3:8.2f} ms   overhead {overhead:+7.2%}   {verdict}"
        )
        if replayed and accel.backend_name() == "numpy":
            # The array program runs only on NumPy; there the arm must
            # reach the replay stage, or its counter goes unmeasured.
            covered = replayed[0] > 0
            if not covered:
                failures += 1
            print(
                f"  {'':24s} kernel.collapse.replay {replayed[0]} rows   "
                f"{'ok' if covered else 'FAIL (not reached)'}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
