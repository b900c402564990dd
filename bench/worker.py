"""One benchmark process: set up a workload, run its passes, check them.

``bench/run.py`` starts this file several times per measurement, one
process at a time, and reads the JSON object it prints as its last line::

    python3 bench/worker.py --mode timed --workload batch-clean --seed 0 \
        --seconds 2 --t0 <time.monotonic() at spawn> [--oracle]

Modes:

``timed``  cold first pass (its end, measured from ``--t0``, is one set-up
           sample), then warm passes for ``--seconds`` with tracing off,
           then ``ru_maxrss``, then, with ``--oracle``, the oracle check.
``trace``  obs on, spans recorded: one cold traced pass, then
           ``WARM_TRACED`` warm ones; prints the per-layer metrics.

Every pass's result is reduced to a digest and dropped before the next
pass, so the heap a pass starts with does not grow with the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: import the bench package and the library from this
    # checkout, not from the script's own directory.
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]

from bench import stats, trace, workloads  # noqa: E402
from repro import accel, obs  # noqa: E402
from repro.core import kernel  # noqa: E402

#: Fewest warm passes a timed process makes, however short ``--seconds`` is.
MIN_WARM_PASSES = 1

#: Warm traced passes after the cold one.
WARM_TRACED = 3

Metric = Tuple[float, str]


def _warm_pass(workload, digest: str) -> Tuple[bool, float, object]:
    """``(ok, wall seconds, result)``; ok means it returned the expected digest."""
    gc.collect()
    try:
        started = time.perf_counter()
        result = workload.run_pass()
        wall = time.perf_counter() - started
    except Exception:
        traceback.print_exc()
        return False, 0.0, None
    return workload.digest(result) == digest, wall, result


def run_timed(
    factory: Callable[[], object], seconds: float, t0: float, check_oracle: bool
) -> Dict[str, object]:
    """Cold pass, warm passes for ``seconds``, peak RSS, then maybe the oracle."""
    workload = factory()
    result = workload.run_pass()
    setup_s = time.monotonic() - t0
    digest = workload.digest(result)
    view = workload.oracle_view(result) if check_oracle else []
    del result

    walls: List[float] = []
    windows: List[int] = []
    sessions: List[int] = []
    attempted = 1
    failed = 0
    deadline = time.perf_counter() + seconds
    while attempted <= MIN_WARM_PASSES or time.perf_counter() < deadline:
        attempted += 1
        ok, wall, result = _warm_pass(workload, digest)
        if ok:
            walls.append(wall)
            windows.append(workload.windows(result))
            sessions.append(workload.sessions(result))
        else:
            failed += 1
        del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_mismatches = workload.oracle_mismatches(view) if check_oracle else 0
    return {
        "digest": digest,
        "setup_s": setup_s,
        "pass_s": walls,
        "windows": windows,
        "sessions": sessions,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "oracle_items": len(view),
        "oracle_mismatches": oracle_mismatches,
        "env": environment(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_trace(
    factory: Callable[[], object],
    expected_digest: Optional[str],
    untraced_pass_s: float,
    spans_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Traced cold + warm passes; the per-layer metrics of the median warm pass."""
    obs.enable()
    workload = factory()
    tracer = trace.Tracer()
    counters: Dict[int, Dict[str, float]] = {}
    performance: Dict[int, Dict[str, float]] = {}
    digests: List[str] = []
    for pass_id in range(1 + WARM_TRACED):
        gc.collect()
        obs.reset()
        tracer.pass_id = pass_id
        targets = trace.COLD_TARGETS if pass_id == 0 else trace.TARGETS
        with tracer.installed(targets), tracer.span(trace.ROOT_SPAN):
            result = workload.run_pass()
        tracer.pass_id = -1
        counters[pass_id] = obs.snapshot()["counters"]
        performance[pass_id] = workload.performance(result)
        digests.append(workload.digest(result))
        del result
    obs.disable()

    warm_ids = list(range(1, 1 + WARM_TRACED))
    walls = {pass_id: tracer.pass_wall_s(pass_id) for pass_id in warm_ids}
    median_pass = sorted(warm_ids, key=walls.__getitem__)[len(warm_ids) // 2]
    totals = tracer.layer_totals()
    layer = totals[median_pass]
    cold = totals[0]
    count = counters[median_pass]
    cold_count = counters[0]
    perf = performance[median_pass]

    def self_s(name: str, source=layer) -> float:
        return source.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return layer.get(name, (0.0, 0))[1]

    step_ms = sorted(1000.0 * d for d in tracer.durations_s("kernel.step", warm_ids))
    tail_pct, tail_ms = stats.tail_percentile(step_ms)
    rows = count.get("kernel.rows", 0)
    demand_lookups = count.get("serve.demand_cache.hits", 0) + count.get(
        "serve.demand_cache.misses", 0
    )
    permcache_lookups = cold_count.get("permcache.hits", 0) + cold_count.get(
        "permcache.misses", 0
    )
    metrics: Dict[str, Metric] = {
        f"{name}.self_s": (self_s(name), "s") for name in trace.LAYERS
    }
    metrics.update(
        {
            "kernel.step.calls": (calls("kernel.step"), "count"),
            "kernel.step_ms.p50": (
                stats.percentile(step_ms, 50.0) if step_ms else 0.0, "ms"
            ),
            "kernel.step_ms.tail": (tail_ms, "ms"),
            "kernel.step_ms.tail_pct": (tail_pct, "percent"),
            "kernel.rows_per_step": (
                _ratio(rows, count.get("kernel.steps", 0)), "rows/call"
            ),
            "kernel.collapse.full_ratio": (
                _ratio(count.get("kernel.collapse.full", 0), rows), "ratio"
            ),
            "kernel.collapse.timeline_ratio": (
                _ratio(count.get("kernel.collapse.timeline", 0), rows), "ratio"
            ),
            "kernel.collapse.scalar_ratio": (
                _ratio(count.get("kernel.collapse.scalar", 0), rows), "ratio"
            ),
            "kernel.sender.calls": (calls("kernel.sender"), "count"),
            "accel.gilbert.rows_per_call": (
                _ratio(
                    count.get("accel.batch_rows", 0),
                    count.get("accel.calls.gilbert_states_batch", 0),
                ),
                "rows/call",
            ),
            "accel.clf.calls": (calls("accel.clf"), "count"),
            "channel.packets": (count.get("channel.packets", 0), "count"),
            "channel.loss_ratio": (
                _ratio(count.get("channel.losses", 0), count.get("channel.packets", 0)),
                "ratio",
            ),
            "cpo.search.self_s": (self_s("cpo.search", cold), "s"),
            "cpo.searches": (cold_count.get("cpo.searches", 0), "count"),
            "permcache.hit_ratio": (
                _ratio(cold_count.get("permcache.hits", 0), permcache_lookups), "ratio"
            ),
            "sim.events": (count.get("events.fired", 0), "count"),
            "bandwidth.allocate.calls": (calls("bandwidth.allocate"), "count"),
            "admission.demand_cache.hit_ratio": (
                _ratio(count.get("serve.demand_cache.hits", 0), demand_lookups),
                "ratio",
            ),
            "shedding.select.calls": (calls("shedding.select"), "count"),
            "hierarchy.worker_plan_s": (perf.get("worker_plan_seconds", 0.0), "s"),
            "hierarchy.worker_serve_s": (perf.get("worker_serve_seconds", 0.0), "s"),
            "hierarchy.worker_reduce_s": (perf.get("worker_reduce_seconds", 0.0), "s"),
            "hierarchy.coordinator_s": (perf.get("coordinator_seconds", 0.0), "s"),
            "trace.pass_s": (walls[median_pass], "s"),
            "trace.overhead_ratio": (
                _ratio(walls[median_pass], untraced_pass_s) - 1.0, "ratio"
            ),
        }
    )
    if spans_path is not None:
        tracer.write(spans_path)
    expected = expected_digest if expected_digest is not None else digests[0]
    failed = sum(1 for digest in digests if digest != expected)
    covered = sum(self_s(name) for name in trace.LAYERS)
    return {
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": len(digests),
        "failed": failed,
        "self_time_coverage": _ratio(covered, walls[median_pass]),
    }


def environment() -> Dict[str, object]:
    """What the program ran on, as the workload process saw it."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "backend": accel.backend_name(),
        "tier": kernel.tier_name(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--expect-digest", default=None)
    parser.add_argument("--untraced-pass-s", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    def factory():
        return workloads.make(args.workload, args.seed)

    if args.mode == "timed":
        output = run_timed(factory, args.seconds, t0, args.oracle)
    else:
        output = run_trace(
            factory, args.expect_digest, args.untraced_pass_s, args.spans
        )
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
