#!/usr/bin/env python3
"""Profile a repro hot path under cProfile.

Three targets:

* ``--target figure8`` (default) runs
  :func:`repro.experiments.figure8.run_figure8` on the paper's top
  panel (100 buffer windows, both arms) — the single-session protocol
  engine.
* ``--target serve`` runs the window-batched serving fast path
  (:mod:`repro.serve.fastpath`) on the K = 16 capacity-sweep fleet the
  serve benchmarks time, with caches pre-warmed so the listing shows
  the steady-state engine, not one-off plan searches.
* ``--target kernel`` runs the same fast path on the K = 256
  steady-state fleet the kernel benchmark gates at 10x — wide enough
  that the kernel step's per-window cohort work dominates the listing.
* ``--target hierarchy`` runs the two-level fan-out
  (:mod:`repro.serve.hierarchy`) on a K = 1024, 32-shard plan with
  ``jobs=1`` so the shard workers execute in-process and the listing
  covers both sides of the split; the sanity line reports the
  coordinator-vs-worker wall breakdown from ``performance_dict()``.

Writes the full cumulative-time listing to
``benchmarks/results/PROFILE_<rev>[_<target>].txt`` and prints the top
of it, so "where did the time go" is one ``make profile`` (or
``make profile-serve``) away.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT_DIR = REPO_ROOT / "benchmarks" / "results"


def git_short_rev() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "local"
    return completed.stdout.strip() or "local"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DEFAULT_OUT_DIR,
        help="where PROFILE_<rev>.txt lands (default benchmarks/results)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="rows of the cumulative listing to print (default 25)",
    )
    parser.add_argument(
        "--target",
        choices=("figure8", "serve", "kernel", "hierarchy"),
        default="figure8",
        help="hot path to profile: the Figure-8 session engine, the "
        "window-batched serving fast path, the K = 256 kernel "
        "steady state, or the K = 1024 hierarchical fan-out "
        "(default figure8)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    if args.target == "hierarchy":
        from repro.serve import LoadSpec, generate_requests, serve_sessions
        from repro.serve.hierarchy import plan_hierarchy, run_hierarchy

        spec = LoadSpec(
            sessions=1024,
            seed=3,
            gop_count=8,
            max_windows=4,
            mean_interarrival=1e-4,
        )
        capacity_bps = 20e6
        # Warm the permutation, stream and demand caches so the profile
        # shows the steady-state fan-out, not one-off plan searches.
        serve_sessions(generate_requests(spec), capacity_bps, fast=True)
        plan = plan_hierarchy(spec, capacity_bps)

        def workload():
            # jobs=1 keeps the shard workers in-process so cProfile sees
            # both the coordinator and the worker hot path.
            return run_hierarchy(plan, jobs=1)

        def sanity(result):
            perf = result.performance_dict()
            return (
                f"fleet sanity: {result.admitted_count}/{result.sessions} "
                f"admitted over {plan.shards} shards; wall split "
                f"plan {perf['worker_plan_seconds']:.3f}s / "
                f"serve {perf['worker_serve_seconds']:.3f}s / "
                f"reduce {perf['worker_reduce_seconds']:.3f}s / "
                f"coordinator {perf['coordinator_seconds']:.3f}s "
                f"({perf['sessions_per_second']:,.0f} sessions/s)"
            )
    elif args.target in ("serve", "kernel"):
        from repro.serve import LoadSpec, generate_requests, serve_sessions

        if args.target == "kernel":
            from repro.core.protocol import ProtocolConfig

            spec = LoadSpec(
                sessions=256,
                seed=9,
                gop_count=24,
                max_windows=12,
                mean_interarrival=0.0,
                config=ProtocolConfig(p_good=0.995, p_bad=0.6),
            )
            capacity_bps = 1_200_000.0 * 256
        else:
            spec = LoadSpec(
                sessions=16,
                seed=5,
                gop_count=50,
                max_windows=50,
                mean_interarrival=0.0,
            )
            capacity_bps = 2_400_000.0 * 8
        # Warm the permutation, stream and demand caches so the profile
        # shows the steady-state engine.
        serve_sessions(generate_requests(spec), capacity_bps, fast=True)
        requests = generate_requests(spec)

        def workload():
            return serve_sessions(requests, capacity_bps, fast=True)

        def sanity(result):
            return (
                f"fleet sanity: {len(result.admitted)}/{spec.sessions} "
                f"admitted, mean CLF {result.mean_clf:.2f}"
            )
    else:
        from repro.experiments.config import FIGURE8_TOP
        from repro.experiments.figure8 import run_figure8

        def workload():
            return run_figure8(FIGURE8_TOP)

        def sanity(result):
            return (
                f"panel sanity: scrambled mean CLF "
                f"{result.scrambled.mean_clf:.2f} "
                f"vs unscrambled {result.unscrambled.mean_clf:.2f}"
            )

    profiler = cProfile.Profile()
    profiler.enable()
    result = workload()
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats()
    from repro import accel

    header = (
        f"# target={args.target} "
        f"backend={accel.backend_name()} rev={git_short_rev()}\n"
    )
    listing = header + buffer.getvalue()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "" if args.target == "figure8" else f"_{args.target}"
    out_path = args.out_dir / f"PROFILE_{git_short_rev()}{suffix}.txt"
    out_path.write_text(listing)

    shown = 0
    for line in listing.splitlines():
        print(line)
        if line.strip() and line.lstrip()[0].isdigit():
            shown += 1
            if shown >= args.top:
                break
    try:
        rel = out_path.relative_to(REPO_ROOT)
    except ValueError:
        rel = out_path
    print(f"\nfull listing: {rel}")
    print(sanity(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
