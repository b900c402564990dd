"""Run the repository benchmark and check every output it produces.

    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, one after
another, each followed by its traced run unless ``--trace 0``, and a
results file for ``bench/compare.py`` is written.  With ``--workload`` one
workload runs and the last line printed is one JSON object: ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.  Either way
the exit code is non-zero if any check failed.

Measurements run in ``bench/worker.py`` processes, each started only after
the previous one has exited, with a fresh ``REPRO_CACHE_DIR``, one BLAS
thread and ``REPRO_METRICS`` unset.  This file never imports the library,
so the runner's own memory and start-up are not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:1] = [str(ROOT)]

from bench.stats import quartiles  # noqa: E402

BENCH = ROOT / "bench"
OUT = BENCH / "out"

#: Timed worker processes per end-to-end run.  Each one's cold pass is a
#: set-up sample, and the run's warm passes are pooled from all of them:
#: one process can run ``batch-clean`` 10% slower than the next on a steady
#: host, which no number of passes in one process averages out.
PROCESSES = 5

#: A worker still running after this many seconds is killed and failed.
WORKER_TIMEOUT_S = 150

#: Traced pass self times must sum to the traced pass wall within this share.
COVERAGE_TOLERANCE = 0.01


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> Dict[str, str]:
    return json.loads((BENCH / "golden.json").read_text())


def child_env(cache_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_METRICS", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=cache_dir,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        # Fixed string hashing: set and dict layouts, and so timings, do
        # not change from one process to the next.
        PYTHONHASHSEED="0",
    )
    return env


def spawn_worker(
    mode: str, workload: str, seed: int, seconds: float, **options
) -> Optional[dict]:
    """Run one worker to completion; its JSON output, or None if it failed."""
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    for name, value in options.items():
        flag = f"--{name.replace('_', '-')}"
        if value is True:
            command.append(flag)
        elif value is not False:
            command += [flag, str(value)]
    try:
        command += ["--t0", repr(time.monotonic())]
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(cache_dir),
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: {mode} worker timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: {mode} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _stat(values: List[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(
    name: str, seed: int, timed: List[Optional[dict]], golden: Optional[str]
) -> dict:
    """The end-to-end report of one workload from its timed workers' outputs."""
    done = [output for output in timed if output is not None]
    lost = len(timed) - len(done)
    attempted = lost + sum(output["attempted"] for output in done)
    failed = lost + sum(output["failed"] for output in done)
    if not done:
        return {
            "correct": False,
            "attempted": attempted,
            "failed": failed,
            "metrics": {},
            "checks": ["every timed worker failed"],
        }
    digest = done[0]["digest"]
    failed += sum(1 for output in done if output["digest"] != digest)
    items = sum(output["oracle_items"] for output in done)
    mismatches = sum(output["oracle_mismatches"] for output in done)
    correct = failed == 0 and items > 0 and mismatches == 0
    checks = [
        f"oracle: {items - mismatches}/{items} items match",
        f"passes: {failed} of {attempted} failed (digest or error)",
    ]
    if golden is not None:
        golden_ok = golden == digest
        correct = correct and golden_ok
        verdict = "match" if golden_ok else "MISMATCH"
        checks.append(f"seed-{seed} golden digest: {verdict}")
    walls, windows, sessions = [], [], []
    for output in done:
        walls += output["pass_s"]
        windows += output["windows"]
        sessions += output["sessions"]
    metrics: Dict[str, dict] = {}
    if walls:
        metrics["windows_per_s"] = _stat(
            [w / s for w, s in zip(windows, walls)], "windows/s"
        )
        metrics["sessions_per_s"] = _stat(
            [n / s for n, s in zip(sessions, walls)], "sessions/s"
        )
    metrics["setup_s"] = _stat([output["setup_s"] for output in done], "s")
    metrics["peak_rss_mb"] = _stat([output["peak_rss_mb"] for output in done], "MiB")
    metrics["fail_ratio"] = {
        "value": failed / attempted,
        "unit": "ratio",
        "n": attempted,
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "digest": digest,
        "median_pass_s": statistics.median(walls) if walls else None,
        "env": done[0]["env"],
    }


def per_layer(traced: Optional[dict]) -> dict:
    """The per-layer report of one workload from its traced worker."""
    if traced is None:
        return {
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "metrics": {},
            "checks": ["traced worker failed"],
        }
    coverage = traced["self_time_coverage"]
    covered = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    return {
        "correct": traced["failed"] == 0 and covered,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": traced["metrics"],
        "checks": [
            f"traced digests: {traced['failed']} of {traced['attempted']} differ",
            f"layer self times cover {coverage:.4f} of the traced pass wall",
        ],
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    processes: int = PROCESSES,
) -> dict:
    """End-to-end run of one workload, then its traced run if ``trace``.

    The ``seconds`` of warm passes are shared among ``processes`` timed
    workers; the first also runs the oracle.
    """
    # Seed 0 has recorded digests; an unrecorded workload fails the check.
    golden = load_golden().get(name, "unrecorded") if seed == 0 else None
    load_before = os.getloadavg()
    timed = [
        spawn_worker("timed", name, seed, seconds / processes, oracle=index == 0)
        for index in range(processes)
    ]
    report = {"workload": name, "end_to_end": end_to_end(name, seed, timed, golden)}
    if trace:
        e2e = report["end_to_end"]
        traced = None
        if e2e.get("median_pass_s"):
            traced = spawn_worker(
                "trace",
                name,
                seed,
                seconds,
                expect_digest=e2e["digest"],
                untraced_pass_s=repr(e2e["median_pass_s"]),
                spans=OUT / f"spans-{name}-seed{seed}.tsv.gz",
            )
        report["per_layer"] = per_layer(traced)
    report["loadavg_before"] = load_before
    report["loadavg_after"] = os.getloadavg()
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}")
    for part in ("end_to_end", "per_layer"):
        section = report.get(part)
        if section is None:
            continue
        for metric, entry in section["metrics"].items():
            spread = ""
            if "q1" in entry:
                spread = f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
            n = f"  n={entry['n']}" if "n" in entry else ""
            value = f"{entry['value']:14.6g} {entry['unit']:10s}"
            print(f"  {metric:36s} {value}{spread}{n}")
        for check in section["checks"]:
            print(f"  check: {check}")
    print(
        "  load average: "
        + " -> ".join(
            "/".join(f"{x:.2f}" for x in report[key])
            for key in ("loadavg_before", "loadavg_after")
        )
    )


def driver_line(section: dict, names: List[str]) -> str:
    """The one-line JSON result: exactly the listed metrics, value and unit."""
    return json.dumps(
        {
            "correct": section["correct"],
            "attempted": section["attempted"],
            "failed": section["failed"],
            "metrics": {
                name: {
                    "value": section["metrics"][name]["value"],
                    "unit": section["metrics"][name]["unit"],
                }
                for name in names
                if name in section["metrics"]
            },
        }
    )


def git_state() -> Dict[str, object]:
    """Revision and dirty flag of this checkout, or unknown outside git."""

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"rev": "unknown", "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"rev": git("rev-parse", "HEAD") or "unknown", "dirty": bool(status)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_digest() -> str:
    """Digest of the benchmark's own code and settings (not of the program)."""
    digest = hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes())
    for path in sorted(BENCH.glob("*.py")) + [BENCH / "golden.json"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(seed: int, seconds: float, env: Optional[dict]) -> dict:
    return {
        **git_state(),
        **(env or {}),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "bench_digest": bench_digest(),
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        missing = ROOT / "src" / "repro"
        print(f"no program to measure: {missing} is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.workload is not None:
        # A traced run reports no set-up time; one timed worker gives the
        # untraced pass time and checks the outputs.
        report = measure(
            args.workload,
            args.seed,
            args.seconds,
            trace=bool(args.trace),
            processes=1 if args.trace else PROCESSES,
        )
        print_report(report)
        if args.trace:
            section = report["per_layer"]
            section["correct"] = section["correct"] and report["end_to_end"]["correct"]
            section["attempted"] += report["end_to_end"]["attempted"]
            section["failed"] += report["end_to_end"]["failed"]
            wanted = [metric["name"] for metric in benchmark["per_layer"]]
        else:
            section = report["end_to_end"]
            wanted = [metric["name"] for metric in benchmark["end_to_end"]]
        print(driver_line(section, wanted))
        return 0 if section["correct"] else 1

    reports = []
    for name in names:
        report = measure(name, args.seed, args.seconds, trace=bool(args.trace))
        print_report(report)
        reports.append(report)
    envs = [r["end_to_end"]["env"] for r in reports if "env" in r["end_to_end"]]
    meta = metadata(args.seed, args.seconds, envs[0] if envs else None)
    results = {"meta": meta, "workloads": reports}
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = args.out or OUT / f"results-seed{args.seed}-{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    correct = all(
        section["correct"]
        for report in reports
        for section in (report["end_to_end"], report.get("per_layer"))
        if section is not None
    )
    print(f"results: {out}")
    print(f"all checks {'passed' if correct else 'FAILED'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
