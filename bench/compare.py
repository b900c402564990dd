"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py --parent P1.json P2.json ... \
        --change C1.json C2.json ... [--claim WORKLOAD:METRIC ...]

Each file is a results file written by ``bench/run.py``; list the two sets
in pair order (parent run i was made next to change run i).  For every
end-to-end (metric, workload) it prints the parent's and the change's
median and quartiles, and a verdict:

``ok``          the change's median is not worse than the parent's by more
                than the metric's bound;
``regression``  it is;
``unresolved``  the parent's own spread, (q3 - q1) / median, is wider than
                the bound, so neither can be told -- unless every change run
                beats every parent run, which is ``ok``.

A ``--claim`` is met when the change wins at least 9 of every 10 pairs
(ties count for neither side) and its median is better than the parent's
by more than the parent's q3 - q1.  Runs whose metadata differ -- backend,
kernel tier, versions, host, run length or benchmark code -- are refused.

Exit status: 0 when every pair is ok and every claim met; 1 on a
regression, an unresolved pair, a failed run or an unmet claim; 2 when the
runs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:1] = [str(ROOT)]

from bench.stats import quartiles  # noqa: E402

#: Metadata that must agree for two runs to be comparable.  The revision,
#: dirty flag and seed may differ: they are what is being compared.
SAME_KEYS = (
    "backend",
    "tier",
    "python",
    "numpy",
    "nproc",
    "cpu_model",
    "seconds",
    "bench_digest",
)

#: Share of pairs the change must win for a claim.
CLAIM_WIN_SHARE = 0.9


def metadata_problems(runs: Sequence[dict]) -> List[str]:
    """Keys of :data:`SAME_KEYS` on which the runs disagree."""
    problems = []
    for key in SAME_KEYS:
        seen = {json.dumps(run["meta"].get(key)) for run in runs}
        if len(seen) > 1:
            problems.append(f"{key} differs: {', '.join(sorted(seen))}")
    return problems


def failed_runs(runs: Sequence[dict], label: str) -> List[str]:
    problems = []
    for index, run in enumerate(runs):
        for report in run["workloads"]:
            for part in ("end_to_end", "per_layer"):
                section = report.get(part)
                if section is None:
                    continue
                if not section["correct"] or section["failed"]:
                    name = report["workload"]
                    problems.append(f"{label} run {index}: {name} {part} failed")
    return problems


def values(runs: Sequence[dict], workload: str, metric: str) -> List[float]:
    found = []
    for run in runs:
        for report in run["workloads"]:
            entry = report["end_to_end"]["metrics"].get(metric)
            if report["workload"] == workload and entry is not None:
                found.append(entry["value"])
    return found


def _better(a: float, b: float, better: str) -> bool:
    """True when ``a`` reads better than ``b``."""
    return a > b if better == "higher" else a < b


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, worse_by)``; ``worse_by`` is a share of the parent's median."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse_by = (p_med - c_med if better == "higher" else c_med - p_med) / p_med
    if all(_better(c, p, better) for c in change for p in parent):
        return "ok", worse_by
    if (p_q3 - p_q1) / p_med > bound:
        return "unresolved", worse_by
    return ("regression" if worse_by > bound else "ok"), worse_by


def claim(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Tuple[bool, int, int]:
    """``(met, wins, pairs)`` under the pair-win rule."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    margin = c_med - p_med if better == "higher" else p_med - c_med
    won = bool(pairs) and wins >= CLAIM_WIN_SHARE * len(pairs)
    return won and margin > p_q3 - p_q1, wins, len(pairs)


def _load(paths: Sequence[Path]) -> List[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument(
        "--claim", action="append", default=[], metavar="WORKLOAD:METRIC"
    )
    args = parser.parse_args(argv)

    benchmark = json.loads(args.benchmark.read_text())
    parent = _load(args.parent)
    change = _load(args.change)
    problems = metadata_problems(parent + change)
    if problems:
        print("refusing to compare runs whose metadata differ:")
        for problem in problems:
            print(f"  {problem}")
        return 2

    status = 0
    metrics: Dict[str, dict] = {m["name"]: m for m in benchmark["end_to_end"]}
    print(
        f"{'metric':16s} {'workload':16s} {'parent median [q1, q3]':>36s} "
        f"{'change median [q1, q3]':>36s} {'worse by':>9s}  verdict"
    )
    for metric in metrics.values():
        for workload in (w["name"] for w in benchmark["workloads"]):
            p = values(parent, workload, metric["name"])
            c = values(change, workload, metric["name"])
            if not p or not c:
                print(f"{metric['name']:16s} {workload:16s} missing")
                status = 1
                continue
            result, worse_by = verdict(p, c, metric["better"], metric["bound"])
            if result != "ok":
                status = 1
            cells = []
            for side in (p, c):
                q1, med, q3 = quartiles(side)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(
                f"{metric['name']:16s} {workload:16s} {cells[0]:>36s} "
                f"{cells[1]:>36s} {worse_by:+9.2%}  {result}"
            )

    for problem in failed_runs(parent, "parent") + failed_runs(change, "change"):
        print(problem)
        status = 1

    for named in args.claim:
        workload, _, metric_name = named.partition(":")
        metric = metrics.get(metric_name)
        if metric is None:
            print(f"claim {named}: no end-to-end metric {metric_name!r}")
            status = 1
            continue
        met, wins, pairs = claim(
            values(parent, workload, metric_name),
            values(change, workload, metric_name),
            metric["better"],
        )
        outcome = "met" if met else "NOT met"
        print(f"claim {named}: change wins {wins} of {pairs} pairs -> {outcome}")
        if not met:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
