"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

The tier-1 suite does not collect these (``testpaths = ["tests"]``).  They
run every workload at smoke scale against its oracle, drive the runner's
aggregation and exit code through in-process workers, and pin the tracer's
install/restore, self-time arithmetic and the tail-percentile rule.
"""

from __future__ import annotations

import gzip
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import compare, run, stats, trace, worker, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(name: str, seed: int = 1) -> workloads.Workload:
    return workloads.make(name, seed, scale="smoke")


# -- workloads and oracles ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_matches_its_oracle(name):
    workload = smoke(name)
    result = workload.run_pass()
    assert workload.windows(result) > 0
    assert workload.sessions(result) > 0
    view = workload.oracle_view(result)
    assert view
    assert workload.oracle_mismatches(view) == 0
    assert workload.digest(workload.run_pass()) == workload.digest(result)


def test_oracle_check_sees_a_wrong_view():
    workload = smoke("batch-clean")
    view = workload.oracle_view(workload.run_pass())
    last = view[-1]
    one_more_loss = last[:4] + (last[4] + 1,) + last[5:]
    assert workload.oracle_mismatches(view[:-1] + [one_more_loss]) == 1
    assert workload.oracle_mismatches(view[:-1]) == 1


def test_serving_smoke_workloads_shed_and_reject():
    flash = smoke("serve-flash")
    assert flash.run_pass().shed_total > 0
    planner = smoke("plan-hierarchy")
    assert planner.run_pass().rejected_count > 0


def test_seeds_give_distinct_inputs():
    assert smoke("batch-bursty", 1).digest(smoke("batch-bursty", 1).run_pass()) != (
        smoke("batch-bursty", 2).digest(smoke("batch-bursty", 2).run_pass())
    )


# -- runner: aggregation, fault injection, exit code -----------------------


def in_process_spawn(corrupt_pass=None):
    """A stand-in for ``run.spawn_worker`` running smoke workloads in-process.

    ``corrupt_pass`` makes each timed worker's digest of that pass (0 is the
    cold one) wrong, as a program returning a different result would.
    """

    def factory(name, seed, mode):
        workload = smoke(name, seed)
        if mode == "timed" and corrupt_pass is not None:
            digest = workload.digest
            calls = []

            def corrupted(result):
                calls.append(None)
                return "corrupt" if len(calls) == corrupt_pass + 1 else digest(result)

            workload.digest = corrupted
        return workload

    def spawn(mode, name, seed, seconds, **options):
        make = lambda: factory(name, seed, mode)  # noqa: E731
        if mode == "timed":
            oracle = options.get("oracle", False)
            output = worker.run_timed(make, seconds, time.monotonic(), oracle)
        else:
            output = worker.run_trace(
                make, options["expect_digest"], float(options["untraced_pass_s"])
            )
        return json.loads(json.dumps(output))

    return spawn


def driver_args(name: str, traced: int) -> list:
    """The driver's command line at seed 3, with the shortest timed phase."""
    return ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(traced)]


def last_json_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_run_emits_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn_worker", in_process_spawn())
    code = run.main(driver_args("serve-flash", traced=0))
    line = last_json_line(capsys)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == run.PROCESSES * (1 + worker.MIN_WARM_PASSES)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_injected_digest_mismatch_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn_worker", in_process_spawn(corrupt_pass=1))
    code = run.main(driver_args("batch-clean", traced=0))
    line = last_json_line(capsys)
    assert code != 0
    assert not line["correct"]
    assert line["failed"] == run.PROCESSES  # the first warm pass of each worker


def test_fail_ratio_counts_failed_passes_and_lost_workers():
    spawn = in_process_spawn(corrupt_pass=1)
    timed = [
        spawn("timed", "batch-clean", 3, 0, oracle=True),
        spawn("timed", "batch-clean", 3, 0),
        None,
    ]
    report = run.end_to_end("batch-clean", 3, timed, golden=None)
    attempted = timed[0]["attempted"] + timed[1]["attempted"] + 1
    assert report["metrics"]["fail_ratio"]["value"] == 3 / attempted
    assert not report["correct"]


def test_a_run_without_its_oracle_is_not_correct():
    timed = [in_process_spawn()("timed", "batch-clean", 3, 0)]
    report = run.end_to_end("batch-clean", 3, timed, golden=None)
    assert report["failed"] == 0 and not report["correct"]


def test_golden_digest_mismatch_fails_the_run():
    timed = [in_process_spawn()("timed", "batch-clean", 0, 0, oracle=True)]
    right = run.end_to_end("batch-clean", 0, timed, golden=timed[0]["digest"])
    wrong = run.end_to_end("batch-clean", 0, timed, golden="0" * 64)
    assert right["correct"] and not wrong["correct"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn_worker", in_process_spawn())
    code = run.main(driver_args(name, traced=1))
    line = last_json_line(capsys)
    assert code == 0 and line["correct"]
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    metrics = line["metrics"]
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in trace.LAYERS)
    wall = metrics["trace.pass_s"]["value"]
    assert layer_sum == pytest.approx(wall, rel=run.COVERAGE_TOLERANCE)


def test_runner_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in (ROOT / "bench").glob("*.*"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch-clean", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- tracer ------------------------------------------------------------------


def test_trace_wrappers_are_fully_removed():
    owners = [
        (trace.resolve_owner(path), attribute)
        for path, attribute, _ in trace.COLD_TARGETS
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in owners]
    tracer = trace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(trace.COLD_TARGETS):
            for owner, attribute, original in originals:
                assert vars(owner)[attribute] is not original
            with tracer.span(trace.ROOT_SPAN):
                smoke("batch-clean").run_pass()
            raise RuntimeError("leave the block by an exception")
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original
    assert {"kernel.step", "kernel.feedback", "accel.gilbert"} <= set(tracer.names)


def test_self_time_of_nested_spans():
    ticks = iter([0, 10, 15, 25, 40, 50, 90, 100])
    tracer = trace.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "b")

    def middle():
        leaf()

    with tracer.span("root"):
        tracer.wrap(middle, "a")()  # a: 10..40, containing b: 15..25
        tracer.wrap(lambda: None, "c")()  # c: 50..90
    totals = tracer.layer_totals()[0]
    in_ns = {name: (round(s * 1e9), calls) for name, (s, calls) in totals.items()}
    assert in_ns == {"root": (30, 1), "a": (20, 1), "b": (10, 1), "c": (40, 1)}
    assert sum(s for s, _ in totals.values()) == pytest.approx(tracer.pass_wall_s(0))
    assert tracer.durations_s("a", [0]) == pytest.approx([30e-9])


def test_spans_are_written_out(tmp_path):
    tracer = trace.Tracer()
    with tracer.span("root"):
        tracer.wrap(lambda: None, "child")()
    tracer.write(tmp_path / "spans.tsv.gz")
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as spans:
        rows = [line.split("\t") for line in spans.read().splitlines()]
    assert rows[0] == ["id", "parent", "pass", "name", "start_ns", "end_ns"]
    assert [row[:4] for row in rows[1:]] == [
        ["0", "-1", "0", "root"],
        ["1", "0", "0", "child"],
    ]


# -- statistics and comparison ----------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(1000, (99.0, 990.0)), (64, (75.0, 48.0)), (20, (50.0, 10.0)), (5, (50.0, 3.0))],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile([float(v) for v in range(count, 0, -1)]) == expected


def test_quartiles_match_the_statistics_module():
    assert stats.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [value - 5.0 for value in steady]
    much_slower = [value - 20.0 for value in steady]
    assert compare.verdict(steady, slower, "higher", 0.1)[0] == "ok"
    assert compare.verdict(steady, much_slower, "higher", 0.1)[0] == "regression"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.verdict(noisy, [99.0] * 5, "higher", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [150.0, 151.0, 152.0], "higher", 0.1)[0] == "ok"
    assert compare.verdict(steady, [120.0] * 5, "lower", 0.1)[0] == "regression"


def test_compare_claim_needs_nine_of_ten_pair_wins():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.claim(parent, [p + 10 for p in parent], "higher") == (True, 10, 10)
    mostly = [p + 10 for p in parent[:8]] + parent[8:]
    assert compare.claim(parent, mostly, "higher") == (False, 8, 10)
    assert not compare.claim(parent, [p + 0.5 for p in parent], "higher")[0]


def test_compare_refuses_runs_with_different_metadata():
    meta = {key: "x" for key in compare.SAME_KEYS}
    same = [{"meta": dict(meta, rev="a")}, {"meta": dict(meta, rev="b")}]
    assert compare.metadata_problems(same) == []
    other = same + [{"meta": dict(meta, tier="native")}]
    assert compare.metadata_problems(other) == ['tier differs: "native", "x"']


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_file_follows_its_schema():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    whys = [workload["why"] for workload in BENCHMARK["workloads"]]
    assert all(len(why) <= 200 and "\n" not in why for why in whys)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_golden_digests_cover_every_workload():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert set(golden) == set(workloads.WORKLOADS)
