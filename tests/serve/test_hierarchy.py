"""Tests for the hierarchical fan-out (repro.serve.hierarchy).

The load-bearing property is bit-for-bit parity: every shard of a
hierarchy run must reproduce the event-loop service serving that
shard's derived spec alone (``serve_sessions(..., fast=False)``) —
outcome for outcome, on every acceleration backend, for any worker
count.  Everything else (cost-model planning, the returned result
columns, failure paths, the reduced result surface) is tested around
that core.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel
from repro.core import kernel
from repro.errors import ConfigurationError
from repro.serve import LoadSpec, generate_requests, serve_sessions
from repro.serve.admission import ADMITTED_REASON
from repro.serve.hierarchy import (
    MAX_SHARD_SESSIONS,
    HierarchyPlan,
    plan_hierarchy,
    resolve_auto_shards,
    run_hierarchy,
    shard_specs,
)

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Run in a child process: SIGKILL the pool worker that plans shard 1,
#: then report what the coordinator raised and which children remain.
_KILLED_WORKER_SCRIPT = """
import multiprocessing, os, signal
from concurrent.futures.process import BrokenProcessPool
from repro.serve import LoadSpec, hierarchy

real = hierarchy._plan_shard
coordinator = os.getpid()

def killed(task, *args, **kwargs):
    if task.index == 1 and os.getpid() != coordinator:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(task, *args, **kwargs)

hierarchy._plan_shard = killed
spec = LoadSpec(sessions=8, seed=0, gop_count=4, max_windows=2)
try:
    hierarchy.run_hierarchy(spec, 2e6, shards=4, workers=2, jobs=2)
except BrokenProcessPool:
    print("raised BrokenProcessPool")
print("children left:", len(multiprocessing.active_children()))
"""

#: A fleet under enough pressure that admission rejects, shedding fires
#: and shares bind — the regime where a transport bug would show.
TIGHT = dict(sessions=48, seed=3, mean_interarrival=1e-3, gop_count=4, max_windows=2)
TIGHT_CAPACITY = 4_000_000.0


def _tight_spec() -> LoadSpec:
    return LoadSpec(**TIGHT)


def _per_shard_event_loop(plan, capacity_bps):
    """The oracle: each shard task served alone on the event loop."""
    return [
        serve_sessions(generate_requests(task.spec), capacity_bps, fast=False)
        for task in plan.shard_tasks
    ]


def _flat_keys(shard_results):
    keys = []
    for shard in shard_results:
        for outcome in shard.outcomes:
            result = outcome.result
            keys.append(
                (
                    outcome.request.session_id,
                    outcome.request.priority,
                    outcome.admitted,
                    outcome.reason,
                    outcome.shed_frames,
                    outcome.share_bps,
                    outcome.min_share_bps,
                    outcome.demand_bps,
                    outcome.critical_bps,
                    result.mean_clf if result else None,
                    result.stream_clf if result else None,
                )
            )
    return keys


def _hierarchy_keys(result):
    keys = []
    for outcome in result.outcomes:
        lean = outcome.result
        keys.append(
            (
                outcome.request.session_id,
                outcome.request.priority,
                outcome.admitted,
                outcome.reason,
                outcome.shed_frames,
                outcome.share_bps,
                outcome.min_share_bps,
                outcome.demand_bps,
                outcome.critical_bps,
                lean.mean_clf if lean else None,
                lean.stream_clf if lean else None,
            )
        )
    return keys


class TestPlanning:
    def test_cost_model_sizes_the_tree(self):
        spec = LoadSpec(sessions=1000, gop_count=4, max_windows=2)
        plan = plan_hierarchy(spec, 1e6, target_shard_cost=128)
        # 1000 sessions x 2 windows / 128 session-windows -> 16 shards.
        assert plan.shards == 16
        assert plan.windows_per_session == 2
        assert sum(task.spec.sessions for task in plan.shard_tasks) == 1000
        offsets = [task.row_offset for task in plan.shard_tasks]
        sizes = [task.spec.sessions for task in plan.shard_tasks]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_session_cap_binds_when_cost_budget_is_huge(self):
        spec = LoadSpec(sessions=4096, gop_count=4, max_windows=1)
        plan = plan_hierarchy(spec, 1e6, target_shard_cost=10**9)
        assert plan.shards == 4096 // MAX_SHARD_SESSIONS
        assert all(
            task.spec.sessions <= MAX_SHARD_SESSIONS for task in plan.shard_tasks
        )

    def test_explicit_shards_preserve_flat_seed_lineage(self):
        spec = _tight_spec()
        plan = plan_hierarchy(spec, TIGHT_CAPACITY, shards=6)
        assert plan.shards == 6
        assert plan.shard_seeds == [s.seed for s in shard_specs(spec, 6)]

    def test_worker_count_clamped_to_shards(self):
        spec = LoadSpec(sessions=8, gop_count=4, max_windows=2)
        plan = plan_hierarchy(spec, 1e6, shards=2, workers=64)
        assert plan.workers == 2

    def test_invalid_inputs_rejected(self):
        spec = LoadSpec(sessions=8)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 0.0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, target_shard_cost=0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, shards=0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, workers=0)
        with pytest.raises(ConfigurationError):
            plan_hierarchy(spec, 1e6, scheduler="bogus")

    def test_plan_to_dict_is_json_ready(self):
        import json

        plan = plan_hierarchy(LoadSpec(sessions=16), 1e6, shards=4)
        record = plan.to_dict()
        json.dumps(record)
        assert record["shards"] == 4
        assert len(record["shard_seeds"]) == 4


class TestParity:
    def test_matches_flat_fanout_on_every_backend(self):
        """Every shard equals the event-loop service on its own spec."""
        previous = accel.backend_name()
        try:
            for name in accel.available_backends():
                accel.set_backend(name)
                hier = run_hierarchy(
                    _tight_spec(), TIGHT_CAPACITY, shards=6, jobs=1
                )
                flat = _per_shard_event_loop(hier.plan, TIGHT_CAPACITY)
                assert hier.rejected_count > 0, "scenario must exercise admission"
                assert hier.shed_total > 0, "scenario must exercise shedding"
                assert _hierarchy_keys(hier) == _flat_keys(flat), (
                    f"backend {name!r} diverged"
                )
                assert hier.admitted_count == sum(len(s.admitted) for s in flat)
                assert hier.shed_total == sum(s.shed_total for s in flat)
        finally:
            accel.set_backend(previous)

    def test_single_shard_matches_fast_service(self):
        spec = LoadSpec(
            sessions=12, seed=1, mean_interarrival=1e-3, gop_count=4, max_windows=2
        )
        direct = serve_sessions(generate_requests(spec), TIGHT_CAPACITY, fast=True)
        hier = run_hierarchy(spec, TIGHT_CAPACITY, shards=1, jobs=1)
        direct_keys = [
            (
                o.request.session_id,
                o.admitted,
                o.reason,
                o.shed_frames,
                o.share_bps,
                o.min_share_bps,
                o.result.mean_clf if o.result else None,
                o.result.stream_clf if o.result else None,
            )
            for o in direct.outcomes
        ]
        hier_keys = [
            (
                o.request.session_id,
                o.admitted,
                o.reason,
                o.shed_frames,
                o.share_bps,
                o.min_share_bps,
                o.result.mean_clf if o.result else None,
                o.result.stream_clf if o.result else None,
            )
            for o in hier.outcomes
        ]
        assert hier_keys == direct_keys

    def test_independent_of_worker_count_and_pool_size(self):
        spec = _tight_spec()
        lone = run_hierarchy(spec, TIGHT_CAPACITY, shards=6, workers=1, jobs=1)
        pooled = run_hierarchy(spec, TIGHT_CAPACITY, shards=6, workers=3, jobs=3)
        assert lone.columns == pooled.columns
        assert lone.window_totals == pooled.window_totals
        assert lone.rejected_reasons == pooled.rejected_reasons
        assert lone.summary_dict() == pooled.summary_dict()

    def test_rejection_reasons_survive_the_lean_transport(self):
        result = run_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=6, jobs=1)
        rejected = result.rejected
        assert rejected
        assert all("critical demand" in o.reason for o in rejected)
        assert all(o.reason == ADMITTED_REASON for o in result.admitted)


class TestArena:
    """Results come home by value, so a failed run leaves nothing behind."""

    def test_worker_error_propagates_and_cleans_up(self, monkeypatch):
        from repro.serve import hierarchy

        def boom(*args, **kwargs):
            raise RuntimeError("planned failure")

        monkeypatch.setattr(hierarchy, "_plan_shard", boom)
        with pytest.raises(RuntimeError, match="planned failure"):
            run_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=4, jobs=1)


class TestFailurePaths:
    """Worker failures re-raise at the coordinator with their own type."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pooled"])
    @pytest.mark.parametrize(
        "error",
        [RuntimeError("shard blew up"), ConfigurationError("bad shard")],
        ids=["RuntimeError", "ConfigurationError"],
    )
    def test_failing_second_shard_reraises(self, monkeypatch, jobs, error):
        from repro.serve import hierarchy

        real = hierarchy._plan_shard

        def flaky(task, *args, **kwargs):
            if task.index == 1:
                raise error
            return real(task, *args, **kwargs)

        # Patched before the pool forks, so pooled workers inherit it.
        monkeypatch.setattr(hierarchy, "_plan_shard", flaky)
        spec = LoadSpec(sessions=8, seed=0, gop_count=4, max_windows=2)
        with pytest.raises(type(error), match=str(error)):
            run_hierarchy(spec, 2e6, shards=4, workers=2, jobs=jobs)

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="kills a forked pool worker"
    )
    def test_killed_worker_raises_instead_of_hanging(self):
        """A SIGKILLed pool worker breaks the pool; the run raises."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_WORKER_SCRIPT],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        try:
            output, _ = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            pytest.fail("the coordinator hung on a killed worker")
        finally:
            # The child leads its own process group: whatever it left
            # behind, hung or not, goes down with it.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        assert child.returncode == 0, output
        assert "raised BrokenProcessPool" in output
        assert "children left: 0" in output

    def test_interrupted_fan_out_propagates(self, monkeypatch):
        from repro.serve import hierarchy

        def interrupted(fn, tasks, jobs):
            raise KeyboardInterrupt

        monkeypatch.setattr(hierarchy, "parallel_map", interrupted)
        spec = LoadSpec(sessions=4, seed=0, gop_count=4, max_windows=2)
        with pytest.raises(KeyboardInterrupt):
            run_hierarchy(spec, 2e6, shards=2)


class TestCacheScope:
    """Window shapes are built once per worker, and die with the call."""

    def _spec(self):
        # 64 two-viewer shards; every window has one shape.
        return LoadSpec(
            sessions=128, seed=5, mean_interarrival=1e-3, gop_count=4, max_windows=2
        )

    def test_one_shape_per_family_and_window_shape(self, monkeypatch):
        import gc
        import weakref

        built = []
        alive = weakref.WeakSet()

        class CountingShape(kernel.WindowShape):
            def __init__(self, window, config):
                built.append((len(window), config.closed_gops, config.layered))
                super().__init__(window, config)
                alive.add(self)

        monkeypatch.setattr(kernel, "WindowShape", CountingShape)
        plan = plan_hierarchy(self._spec(), 1_200_000.0, shards=64, workers=1)
        assert plan.shards == 64 and plan.workers == 1
        result = run_hierarchy(plan, jobs=1)
        assert result.admitted_count > 0
        assert built == [(24, False, True)]
        # The worker's cache died with the call that built it.
        gc.collect()
        assert len(alive) == 0

    def test_no_module_level_cache_grows_across_runs(self):
        import sys

        def container_sizes():
            sizes = {}
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if isinstance(value, (dict, list, set)):
                        sizes[(name, attr)] = len(value)
            return sizes

        plan = plan_hierarchy(self._spec(), 1_200_000.0, shards=64, workers=1)
        run_hierarchy(plan, jobs=1)
        before = container_sizes()
        run_hierarchy(plan, jobs=1)
        after = container_sizes()
        grown = {
            key: (before.get(key, 0), size)
            for key, size in after.items()
            if size > before.get(key, 0)
        }
        assert not grown


class TestMergedSlab:
    """A slab steps every shard's rows in one batch per (family, window)."""

    CAPACITY = 1_400_000.0  # two viewers per shard: shares split, shedding fires

    def _spec(self):
        return LoadSpec(
            sessions=128, seed=3, mean_interarrival=1e-3, gop_count=4, max_windows=2
        )

    def test_one_step_per_family_and_window_per_ordinal(self, monkeypatch):
        from dataclasses import replace

        calls = []
        real = kernel.step_window

        def recording(rows, info, config, fps, window_index, **kwargs):
            keys = {
                (window_index, replace(row.config, seed=0), row.fps, row.window)
                for row in rows
            }
            calls.append((keys, {row.bandwidth_bps for row in rows}))
            return real(rows, info, config, fps, window_index, **kwargs)

        monkeypatch.setattr(kernel, "step_window", recording)
        plan = plan_hierarchy(self._spec(), self.CAPACITY, shards=64, workers=1)
        result = run_hierarchy(plan, jobs=1)
        assert result.shed_total > 0
        # Each call carries one (ordinal, family, window) key, and no
        # key is stepped twice: one call per distinct key.
        assert all(len(keys) == 1 for keys, _ in calls)
        stepped = [next(iter(keys)) for keys, _ in calls]
        assert len(stepped) == len(set(stepped))
        assert len(stepped) <= 2 * plan.windows_per_session
        # Rows at different shares shared a step.
        assert any(len(shares) > 1 for _, shares in calls)

    def test_matches_the_per_shard_event_loop(self):
        plan = plan_hierarchy(self._spec(), self.CAPACITY, shards=64, workers=1)
        hier = run_hierarchy(plan, jobs=1)
        expected = _per_shard_event_loop(plan, self.CAPACITY)
        assert _hierarchy_keys(hier) == _flat_keys(expected)


class TestResultSurface:
    def _result(self):
        return run_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=6, jobs=1)

    def test_percentiles_are_nearest_rank(self):
        from repro.serve.hierarchy import _percentile

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert _percentile(values, 50.0) == 3.0
        assert _percentile(values, 95.0) == 5.0
        assert _percentile(values, 1.0) == 1.0
        assert _percentile([], 50.0) == 0.0

    def test_summary_is_deterministic_and_wall_free(self):
        result = self._result()
        summary = result.summary_dict()
        flat = str(summary)
        assert "wall" not in flat and "seconds" not in flat
        assert summary == self._result().summary_dict()
        perf = result.performance_dict()
        assert perf["wall_seconds"] > 0.0
        assert perf["sessions_per_second"] > 0.0
        for key in ("worker_plan_seconds", "worker_serve_seconds",
                    "worker_reduce_seconds", "coordinator_seconds"):
            assert perf[key] >= 0.0

    def test_per_window_curve_accounts_every_admitted_session(self):
        result = self._result()
        curve = result.per_window_curve()
        assert [point["window"] for point in curve] == [0, 1]
        assert all(point["sessions"] == result.admitted_count for point in curve)
        assert sum(point["shed_frames"] for point in curve) == result.shed_total

    def test_describe_mentions_the_tree_and_the_tiles(self):
        text = self._result().describe()
        assert "shards" in text and "workers" in text
        assert "p50/p95/p99" in text and "sessions/s" in text

    def test_accepts_prebuilt_plan_and_requires_capacity_otherwise(self):
        plan = plan_hierarchy(_tight_spec(), TIGHT_CAPACITY, shards=2)
        assert isinstance(plan, HierarchyPlan)
        result = run_hierarchy(plan, jobs=1)
        assert result.sessions == TIGHT["sessions"]
        with pytest.raises(ConfigurationError):
            run_hierarchy(_tight_spec())


class TestAutoShards:
    def test_uses_process_cpu_count_when_available(self, monkeypatch):
        from repro.serve import hierarchy

        monkeypatch.setattr(
            hierarchy.os, "process_cpu_count", lambda: 6, raising=False
        )
        assert resolve_auto_shards(100) == 6
        assert resolve_auto_shards(4) == 4  # capped by the fleet

    def test_falls_back_to_cpu_count(self, monkeypatch):
        from repro.serve import hierarchy

        monkeypatch.delattr(hierarchy.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(hierarchy.os, "cpu_count", lambda: 3)
        assert resolve_auto_shards(100) == 3

    def test_never_below_one(self, monkeypatch):
        from repro.serve import hierarchy

        monkeypatch.delattr(hierarchy.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(hierarchy.os, "cpu_count", lambda: None)
        assert resolve_auto_shards(100) == 1

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            resolve_auto_shards(0)
