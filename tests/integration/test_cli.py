"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.runner import available_experiments, run_experiment


class TestRunner:
    def test_available_names(self):
        names = available_experiments()
        assert "table1" in names and "figure8" in names and "gateways" in names

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            run_experiment("figure99")

    def test_table1_runs(self):
        rendered, shape = run_experiment("table1")
        assert "Table 1" in rendered
        assert shape is True


class TestCli:
    def test_list_experiments(self):
        out = io.StringIO()
        assert main(["experiments", "--list"], out=out) == 0
        assert "table2" in out.getvalue()

    def test_run_single_experiment(self):
        out = io.StringIO()
        assert main(["experiments", "table1"], out=out) == 0
        text = out.getvalue()
        assert "=== table1 ===" in text
        assert "[shape HOLDS]" in text

    def test_permute(self):
        out = io.StringIO()
        assert main(["permute", "17", "5"], out=out) == 0
        text = out.getvalue()
        assert "certified worst-case CLF" in text
        assert "CLF for bursts <= 5: 1" in text

    def test_bounds(self):
        out = io.StringIO()
        assert main(["bounds", "10"], out=out) == 0
        assert "Theorem 1 bracket" in out.getvalue()

    def test_trace_stdout(self):
        out = io.StringIO()
        assert main(["trace", "star_wars", "--gops", "3"], out=out) == 0
        assert "I " in out.getvalue()

    def test_trace_file_roundtrip(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "sw.trace"
        code = main(
            ["trace", "star_wars", "--gops", "4", "--out", str(path)], out=out
        )
        assert code == 0
        from repro.traces.io import read_trace

        stream = read_trace(path)
        assert len(stream) == 48

    def test_unknown_trace_movie(self):
        out = io.StringIO()
        with pytest.raises(Exception):
            main(["trace", "casablanca"], out=out)

    def test_replay_round_trip(self, tmp_path):
        from repro.core.protocol import ProtocolConfig, run_session
        from repro.experiments.persist import save_session
        from repro.media.gop import GOP_12
        from repro.media.stream import make_video_stream

        stream = make_video_stream(GOP_12, gop_count=4)
        result = run_session(stream, ProtocolConfig(p_bad=0.6, seed=3))
        path = tmp_path / "session.json"
        save_session(result, path)

        out = io.StringIO()
        assert main(["replay", str(path), "--loss-map"], out=out) == 0
        text = out.getvalue()
        assert "mean CLF" in text
        assert "CLF per window" in text
        assert "playout" in text

    def test_replay_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 42}')
        out = io.StringIO()
        with pytest.raises(Exception):
            main(["replay", str(path)], out=out)

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "permute", "8", "4"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "certified" in completed.stdout


class TestServeCli:
    def test_serve_shards_auto(self, monkeypatch):
        import repro.serve.hierarchy as hierarchy

        # Pin the heuristic so the assertion does not depend on the host.
        monkeypatch.setattr(
            hierarchy.os, "process_cpu_count", lambda: 2, raising=False
        )
        out = io.StringIO()
        assert main(
            ["serve", "--sessions", "6", "--shards", "auto", "--fast"], out=out
        ) == 0
        # Two shards of three sessions each, shard-prefixed labels.
        text = out.getvalue()
        assert "0:s00" in text and "1:s00" in text

    def test_serve_shards_writes_valid_manifest(self, tmp_path):
        import json

        from repro import obs
        from repro.obs.manifest import validate_manifest

        path = tmp_path / "sharded.json"
        out = io.StringIO()
        before = obs.enabled()
        assert main(
            ["serve", "--sessions", "6", "--shards", "2",
             "--manifest-out", str(path)],
            out=out,
        ) == 0
        # The command restores the caller's recording state.
        assert obs.enabled() == before
        assert "0:s00" in out.getvalue() and "1:s02" in out.getvalue()
        manifest = json.loads(path.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["config"]["sessions"] == 6
        # The literal pins the seed lineage: changing the stride changes
        # every sharded run's traffic.
        assert manifest["summary"]["plan"]["shard_seeds"] == [0, 15_485_863]

    def test_scenario_run_shards_labels_rows(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        assert main(
            ["scenario", "emit", "--out", str(spec_path)], out=io.StringIO()
        ) == 0
        spec = json.loads(spec_path.read_text())
        spec["load"]["arrival"] = "poisson"  # flash crowds cannot shard
        spec_path.write_text(json.dumps(spec))
        out = io.StringIO()
        assert main(
            ["scenario", "run", str(spec_path), "--shards", "2"], out=out
        ) == 0
        labels = [
            line.split()[0]
            for line in out.getvalue().splitlines()
            if line[:1].isdigit()
        ]
        assert labels == ["0:s00", "0:s01", "1:s00", "1:s01"]

    def test_serve_shards_rejects_garbage(self):
        out = io.StringIO()
        assert main(["serve", "--shards", "many"], out=out) == 2
        assert "integer or 'auto'" in out.getvalue()
        out = io.StringIO()
        assert main(["serve", "--shards", "0"], out=out) == 2

    def test_serve_plan_smoke_writes_reproducible_manifest(self, tmp_path):
        import json

        from repro.obs.manifest import validate_manifest

        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            out = io.StringIO()
            assert main(
                ["serve", "plan", "--smoke", "--seed", "7", "--out", str(path)],
                out=out,
            ) == 0
            assert "capacity plan" in out.getvalue()
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert validate_manifest(a) == []
        assert a["experiment"] == "capacity-plan"
        assert a["seed"] == 7
        assert a["summary"] == b["summary"]
        assert a["config"] == b["config"]

    def test_capacity_plan_experiment_registered(self):
        from repro.experiments.runner import available_experiments

        assert "capacity-plan" in available_experiments()
