"""The benchmark's workloads: inputs from a seed, one pass, a digest, an oracle.

Each workload builds its inputs from ``--seed`` alone and hands the program
only those inputs.  A pass is one call into a public entry point.  Its
result is reduced to a SHA-256 digest (every checked output: CLF, ALF
counts, shed frames, shares, admission) and an *oracle view* -- the part of
the result that :meth:`Workload.oracle` recomputes with the object-model or
event-loop engine, which the parity contract says must match bit for bit.

Why each workload exists is written next to it and in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from typing import Dict, List, Type

from repro.core import batch
from repro.core.protocol import ProtocolConfig, ProtocolSession
from repro.media.gop import GOP_12
from repro.media.stream import make_video_stream
from repro.network.markov import GilbertPhase
from repro.serve import bandwidth, hierarchy, service
from repro.serve.admission import estimate_demand
from repro.serve.loadgen import LoadSpec, generate_requests

#: Rows, sessions and windows per workload.  ``smoke`` keeps every code
#: path of ``full`` (shedding, rejection, regime switches) at a size the
#: harness tests can run in seconds.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "batch-clean": {"rows": 512, "windows": 64},
        "batch-bursty": {"rows": 256, "windows": 24},
        "serve-flash": {"sessions": 512},
        "plan-hierarchy": {"sessions": 4096},
    },
    "smoke": {
        "batch-clean": {"rows": 16, "windows": 4},
        "batch-bursty": {"rows": 6, "windows": 10},
        "serve-flash": {"sessions": 24},
        "plan-hierarchy": {"sessions": 128},
    },
}


def window_key(window) -> tuple:
    """Every per-window output the parity contract fixes, as plain values."""
    return (
        window.index,
        window.frames,
        window.sent,
        window.dropped_at_sender,
        window.shed,
        window.lost_in_network,
        window.retransmissions,
        window.recovered,
        window.late,
        window.clf,
        window.unit_losses,
        window.ack_delivered,
        window.first_attempt_stats,
        tuple(sorted(window.layer_bursts.items())),
    )


def session_key(result) -> tuple:
    """A :class:`~repro.core.protocol.SessionResult` as comparable values."""
    return (
        result.acks_sent,
        result.acks_used,
        result.acks_lost,
        result.packets_offered,
        result.packets_lost,
        result.mean_clf,
        tuple(window_key(window) for window in result.windows),
    )


def outcome_key(outcome) -> tuple:
    """A served session's admission, shares, shedding and results."""
    result = outcome.result
    return (
        outcome.request.session_id,
        outcome.request.priority,
        outcome.admitted,
        outcome.reason,
        outcome.shed_frames,
        outcome.share_bps,
        outcome.min_share_bps,
        outcome.demand_bps,
        outcome.critical_bps,
        session_key(result) if result is not None else None,
    )


def lean_outcome_key(outcome) -> tuple:
    """What a hierarchical run keeps per session (no per-window results)."""
    result = outcome.result
    return (
        outcome.request.session_id,
        outcome.request.priority,
        outcome.admitted,
        outcome.reason,
        outcome.shed_frames,
        outcome.share_bps,
        outcome.min_share_bps,
        outcome.demand_bps,
        outcome.critical_bps,
        result.mean_clf if result is not None else None,
        result.stream_clf if result is not None else None,
    )


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


class Workload:
    """One named workload; the constructor builds the pass inputs."""

    name = ""

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.size = SCALES[scale][self.name]

    def run_pass(self):
        """One closed-loop pass: a single call into the program."""
        raise NotImplementedError

    def windows(self, result) -> int:
        """Session-windows simulated by admitted sessions."""
        raise NotImplementedError

    def sessions(self, result) -> int:
        """Sessions offered (admitted + rejected)."""
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError

    def oracle_view(self, result):
        """The part of ``result`` :meth:`oracle` recomputes."""
        raise NotImplementedError

    def oracle(self):
        """The oracle view computed by the reference engine."""
        raise NotImplementedError

    def oracle_mismatches(self, view: List) -> int:
        """Items of ``view`` that differ from the oracle's."""
        oracle = self.oracle()
        differing = sum(1 for got, want in zip(view, oracle) if got != want)
        return differing + abs(len(view) - len(oracle))

    def performance(self, result) -> Dict[str, float]:
        """Wall-clock split the program reports about a pass, if any."""
        return {}


class _BatchWorkload(Workload):
    """``run_sessions_batch`` over ``rows`` seeds; rows are sessions."""

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        rows = self.size["rows"]
        self.max_windows = self.size["windows"]
        self.config = self.make_config()
        self.stream = make_video_stream(
            GOP_12, gop_count=self.max_windows * self.config.gops_per_window
        )
        self.seeds = [rows * seed + index for index in range(rows)]
        self.checked_rows = sorted({index * rows // 8 for index in range(8)})

    def make_config(self) -> ProtocolConfig:
        raise NotImplementedError

    def run_pass(self):
        return batch.run_sessions_batch(
            self.stream, self.config, seeds=self.seeds, max_windows=self.max_windows
        )

    def windows(self, result) -> int:
        return sum(len(row.windows) for row in result)

    def sessions(self, result) -> int:
        return len(result)

    def digest(self, result) -> str:
        return _sha256(session_key(row) for row in result)

    def oracle_view(self, result):
        return [session_key(result[index]) for index in self.checked_rows]

    def oracle(self):
        return [
            session_key(
                ProtocolSession(
                    self.stream, replace(self.config, seed=self.seeds[index])
                ).run(max_windows=self.max_windows)
            )
            for index in self.checked_rows
        ]


class BatchClean(_BatchWorkload):
    """Wide near-clean fleet: mostly full-collapse rows, no serving layer."""

    name = "batch-clean"

    def make_config(self) -> ProtocolConfig:
        return ProtocolConfig(p_good=0.995)


#: MILD -> HARSH -> MILD, the regimes of ``experiments/scenario.py``.
BURSTY_PHASES = (
    GilbertPhase(1500, 0.99, 0.3),
    GilbertPhase(1500, 0.85, 0.75),
    GilbertPhase(10**9, 0.99, 0.3),
)


class BatchBursty(_BatchWorkload):
    """Fragment-heavy windows over a regime switch: timeline-collapse rows."""

    name = "batch-bursty"

    def make_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            gops_per_window=5,
            packet_size_bytes=2048,
            retransmit_anchors=False,
            channel_phases=BURSTY_PHASES,
        )


def _per_viewer_demand(spec: LoadSpec) -> float:
    """Full demand of one generated viewer; every viewer shares the shape."""
    probe = generate_requests(replace(spec, sessions=1))[0]
    full, _ = estimate_demand(probe.stream, probe.config, max_windows=spec.max_windows)
    return full


class ServeFlash(Workload):
    """Flash crowd 20% over capacity on the fast path, priority scheduler."""

    name = "serve-flash"
    OVERLOAD = 1.2

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        spec = LoadSpec(
            sessions=self.size["sessions"],
            seed=seed,
            mean_interarrival=1e-3,
            gop_count=16,
            max_windows=8,
            high_priority_fraction=0.0,
        )
        # Exactly a quarter of the viewers are premium (the load generator's
        # weight 2, class 1).  The water-fill's cost grows faster than the
        # premium count, so drawing each viewer's class independently, as
        # the generator does, moves a pass's time by up to half between seeds.
        premium = set(
            random.Random(seed).sample(range(spec.sessions), spec.sessions // 4)
        )
        self.requests = [
            replace(request, weight=2.0, priority=1) if index in premium else request
            for index, request in enumerate(generate_requests(spec))
        ]
        self.capacity_bps = spec.sessions * _per_viewer_demand(spec) / self.OVERLOAD

    def _serve(self, fast: bool):
        return service.serve_sessions(
            self.requests,
            self.capacity_bps,
            fast=fast,
            scheduler=bandwidth.PriorityScheduler(),
        )

    def run_pass(self):
        return self._serve(fast=True)

    def windows(self, result) -> int:
        return sum(
            len(outcome.result.windows)
            for outcome in result.outcomes
            if outcome.admitted and outcome.result is not None
        )

    def sessions(self, result) -> int:
        return len(result.outcomes)

    def digest(self, result) -> str:
        return _sha256(outcome_key(outcome) for outcome in result.outcomes)

    def oracle_view(self, result):
        return [outcome_key(outcome) for outcome in result.outcomes]

    def oracle(self):
        return [outcome_key(outcome) for outcome in self._serve(fast=False).outcomes]


class PlanHierarchy(Workload):
    """The capacity planner's shape: many 64-session shards, one worker."""

    name = "plan-hierarchy"
    OVERLOAD = 1.6

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.spec = LoadSpec(
            sessions=self.size["sessions"],
            seed=seed,
            mean_interarrival=1e-4,
            gop_count=4,
            max_windows=2,
        )
        # Capacity per modeled server, as the capacity planner dials it:
        # its share of the fleet at the measured per-viewer demand.
        shards = hierarchy.plan_hierarchy(self.spec, 1.0, workers=1).shards
        self.capacity_bps = (
            self.spec.sessions / shards * _per_viewer_demand(self.spec) / self.OVERLOAD
        )

    def run_pass(self):
        # One worker: two busy workers on two shared cores measure the
        # host's scheduler, not the program.
        plan = hierarchy.plan_hierarchy(self.spec, self.capacity_bps, workers=1)
        return hierarchy.run_hierarchy(plan)

    def windows(self, result) -> int:
        return int(sum(result.window_totals["rows"]))

    def sessions(self, result) -> int:
        return result.sessions

    def digest(self, result) -> str:
        keys = [lean_outcome_key(outcome) for outcome in result.outcomes]
        return _sha256([keys, json.dumps(result.summary_dict(), sort_keys=True)])

    def _checked_tasks(self, plan) -> List:
        tasks = plan.shard_tasks
        return [tasks[i] for i in sorted({i * len(tasks) // 4 for i in range(4)})]

    def oracle_view(self, result):
        outcomes = result.outcomes
        views = []
        for task in self._checked_tasks(result.plan):
            rows = outcomes[task.row_offset : task.row_offset + task.spec.sessions]
            views.append([lean_outcome_key(outcome) for outcome in rows])
        return views

    def oracle(self):
        plan = hierarchy.plan_hierarchy(self.spec, self.capacity_bps, workers=1)
        views = []
        for task in self._checked_tasks(plan):
            served = service.serve_sessions(
                generate_requests(task.spec),
                plan.capacity_bps,
                scheduler=bandwidth.make_scheduler(plan.scheduler),
                shedding=plan.shedding,
                admission=plan.admission,
            )
            views.append([lean_outcome_key(outcome) for outcome in served.outcomes])
        return views

    def performance(self, result) -> Dict[str, float]:
        return result.performance_dict()


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (BatchClean, BatchBursty, ServeFlash, PlanHierarchy)
}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](seed, scale)
