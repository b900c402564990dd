"""Sharded serving: a fleet of fleets, reduced from returned columns.

Every multi-bottleneck run goes through :func:`run_hierarchy`.  One
shard models one server of a fleet: its own bottleneck of
``capacity_bps``, its own admission controller and its own shedding
policy.  The module owns the shard partition and the lean result
surface, and splits a run into three stages:

1. **Plan.**  :func:`plan_hierarchy` sizes the shard tree from a cost
   model — each shard is budgeted ``sessions x windows`` work units
   (:data:`TARGET_SHARD_COST`) and capped at
   :data:`MAX_SHARD_SESSIONS` viewers so the per-shard scheduling
   replay stays cheap — while the *worker* count comes from the usable
   cores (:func:`resolve_auto_shards`).  An explicit ``shards=S``
   overrides the cost model.  Shard seed lineage is pinned either way:
   shard ``i`` serves the :func:`shard_specs` slice seeded
   ``spec.seed + i * SHARD_SEED_STRIDE``, so identical spec + shard
   count always reproduces identical traffic, whatever the worker
   count.
2. **Execute.**  A process pool of ``workers`` hosts the shards, many
   per worker.  Each worker replays every assigned shard's scheduling
   timeline (:class:`~repro.serve.fastpath._PlanningService`), then
   advances *all* of its admitted fleets per window epoch through one
   :func:`repro.core.kernel.step_fleet` slab call — cross-shard rows
   merge into one batch per (config family, window), refill off one
   stacked Gilbert draw per channel family and batch into shared
   :func:`~repro.accel.batch_worst_clf` stacks, with no per-session
   Python object crossing a process boundary.  Per-row
   draws come off private streams, so interleaving shards changes no
   row's loss sequence (the parity battery in
   ``tests/serve/test_hierarchy.py`` pins every shard bit-for-bit
   against the event-loop service serving that shard's spec alone).
3. **Reduce.**  Each worker folds its fleets into plain float
   columns — per-session outcomes, per-(shard, window) CLF/ALF/shed
   aggregates, per-shard timings — and returns them as the value of
   :func:`~repro.experiments.parallel.parallel_map`.  The coordinator
   joins the chunks in shard order: no per-session objects and no
   per-session strings cross a process boundary (reasons are
   reconstructed from :data:`~repro.serve.admission.ADMITTED_REASON`
   plus the short rejected-reason list each worker returns).  A
   worker's exception, or a killed worker, raises at the coordinator.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernel
from repro.errors import ConfigurationError
from repro.experiments.parallel import parallel_map
from repro.media.gop import GOP_12
from repro.serve.admission import ADMITTED_REASON
from repro.serve.fastpath import (
    _FleetExecution,
    _FleetTables,
    _PlanningService,
    _fleet_batches,
)
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import SessionOutcome

__all__ = [
    "MAX_SHARD_SESSIONS",
    "SHARD_SEED_STRIDE",
    "SLAB_SESSION_BUDGET",
    "TARGET_SHARD_COST",
    "HierarchyPlan",
    "HierarchyResult",
    "ShardTask",
    "plan_hierarchy",
    "resolve_auto_shards",
    "run_hierarchy",
    "shard_specs",
]

#: Load-seed spacing between shards of one sharded run.  Far from both
#: the per-session stride of :mod:`repro.serve.loadgen` (7919) and the
#: feedback-channel offset (104729), so shard lineages never collide
#: with in-shard session seeds.  Pinned: changing it changes every
#: sharded run's traffic.
SHARD_SEED_STRIDE = 15_485_863

#: Cost-model budget per shard, in session-windows.  A shard is one
#: modeled server: its scheduling replay is quadratic-ish in its fleet
#: (every arrival re-allocates over the active set), so the planner
#: splits the load until ``sessions x windows`` per shard fits the
#: budget rather than taking a flat ``--shards N``.  128 keeps the
#: replay linear-ish in ``K`` overall; the execute phase batches across
#: shards anyway, so small shards cost the kernel nothing.
TARGET_SHARD_COST = 128

#: Hard viewer cap per shard, whatever the window count — bounds the
#: scheduling replay and the per-shard memory footprint at K = 10^5.
MAX_SHARD_SESSIONS = 1024

#: A worker advances its assigned shards in slabs of at most this many
#: sessions concurrently, reducing each slab into the worker's result
#: columns and freeing it before planning the next — the worker's
#: resident fleet state stays bounded no matter how many shards it was
#: handed.
SLAB_SESSION_BUDGET = 4096

#: Per-session outcome columns a worker returns, one value per session row.
SESSION_COLUMNS = (
    "admitted",
    "has_result",
    "priority",
    "mean_clf",
    "stream_clf",
    "shed_frames",
    "share_bps",
    "min_share_bps",
    "demand_bps",
    "critical_bps",
)

#: Per-(shard, window-ordinal) aggregate columns: the QoE curve inputs.
WINDOW_COLUMNS = ("clf_sum", "alf_sum", "shed_frames", "frames", "rows")

#: Per-shard bookkeeping columns (timings feed the coordinator-vs-worker
#: wall split in ``tools/profile_hotpath.py --target hierarchy``).
SHARD_COLUMNS = (
    "plan_seconds", "serve_seconds", "reduce_seconds", "sessions", "admitted"
)


# ----------------------------------------------------------------------
# Planning: the shard partition and the shard tree from a cost model
# ----------------------------------------------------------------------


def resolve_auto_shards(sessions: int) -> int:
    """The ``--shards auto`` heuristic: one shard per usable core.

    Uses :func:`os.process_cpu_count` (the CPUs this process may
    actually run on — affinity masks and cgroup limits included) where
    the runtime has it, falling back to :func:`os.cpu_count`, and caps
    the result at the fleet size so no shard starts empty.  The same
    count is the default worker count of :func:`plan_hierarchy`.
    """
    if sessions <= 0:
        raise ConfigurationError("sessions must be positive")
    counter = getattr(os, "process_cpu_count", None)
    cpus = counter() if counter is not None else None
    if not cpus:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, sessions))


def shard_specs(spec: LoadSpec, shards: int) -> List[LoadSpec]:
    """Partition a load spec into per-shard specs with pinned seeds.

    Shard ``i`` receives ``sessions // shards`` viewers (the first
    ``sessions % shards`` shards get one extra) generated from the
    derived seed ``spec.seed + i * SHARD_SEED_STRIDE``; inside a shard,
    the load generator's own per-session seed derivation applies
    unchanged.  With more shards than sessions the empty tail shards
    are dropped.
    """
    if shards <= 0:
        raise ConfigurationError("shard count must be positive")
    base, extra = divmod(spec.sessions, shards)
    specs: List[LoadSpec] = []
    for index in range(shards):
        sessions = base + (1 if index < extra else 0)
        if sessions == 0:
            break
        specs.append(
            replace(
                spec,
                sessions=sessions,
                seed=spec.seed + index * SHARD_SEED_STRIDE,
            )
        )
    return specs


@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of the fleet: spec + first session row."""

    index: int
    spec: LoadSpec
    row_offset: int


@dataclass(frozen=True)
class HierarchyPlan:
    """The planned shard tree of one hierarchical run."""

    spec: LoadSpec
    capacity_bps: float
    scheduler: str
    shedding: bool
    admission: bool
    windows_per_session: int
    target_shard_cost: int
    shard_tasks: Tuple[ShardTask, ...]
    workers: int

    @property
    def sessions(self) -> int:
        return self.spec.sessions

    @property
    def shards(self) -> int:
        return len(self.shard_tasks)

    @property
    def shard_seeds(self) -> List[int]:
        return [task.spec.seed for task in self.shard_tasks]

    def describe(self) -> str:
        sizes = [task.spec.sessions for task in self.shard_tasks]
        return (
            f"{self.sessions} sessions x {self.windows_per_session} windows "
            f"-> {self.shards} shards ({min(sizes)}-{max(sizes)} sessions each, "
            f"target {self.target_shard_cost} session-windows) "
            f"on {self.workers} workers"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready plan record for run manifests.

        Deliberately excludes ``workers``: the worker count is runtime
        provisioning (it defaults to the machine's usable cores) and
        never shapes an outcome, so keeping it out lets seed-pinned
        summaries reproduce byte for byte across machines.
        """
        return {
            "sessions": self.sessions,
            "windows_per_session": self.windows_per_session,
            "target_shard_cost": self.target_shard_cost,
            "shards": self.shards,
            "shard_sessions": [task.spec.sessions for task in self.shard_tasks],
            "shard_seeds": self.shard_seeds,
        }


def _windows_per_session(spec: LoadSpec) -> int:
    """Exact windows each generated session will stream.

    The load generator emits GOP-12 streams of ``gop_count`` GOPs, so
    the window count is fully determined by the spec — no stream needs
    to be materialized to cost the plan.
    """
    frames = GOP_12.size * spec.gop_count
    total = max(1, math.ceil(frames / spec.config.window_frames))
    if spec.max_windows is not None:
        total = min(total, spec.max_windows)
    return max(1, total)


def plan_hierarchy(
    spec: LoadSpec,
    capacity_bps: float,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    target_shard_cost: int = TARGET_SHARD_COST,
    scheduler: str = "fair",
    shedding: bool = True,
    admission: bool = True,
) -> HierarchyPlan:
    """Size the shard tree for ``spec`` from the cost model.

    ``shards`` overrides the cost model (the CLI's ``--shards S``);
    ``workers`` overrides the one-per-usable-core default.  Either way
    shard seed lineage is pinned by :func:`shard_specs`.
    """
    if capacity_bps <= 0:
        raise ConfigurationError("capacity must be positive")
    if target_shard_cost <= 0:
        raise ConfigurationError("target shard cost must be positive")
    from repro.serve.bandwidth import make_scheduler

    make_scheduler(scheduler)  # validate the name early
    windows = _windows_per_session(spec)
    if shards is None:
        shards = max(
            math.ceil(spec.sessions * windows / target_shard_cost),
            math.ceil(spec.sessions / MAX_SHARD_SESSIONS),
        )
    elif shards <= 0:
        raise ConfigurationError("shard count must be positive")
    shards = max(1, min(shards, spec.sessions))
    specs = shard_specs(spec, shards)
    tasks: List[ShardTask] = []
    offset = 0
    for index, shard_spec in enumerate(specs):
        tasks.append(ShardTask(index=index, spec=shard_spec, row_offset=offset))
        offset += shard_spec.sessions
    if workers is None:
        workers = resolve_auto_shards(spec.sessions)
    elif workers <= 0:
        raise ConfigurationError("worker count must be positive")
    workers = max(1, min(workers, len(tasks)))
    return HierarchyPlan(
        spec=spec,
        capacity_bps=capacity_bps,
        scheduler=scheduler,
        shedding=shedding,
        admission=admission,
        windows_per_session=windows,
        target_shard_cost=target_shard_cost,
        shard_tasks=tuple(tasks),
        workers=workers,
    )


# ----------------------------------------------------------------------
# Workers: many fleets per epoch, results returned as columns
# ----------------------------------------------------------------------


class _ChunkColumns:
    """One worker chunk's numeric results, returned to the coordinator.

    Plain float lists, each part indexed from the chunk's first shard:
    the run's session row ``r`` sits at ``r - row_base`` of
    :data:`SESSION_COLUMNS`, shard ``s`` at ``s - shard_base`` of
    :data:`SHARD_COLUMNS`, and shard ``s``'s window ordinal ``w`` at
    ``(s - shard_base) * max_windows + w`` of :data:`WINDOW_COLUMNS`.
    """

    __slots__ = (
        "sessions", "windows", "shards", "row_base", "shard_base", "max_windows"
    )

    def __init__(self, chunk: Sequence[ShardTask], max_windows: int) -> None:
        rows = sum(task.spec.sessions for task in chunk)
        self.row_base = chunk[0].row_offset
        self.shard_base = chunk[0].index
        self.max_windows = max_windows
        self.sessions = {name: [0.0] * rows for name in SESSION_COLUMNS}
        self.windows = {
            name: [0.0] * (len(chunk) * max_windows) for name in WINDOW_COLUMNS
        }
        self.shards = {name: [0.0] * len(chunk) for name in SHARD_COLUMNS}


def _session_row(task: ShardTask, session_id: str) -> int:
    """Run-wide row of one shard-local session (load-generator ids)."""
    return task.row_offset + int(session_id[1:])


def _slabs(tasks: Sequence[ShardTask]) -> Iterator[List[ShardTask]]:
    """Chunk a worker's shards so concurrent sessions stay bounded."""
    slab: List[ShardTask] = []
    sessions = 0
    for task in tasks:
        if slab and sessions + task.spec.sessions > SLAB_SESSION_BUDGET:
            yield slab
            slab, sessions = [], 0
        slab.append(task)
        sessions += task.spec.sessions
    if slab:
        yield slab


def _plan_shard(
    task: ShardTask,
    out: _ChunkColumns,
    capacity_bps: float,
    scheduler_name: str,
    shedding: bool,
    admission: bool,
    rejected: List[Tuple[int, str]],
    tables: _FleetTables,
) -> Tuple[Optional[_FleetExecution], int]:
    """Replay one shard's scheduling; write the static outcome columns.

    Returns the shard's admitted fleet (``None`` when everything was
    rejected) and its admitted count.  Rejection reasons — the only
    non-numeric outcome data — are collected into ``rejected`` as
    ``(session_row, reason)`` pairs; admitted reasons need no transport
    (they are all :data:`~repro.serve.admission.ADMITTED_REASON`).  The
    fleet interns its configs and windows into the slab's ``tables``.
    """
    from repro.serve.bandwidth import make_scheduler

    planner = _PlanningService(
        capacity_bps,
        scheduler=make_scheduler(scheduler_name),
        shedding=shedding,
        admission=admission,
    )
    planner.submit_all(generate_requests(task.spec))
    result = planner.run()
    columns = out.sessions
    admitted_col = columns["admitted"]
    priority_col = columns["priority"]
    share_col = columns["share_bps"]
    demand_col = columns["demand_bps"]
    critical_col = columns["critical_bps"]
    plans = []
    admitted = 0
    for outcome in result.outcomes:
        row = _session_row(task, outcome.request.session_id)
        local = row - out.row_base
        admitted_col[local] = 1.0 if outcome.admitted else 0.0
        priority_col[local] = float(outcome.request.priority)
        share_col[local] = float(outcome.share_bps)
        demand_col[local] = float(outcome.demand_bps)
        critical_col[local] = float(outcome.critical_bps)
        if outcome.admitted:
            admitted += 1
            plans.append(planner.session_plans[outcome.request.session_id])
        elif outcome.reason:
            rejected.append((row, outcome.reason))
    execution = (
        _FleetExecution(plans, planner._shed_policy, tables) if plans else None
    )
    return execution, admitted


def _reduce_shard(
    task: ShardTask, execution: _FleetExecution, out: _ChunkColumns
) -> None:
    """Fold one finished fleet's results into the columns, then drop it.

    The lean twin of :meth:`_FleetExecution.finalize`: the same numbers
    land in the session columns, but nothing is written back onto
    outcome objects and no per-session observability fires — at
    K = 10^5 that would be the hot path.
    """
    columns = out.sessions
    has_result_col = columns["has_result"]
    mean_col = columns["mean_clf"]
    stream_col = columns["stream_clf"]
    session_shed_col = columns["shed_frames"]
    share_col = columns["share_bps"]
    min_share_col = columns["min_share_bps"]
    windows = out.windows
    clf_sum = windows["clf_sum"]
    alf_sum = windows["alf_sum"]
    shed_col = windows["shed_frames"]
    frames_col = windows["frames"]
    rows_col = windows["rows"]
    base = (task.index - out.shard_base) * out.max_windows
    for fleet_row in execution.rows:
        outcome = fleet_row.plan.outcome
        result = fleet_row.result
        local = _session_row(task, outcome.request.session_id) - out.row_base
        has_result_col[local] = 1.0
        mean_col[local] = float(result.mean_clf)
        stream_col[local] = float(result.stream_clf)
        session_shed_col[local] = float(fleet_row.shed_total)
        share_col[local] = float(outcome.share_bps)
        min_share_col[local] = float(fleet_row.min_share_bps)
        for ordinal, window in enumerate(result.windows):
            slot = base + ordinal
            clf_sum[slot] += window.clf
            alf_sum[slot] += window.alf
            shed_col[slot] += window.shed
            frames_col[slot] += window.frames
            rows_col[slot] += 1.0


def _run_slab(
    slab: List[ShardTask],
    out: _ChunkColumns,
    capacity_bps: float,
    scheduler_name: str,
    shedding: bool,
    admission: bool,
    rejected: List[Tuple[int, str]],
    shape_caches: Dict[tuple, dict],
) -> None:
    """Plan, execute and reduce one slab of shards.

    All of the slab's admitted fleets advance per window epoch through
    **one** :func:`repro.core.kernel.step_fleet` call, and rows of every
    shard merge into one batch per (config family, window): each row's
    share and shed set are its own columns.  Cross-shard rows share
    stacked Gilbert refills, timelines and CLF batches.  Per-row draws
    come off private streams, so the interleaving is invisible to any
    single session's results.

    The intern tables behind the merge live for this slab only: their
    window ids are keyed by identity, so they must not outlive the
    slab's windows.
    """
    meta = out.shards
    plan_col = meta["plan_seconds"]
    serve_col = meta["serve_seconds"]
    reduce_col = meta["reduce_seconds"]
    tables = _FleetTables(shape_caches)
    live: List[Tuple[ShardTask, _FleetExecution]] = []
    for task in slab:
        started = time.perf_counter()
        execution, admitted = _plan_shard(
            task,
            out,
            capacity_bps,
            scheduler_name,
            shedding,
            admission,
            rejected,
            tables,
        )
        local = task.index - out.shard_base
        plan_col[local] = time.perf_counter() - started
        meta["sessions"][local] = float(task.spec.sessions)
        meta["admitted"][local] = float(admitted)
        if execution is not None:
            live.append((task, execution))
    started = time.perf_counter()
    fleets = [execution for _, execution in live]
    epochs = max((execution.total_windows for execution in fleets), default=0)
    for ordinal in range(epochs):
        kernel.step_fleet(_fleet_batches(fleets, ordinal))
    serve_wall = time.perf_counter() - started
    # The epoch loop is shared across the slab; apportion its wall by
    # each shard's admitted-row share (slab granularity — documented in
    # DESIGN.md — so per-shard serve times sum to the true slab wall).
    total_rows = sum(len(execution.rows) for _, execution in live) or 1
    for task, execution in live:
        local = task.index - out.shard_base
        serve_col[local] = serve_wall * len(execution.rows) / total_rows
        started = time.perf_counter()
        _reduce_shard(task, execution, out)
        reduce_col[local] = time.perf_counter() - started


def _run_worker(task) -> Tuple[_ChunkColumns, List[Tuple[int, str]]]:
    """Worker: serve a chunk of shards; return its columns (picklable).

    Returns the chunk's :class:`_ChunkColumns` and its rejected-reason
    list.  An exception propagates to the coordinator through
    :func:`~repro.experiments.parallel.parallel_map`.

    Window shapes, layouts and permutation plans are cached per config
    family for this call only: every shard the worker serves shares
    them, and they are dropped when the call returns.

    Each slab runs with the cyclic garbage collector paused
    (:func:`repro.core.kernel.gc_paused`): planning, stepping and
    reducing build no reference cycles, so collector scans would
    reclaim nothing.
    """
    chunk, max_windows, capacity_bps, scheduler_name, shedding, admission = task
    out = _ChunkColumns(chunk, max_windows)
    rejected: List[Tuple[int, str]] = []
    shape_caches: Dict[tuple, dict] = {}
    for slab in _slabs(chunk):
        with kernel.gc_paused():
            _run_slab(
                slab,
                out,
                capacity_bps,
                scheduler_name,
                shedding,
                admission,
                rejected,
                shape_caches,
            )
    return out, rejected


def _assign(tasks: Sequence[ShardTask], workers: int) -> List[List[ShardTask]]:
    """Contiguous near-equal shard chunks, one per worker, in shard order.

    Shard sizes differ by at most one session, so equal shard counts
    are equal work.  The coordinator relies on the order: concatenating
    the chunks' columns in chunk order puts session row ``r`` at index
    ``r`` and shard ``s``'s window ordinal ``w`` at
    ``s * windows_per_session + w``.
    """
    workers = max(1, min(workers, len(tasks)))
    base, extra = divmod(len(tasks), workers)
    chunks: List[List[ShardTask]] = []
    position = 0
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        chunks.append(list(tasks[position:position + count]))
        position += count
    return chunks


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _LeanRequest:
    """Request surface a summarised outcome still exposes."""

    session_id: str
    priority: int


@dataclass(frozen=True)
class _LeanResult:
    """Result surface a summarised outcome still exposes."""

    mean_clf: float
    stream_clf: int


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class HierarchyResult:
    """Reduced outcome of one hierarchical run.

    Holds the workers' numeric columns, joined in shard order, plus the
    rejected-reason map; duck-types
    enough of :class:`~repro.serve.service.ServiceResult` for manifests
    and the CLI (``outcomes`` rebuilds lean outcome objects lazily —
    summaries never need them).
    """

    def __init__(
        self,
        plan: HierarchyPlan,
        columns: Dict[str, List[float]],
        window_totals: Dict[str, List[float]],
        shard_stats: Dict[str, List[float]],
        rejected_reasons: Dict[int, str],
        wall_seconds: float,
    ) -> None:
        self.plan = plan
        self.columns = columns
        self.window_totals = window_totals
        self.shard_stats = shard_stats
        self.rejected_reasons = rejected_reasons
        self.wall_seconds = wall_seconds
        self._outcomes: Optional[List[SessionOutcome]] = None

    # -- ServiceResult surface -----------------------------------------

    @property
    def capacity_bps(self) -> float:
        return self.plan.capacity_bps

    @property
    def scheduler(self) -> str:
        return self.plan.scheduler

    @property
    def shedding(self) -> bool:
        return self.plan.shedding

    @property
    def admission(self) -> bool:
        return self.plan.admission

    @property
    def sessions(self) -> int:
        return self.plan.sessions

    @property
    def admitted_count(self) -> int:
        return sum(1 for flag in self.columns["admitted"] if flag > 0.0)

    @property
    def rejected_count(self) -> int:
        return self.sessions - self.admitted_count

    def _admitted_values(self, name: str) -> List[float]:
        admitted = self.columns["admitted"]
        has_result = self.columns["has_result"]
        column = self.columns[name]
        return [
            column[row]
            for row in range(self.sessions)
            if admitted[row] > 0.0 and has_result[row] > 0.0
        ]

    @property
    def mean_clf(self) -> float:
        values = self._admitted_values("mean_clf")
        return sum(values) / len(values) if values else 0.0

    @property
    def worst_clf(self) -> int:
        values = self._admitted_values("stream_clf")
        return int(max(values, default=0.0))

    @property
    def shed_total(self) -> int:
        return int(sum(self._admitted_values("shed_frames")))

    @property
    def frames_total(self) -> int:
        """Frames offered across every admitted session's windows."""
        return int(sum(self.window_totals["frames"]))

    @property
    def shed_rate(self) -> float:
        frames = self.frames_total
        return self.shed_total / frames if frames else 0.0

    def clf_percentiles(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, Dict[str, float]]:
        """Nearest-rank percentiles of the admitted fleet's CLF columns."""
        stream = self._admitted_values("stream_clf")
        mean = self._admitted_values("mean_clf")
        return {
            "stream_clf": {
                f"p{pct:g}": _percentile(stream, pct) for pct in percentiles
            },
            "mean_clf": {
                f"p{pct:g}": _percentile(mean, pct) for pct in percentiles
            },
        }

    def per_window_curve(self) -> List[Dict[str, float]]:
        """Fleet-wide mean CLF/ALF and shed count per window ordinal."""
        max_windows = self.plan.windows_per_session
        shards = self.plan.shards
        totals = self.window_totals
        curve: List[Dict[str, float]] = []
        for ordinal in range(max_windows):
            slots = [s * max_windows + ordinal for s in range(shards)]
            rows = sum(totals["rows"][slot] for slot in slots)
            if not rows:
                continue
            curve.append(
                {
                    "window": ordinal,
                    "sessions": int(rows),
                    "mean_clf": sum(totals["clf_sum"][slot] for slot in slots) / rows,
                    "mean_alf": sum(totals["alf_sum"][slot] for slot in slots) / rows,
                    "shed_frames": int(
                        sum(totals["shed_frames"][slot] for slot in slots)
                    ),
                }
            )
        return curve

    @property
    def outcomes(self) -> List[SessionOutcome]:
        """Lean per-session outcomes, rebuilt from the columns on demand."""
        if self._outcomes is None:
            columns = self.columns
            outcomes: List[SessionOutcome] = []
            for task in self.plan.shard_tasks:
                for local in range(task.spec.sessions):
                    row = task.row_offset + local
                    admitted = columns["admitted"][row] > 0.0
                    has_result = columns["has_result"][row] > 0.0
                    if admitted:
                        reason = ADMITTED_REASON if self.plan.admission else ""
                    else:
                        reason = self.rejected_reasons.get(row, "")
                    outcomes.append(
                        SessionOutcome(
                            request=_LeanRequest(
                                session_id=f"s{local:02d}",
                                priority=int(columns["priority"][row]),
                            ),
                            admitted=admitted,
                            reason=reason,
                            result=(
                                _LeanResult(
                                    mean_clf=columns["mean_clf"][row],
                                    stream_clf=int(columns["stream_clf"][row]),
                                )
                                if has_result
                                else None
                            ),
                            shed_frames=int(columns["shed_frames"][row]),
                            share_bps=columns["share_bps"][row],
                            min_share_bps=columns["min_share_bps"][row],
                            demand_bps=columns["demand_bps"][row],
                            critical_bps=columns["critical_bps"][row],
                        )
                    )
            self._outcomes = outcomes
        return self._outcomes

    @property
    def admitted(self) -> List[SessionOutcome]:
        return [outcome for outcome in self.outcomes if outcome.admitted]

    @property
    def rejected(self) -> List[SessionOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.admitted]

    @property
    def sessions_per_second(self) -> float:
        return self.sessions / self.wall_seconds if self.wall_seconds else 0.0

    def describe(self) -> str:
        tiles = self.clf_percentiles()["stream_clf"]
        return (
            f"{self.plan.shards} shards / {self.plan.workers} workers x "
            f"{self.capacity_bps / 1e6:.2f} Mbps ({self.scheduler} split): "
            f"{self.admitted_count}/{self.sessions} admitted, "
            f"CLF p50/p95/p99 {tiles['p50']:.0f}/{tiles['p95']:.0f}/"
            f"{tiles['p99']:.0f}, shed rate {self.shed_rate:.4f}, "
            f"{self.sessions_per_second:,.0f} sessions/s"
        )

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready summary for run manifests.

        Deliberately excludes every wall-clock number (those live in
        :meth:`performance_dict`) so identical seeds reproduce identical
        summaries byte for byte.
        """
        return {
            "capacity_bps": self.capacity_bps,
            "scheduler": self.scheduler,
            "shedding": self.shedding,
            "admission": self.admission,
            "plan": self.plan.to_dict(),
            "sessions": self.sessions,
            "admitted": self.admitted_count,
            "rejected": self.rejected_count,
            "mean_clf": self.mean_clf,
            "worst_clf": self.worst_clf,
            "shed_frames": self.shed_total,
            "frames": self.frames_total,
            "shed_rate": self.shed_rate,
            "clf_percentiles": self.clf_percentiles(),
            "per_window": self.per_window_curve(),
        }

    def performance_dict(self) -> Dict[str, object]:
        """Wall-clock split (coordinator vs worker phases); not seeded."""
        plan_s = sum(self.shard_stats["plan_seconds"])
        serve_s = sum(self.shard_stats["serve_seconds"])
        reduce_s = sum(self.shard_stats["reduce_seconds"])
        return {
            "wall_seconds": self.wall_seconds,
            "sessions_per_second": self.sessions_per_second,
            "worker_plan_seconds": plan_s,
            "worker_serve_seconds": serve_s,
            "worker_reduce_seconds": reduce_s,
            "coordinator_seconds": max(
                0.0,
                self.wall_seconds
                - (plan_s + serve_s + reduce_s) / max(1, self.plan.workers),
            ),
        }


def run_hierarchy(
    spec,
    capacity_bps: Optional[float] = None,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    target_shard_cost: int = TARGET_SHARD_COST,
    scheduler: str = "fair",
    shedding: bool = True,
    admission: bool = True,
    jobs: Optional[int] = None,
) -> HierarchyResult:
    """Run one hierarchical fan-out; returns the reduced result.

    ``spec`` is a :class:`~repro.serve.loadgen.LoadSpec` (planned here
    via :func:`plan_hierarchy`) or an already-built
    :class:`HierarchyPlan`.  ``jobs`` caps the process pool (default:
    the plan's worker count); the outcome is independent of it.  A
    worker's exception propagates; a killed worker raises
    :class:`concurrent.futures.process.BrokenProcessPool`.
    """
    if isinstance(spec, HierarchyPlan):
        plan = spec
    else:
        if capacity_bps is None:
            raise ConfigurationError("capacity_bps is required with a LoadSpec")
        plan = plan_hierarchy(
            spec,
            capacity_bps,
            workers=workers,
            shards=shards,
            target_shard_cost=target_shard_cost,
            scheduler=scheduler,
            shedding=shedding,
            admission=admission,
        )
    result = _fan_out(plan, jobs)
    if obs.enabled():
        _observe_run(result)
    return result


def _concat(parts: Sequence[Dict[str, List[float]]]) -> Dict[str, List[float]]:
    """Join per-chunk columns end to end, in chunk order, into the first."""
    joined = parts[0]
    for part in parts[1:]:
        for name, column in part.items():
            joined[name].extend(column)
    return joined


def _fan_out(plan: HierarchyPlan, jobs: Optional[int]) -> HierarchyResult:
    """Serve ``plan`` through the worker pool; join the chunks' columns."""
    started = time.perf_counter()
    tasks = [
        (chunk, plan.windows_per_session, plan.capacity_bps, plan.scheduler,
         plan.shedding, plan.admission)
        for chunk in _assign(plan.shard_tasks, plan.workers)
    ]
    outputs = parallel_map(
        _run_worker, tasks, jobs if jobs is not None else plan.workers
    )
    parts = [out for out, _ in outputs]
    return HierarchyResult(
        plan=plan,
        columns=_concat([part.sessions for part in parts]),
        window_totals=_concat([part.windows for part in parts]),
        shard_stats=_concat([part.shards for part in parts]),
        rejected_reasons={
            row: reason for _, rejected in outputs for row, reason in rejected
        },
        wall_seconds=time.perf_counter() - started,
    )


def _observe_run(result: HierarchyResult) -> None:
    """Record one run's counters and stage clocks.

    The stage clocks sum the per-shard timing columns, so they cover
    every worker's share of the run whatever the worker count.
    """
    plan = result.plan
    shard_stats = result.shard_stats
    obs.counter("serve.hierarchy.runs").inc()
    obs.counter("serve.hierarchy.sessions").inc(plan.sessions)
    obs.counter("serve.hierarchy.shards").inc(plan.shards)
    obs.counter("serve.hierarchy.workers").inc(plan.workers)
    for stage, column in (
        ("plan", "plan_seconds"),
        ("execute", "serve_seconds"),
        ("reduce", "reduce_seconds"),
    ):
        obs.timer(f"serve.hierarchy.{stage}").observe_seconds(
            sum(shard_stats[column])
        )
    shard_seconds = obs.histogram("serve.hierarchy.shard_seconds")
    for index in range(plan.shards):
        shard_seconds.observe(
            shard_stats["plan_seconds"][index]
            + shard_stats["serve_seconds"][index]
            + shard_stats["reduce_seconds"][index]
        )
    obs.gauge("serve.hierarchy.fanout_seconds").set(result.wall_seconds)
