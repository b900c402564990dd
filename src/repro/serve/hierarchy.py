"""Hierarchical fan-out: a fleet of fleets behind one result arena.

``run_sharded`` (the flat fan-out of :mod:`repro.serve.fastpath`) spends
its wall clock on two things the serving arithmetic never needed: one
worker *process* per shard — spawn, import, page-in — and a pickled
per-session result object stream home.  Both costs scale with the shard
count and the fleet size respectively, which is exactly the wrong shape
for pushing ``K`` into the tens of thousands.

The hierarchy splits the two axes:

1. **Plan.**  :func:`plan_hierarchy` sizes the shard tree from a cost
   model — each shard (one modeled server, its own bottleneck, its own
   admission controller) is budgeted ``sessions x windows`` work units
   (:data:`TARGET_SHARD_COST`) and capped at
   :data:`MAX_SHARD_SESSIONS` viewers so the per-shard scheduling
   replay stays cheap — while the *worker* count comes from the usable
   cores (:func:`~repro.serve.fastpath.resolve_auto_shards`).  Shard
   seed lineage is untouched: shard ``i`` still serves the
   :func:`~repro.serve.fastpath.shard_specs` slice seeded
   ``spec.seed + i * SHARD_SEED_STRIDE``, so a hierarchy run at shard
   count ``S`` reproduces the traffic of every historical
   ``run_sharded(shards=S)`` manifest.
2. **Execute.**  A process pool of ``workers`` hosts the shards, many
   per worker.  Each worker replays every assigned shard's scheduling
   timeline (:class:`~repro.serve.fastpath._PlanningService`), then
   advances *all* of its admitted fleets per window epoch through one
   :func:`repro.core.kernel.step_fleet` slab call — cross-shard rows
   refill off one stacked Gilbert draw per channel family and batch
   into shared :func:`~repro.accel.batch_worst_clf` stacks, with no
   per-session Python object crossing a process boundary.  Per-row
   draws come off private streams, so interleaving shards changes no
   row's loss sequence (the parity battery in
   ``tests/serve/test_hierarchy.py`` pins this bit-for-bit against
   ``run_sharded`` / ``serve_sessions(fast=True)``).
3. **Reduce.**  Workers write numeric results straight into a
   preallocated shared-memory **result arena** — per-session outcome
   columns, per-(shard, window) CLF/ALF/shed aggregates, per-shard
   timings — via writable zero-copy views
   (:class:`repro.core.kernel.FleetView`).  The coordinator maps the
   same arena and reduces in place: no pickled results, no per-session
   strings (reasons are reconstructed from
   :data:`~repro.serve.admission.ADMITTED_REASON` plus the tiny
   rejected-reason list each worker returns).

The arena segment carries the coordinator's pid in its name
(``repro-arena-<pid>-<token>``), is unlinked in a ``finally`` whatever
the fan-out does, and — should the coordinator itself be SIGKILLed —
is recognizable garbage for :func:`repro.core.kernel.reap_segments`.
"""

from __future__ import annotations

import math
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
    _OUTCOME_COLUMNS,
    _FleetExecution,
    _LeanRequest,
    _LeanResult,
    _PlanningService,
    resolve_auto_shards,
    shard_specs,
)
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import SessionOutcome

__all__ = [
    "MAX_SHARD_SESSIONS",
    "SLAB_SESSION_BUDGET",
    "TARGET_SHARD_COST",
    "HierarchyPlan",
    "HierarchyResult",
    "ResultArena",
    "ShardTask",
    "plan_hierarchy",
    "run_hierarchy",
]

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
#: sessions concurrently, reducing each slab into the arena and freeing
#: it before planning the next — the worker's resident fleet state
#: stays bounded no matter how many shards it was handed.
SLAB_SESSION_BUDGET = 4096

#: Per-session outcome columns of the result arena (the flat fan-out's
#: shared-memory transport order — reused verbatim so both transports
#: stay pinned by the same column-order tests).
SESSION_COLUMNS = _OUTCOME_COLUMNS

#: Per-(shard, window-ordinal) aggregate columns: the QoE curve inputs.
WINDOW_COLUMNS = ("clf_sum", "alf_sum", "shed_frames", "frames", "rows")

#: Per-shard bookkeeping columns (timings feed the coordinator-vs-worker
#: wall split in ``tools/profile_hotpath.py --target hierarchy``).
SHARD_COLUMNS = (
    "plan_seconds", "serve_seconds", "reduce_seconds", "sessions", "admitted"
)


# ----------------------------------------------------------------------
# Planning: the shard tree from a cost model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of the fleet: spec + arena row placement."""

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

    ``shards`` overrides the cost model (for reproducing a historical
    flat run's partitioning exactly); ``workers`` overrides the
    one-per-usable-core default.  Either way shard seed lineage is the
    flat fan-out's, pinned by :func:`~repro.serve.fastpath.shard_specs`.
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
# The result arena
# ----------------------------------------------------------------------


class _ArenaView:
    """Writable zero-copy views over the arena's three regions."""

    __slots__ = ("sessions", "windows", "shards", "_mv", "_segment")

    def __init__(self, arena: "ResultArena") -> None:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=arena.shm_name)
        try:
            mv = memoryview(segment.buf)
            session_end = 8 * arena.session_doubles
            window_end = session_end + 8 * arena.window_doubles
            shard_end = window_end + 8 * arena.shard_doubles
            self.sessions = kernel.FleetView(
                mv[:session_end], SESSION_COLUMNS, arena.rows
            )
            self.windows = kernel.FleetView(
                mv[session_end:window_end],
                WINDOW_COLUMNS,
                arena.shards * arena.max_windows,
            )
            self.shards = kernel.FleetView(
                mv[window_end:shard_end], SHARD_COLUMNS, arena.shards
            )
            self._mv = mv
            self._segment = segment
        except Exception:
            segment.close()
            raise

    def close(self) -> None:
        self.shards.close()
        self.windows.close()
        self.sessions.close()
        self._mv.release()
        self._segment.close()

    def __enter__(self) -> "_ArenaView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ResultArena:
    """Name + layout of one run's shared-memory result arena.

    Three column-major float64 regions in one segment: per-session
    outcome columns (:data:`SESSION_COLUMNS` x ``rows``), per-(shard,
    window-ordinal) aggregates (:data:`WINDOW_COLUMNS` x
    ``shards * max_windows``, shard ``s``'s ordinal ``w`` at row
    ``s * max_windows + w``) and per-shard bookkeeping
    (:data:`SHARD_COLUMNS` x ``shards``).  The handle is tiny and
    picklable; workers :meth:`map` it and write in place.
    """

    shm_name: str
    rows: int
    shards: int
    max_windows: int

    @property
    def session_doubles(self) -> int:
        return len(SESSION_COLUMNS) * self.rows

    @property
    def window_doubles(self) -> int:
        return len(WINDOW_COLUMNS) * self.shards * self.max_windows

    @property
    def shard_doubles(self) -> int:
        return len(SHARD_COLUMNS) * self.shards

    @property
    def size_bytes(self) -> int:
        return 8 * (self.session_doubles + self.window_doubles + self.shard_doubles)

    @classmethod
    def create(cls, plan: HierarchyPlan) -> "ResultArena":
        """Allocate (zero-filled) and name the arena for one run.

        The segment stays registered with this process's resource
        tracker — unlike the worker-created fleet segments there is no
        cross-process ownership hand-off to confuse it, and a
        hard-killed coordinator then still gets its arena unlinked at
        tracker exit.
        """
        arena = cls(
            shm_name="",
            rows=plan.sessions,
            shards=plan.shards,
            max_windows=plan.windows_per_session,
        )
        segment = kernel.new_segment(max(arena.size_bytes, 8), kind="arena")
        try:
            return replace(arena, shm_name=segment.name)
        finally:
            segment.close()

    def map(self) -> _ArenaView:
        """Attach writable zero-copy views (close when done; no unlink)."""
        return _ArenaView(self)

    def unlink(self) -> None:
        """Release the segment (safe to call if it is already gone)."""
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=self.shm_name)
        except FileNotFoundError:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Workers: many fleets per epoch, results straight into the arena
# ----------------------------------------------------------------------


def _session_row(task: ShardTask, session_id: str) -> int:
    """Arena row of one shard-local session (load-generator ids)."""
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
    view: _ArenaView,
    capacity_bps: float,
    scheduler_name: str,
    shedding: bool,
    admission: bool,
    rejected: List[Tuple[int, str]],
    shape_caches: Dict[tuple, dict],
) -> Tuple[Optional[_FleetExecution], int]:
    """Replay one shard's scheduling; write the static outcome columns.

    Returns the shard's admitted fleet (``None`` when everything was
    rejected) and its admitted count.  Rejection reasons — the only
    non-numeric outcome data — are collected into ``rejected`` as
    ``(arena_row, reason)`` pairs; admitted reasons need no transport
    (they are all :data:`~repro.serve.admission.ADMITTED_REASON`).  The
    fleet builds its window shapes and layouts into the worker's
    ``shape_caches``.
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
    sessions = view.sessions
    plans = []
    admitted = 0
    for outcome in result.outcomes:
        row = _session_row(task, outcome.request.session_id)
        sessions.write_row(
            row,
            {
                "admitted": 1.0 if outcome.admitted else 0.0,
                "priority": float(outcome.request.priority),
                "share_bps": outcome.share_bps,
                "demand_bps": outcome.demand_bps,
                "critical_bps": outcome.critical_bps,
            },
        )
        if outcome.admitted:
            admitted += 1
            plans.append(planner.session_plans[outcome.request.session_id])
        elif outcome.reason:
            rejected.append((row, outcome.reason))
    execution = (
        _FleetExecution(plans, planner._shed_policy, shape_caches)
        if plans
        else None
    )
    return execution, admitted


def _reduce_shard(
    task: ShardTask, execution: _FleetExecution, view: _ArenaView, max_windows: int
) -> None:
    """Fold one finished fleet's results into the arena, then drop it.

    The lean twin of :meth:`_FleetExecution.finalize`: the same numbers
    land in the session columns, but nothing is written back onto
    outcome objects and no per-session observability fires — at
    K = 10^5 that would be the hot path.
    """
    sessions = view.sessions
    clf_sum = view.windows.column("clf_sum")
    alf_sum = view.windows.column("alf_sum")
    shed_col = view.windows.column("shed_frames")
    frames_col = view.windows.column("frames")
    rows_col = view.windows.column("rows")
    base = task.index * max_windows
    for fleet_row in execution.rows:
        outcome = fleet_row.plan.outcome
        result = fleet_row.result
        sessions.write_row(
            _session_row(task, outcome.request.session_id),
            {
                "has_result": 1.0,
                "mean_clf": result.mean_clf,
                "stream_clf": float(result.stream_clf),
                "shed_frames": float(fleet_row.shed_total),
                "share_bps": outcome.share_bps,
                "min_share_bps": fleet_row.min_share_bps,
            },
        )
        for ordinal, window in enumerate(result.windows):
            slot = base + ordinal
            clf_sum[slot] += window.clf
            alf_sum[slot] += window.alf
            shed_col[slot] += window.shed
            frames_col[slot] += window.frames
            rows_col[slot] += 1.0


def _run_slab(
    slab: List[ShardTask],
    view: _ArenaView,
    arena: ResultArena,
    capacity_bps: float,
    scheduler_name: str,
    shedding: bool,
    admission: bool,
    rejected: List[Tuple[int, str]],
    shape_caches: Dict[tuple, dict],
    tier: Optional[str] = None,
) -> None:
    """Plan, execute and reduce one slab of shards.

    All of the slab's admitted fleets advance per window epoch through
    **one** :func:`repro.core.kernel.step_fleet` call — cross-shard rows
    share stacked Gilbert refills and CLF batches.  Per-row draws come
    off private streams, so the interleaving is invisible to any single
    session's results.
    """
    meta = view.shards
    live: List[Tuple[ShardTask, _FleetExecution]] = []
    for task in slab:
        started = time.perf_counter()
        execution, admitted = _plan_shard(
            task,
            view,
            capacity_bps,
            scheduler_name,
            shedding,
            admission,
            rejected,
            shape_caches,
        )
        meta.write_row(
            task.index,
            {
                "plan_seconds": time.perf_counter() - started,
                "sessions": float(task.spec.sessions),
                "admitted": float(admitted),
            },
        )
        if execution is not None:
            live.append((task, execution))
    started = time.perf_counter()
    epochs = max((execution.total_windows for _, execution in live), default=0)
    for ordinal in range(epochs):
        batches: List[kernel.FleetBatch] = []
        for _, execution in live:
            if ordinal < execution.total_windows:
                batches.extend(execution.batches_for(ordinal))
        kernel.step_fleet(batches, tier=tier)
    serve_wall = time.perf_counter() - started
    # The epoch loop is shared across the slab; apportion its wall by
    # each shard's admitted-row share (slab granularity — documented in
    # DESIGN.md — so per-shard serve times sum to the true slab wall).
    total_rows = sum(len(execution.rows) for _, execution in live) or 1
    serve_col = meta.column("serve_seconds")
    reduce_col = meta.column("reduce_seconds")
    for task, execution in live:
        serve_col[task.index] = serve_wall * len(execution.rows) / total_rows
        started = time.perf_counter()
        _reduce_shard(task, execution, view, arena.max_windows)
        reduce_col[task.index] = time.perf_counter() - started


def _run_worker(task):
    """Worker: serve a chunk of shards into the arena (picklable).

    Exceptions travel home as ``("error", exc)`` markers so the pool
    survives and the coordinator can still unlink the arena; the only
    other payload is the tiny rejected-reason list — every number went
    through shared memory.

    Window shapes, layouts and permutation plans are cached per config
    family for this call only: every shard the worker serves shares
    them, and they are dropped when the call returns.
    """
    chunk, arena, capacity_bps, scheduler_name, shedding, admission, tier = task
    try:
        view = arena.map()
        try:
            rejected: List[Tuple[int, str]] = []
            shape_caches: Dict[tuple, dict] = {}
            for slab in _slabs(chunk):
                _run_slab(
                    slab,
                    view,
                    arena,
                    capacity_bps,
                    scheduler_name,
                    shedding,
                    admission,
                    rejected,
                    shape_caches,
                    tier,
                )
            return ("ok", rejected)
        finally:
            view.close()
    except Exception as exc:
        return ("error", exc)


def _assign(tasks: Sequence[ShardTask], workers: int) -> List[List[ShardTask]]:
    """Contiguous near-equal shard chunks, one per worker.

    Shard sizes differ by at most one session, so equal shard counts
    are equal work; contiguity keeps each worker's arena writes in a
    dense row range (friendly to the shared pages).
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


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class HierarchyResult:
    """Reduced outcome of one hierarchical run.

    Holds the arena's numeric columns (copied out once, before the
    segment was unlinked) plus the rejected-reason map; duck-types
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
    the plan's worker count); the outcome is independent of it.  The
    arena is unlinked on every exit path.
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
    result, arena = _fan_out(plan, jobs)
    if obs.enabled():
        _observe_run(result, arena)
    return result


def _fan_out(
    plan: HierarchyPlan, jobs: Optional[int]
) -> Tuple[HierarchyResult, ResultArena]:
    """Serve ``plan`` through the worker pool; reduce the arena.

    Returns the result and the (already unlinked) arena handle, whose
    layout the run's observability reports.
    """
    started = time.perf_counter()
    arena = ResultArena.create(plan)
    try:
        chunks = _assign(plan.shard_tasks, plan.workers)
        # The coordinator's resolved kernel tier rides along with each
        # worker chunk: a spawned worker re-imports the kernel and would
        # otherwise fall back to its own environment's tier, silently
        # ignoring a coordinator-side ``set_tier``.
        tasks = [
            (chunk, arena, plan.capacity_bps, plan.scheduler,
             plan.shedding, plan.admission, kernel.tier_name())
            for chunk in chunks
        ]
        outputs = parallel_map(
            _run_worker, tasks, jobs if jobs is not None else plan.workers
        )
        errors = [payload for marker, payload in outputs if marker == "error"]
        if errors:
            raise errors[0]
        rejected_reasons: Dict[int, str] = {}
        for _, payload in outputs:
            for row, reason in payload:
                rejected_reasons[row] = reason
        with arena.map() as view:
            columns = {
                name: list(view.sessions.column(name)) for name in SESSION_COLUMNS
            }
            window_totals = {
                name: list(view.windows.column(name)) for name in WINDOW_COLUMNS
            }
            shard_stats = {
                name: list(view.shards.column(name)) for name in SHARD_COLUMNS
            }
    finally:
        arena.unlink()
    result = HierarchyResult(
        plan=plan,
        columns=columns,
        window_totals=window_totals,
        shard_stats=shard_stats,
        rejected_reasons=rejected_reasons,
        wall_seconds=time.perf_counter() - started,
    )
    return result, arena


def _observe_run(result: HierarchyResult, arena: ResultArena) -> None:
    """Record one run's counters, stage clocks and arena gauges.

    The stage clocks sum the arena's per-shard timing columns, so they
    cover every worker's share of the run whatever the worker count.
    """
    plan = result.plan
    shard_stats = result.shard_stats
    window_totals = result.window_totals
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
    occupied = sum(1 for rows in window_totals["rows"] if rows > 0.0)
    slots = len(window_totals["rows"]) or 1
    obs.gauge("serve.hierarchy.arena_bytes").set(float(arena.size_bytes))
    obs.gauge("serve.hierarchy.arena_rows").set(float(plan.sessions))
    obs.gauge("serve.hierarchy.arena_occupancy").set(occupied / slots)
    obs.gauge("serve.hierarchy.fanout_seconds").set(result.wall_seconds)
