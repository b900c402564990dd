"""Window-batched fast path and sharded fan-out for the service.

``StreamingService`` (the event-loop path) runs its ``K`` sessions one
:meth:`~repro.core.protocol.ProtocolSession.run_window` call at a time,
paying the sequential engine's full per-packet object churn per viewer.
But the scheduling decisions the event loop exists to order — arrivals,
admission tests, per-window share reallocation, departures — never read
a single simulation result: shares depend only on the active demand set,
and demands come from the streams themselves.  The media simulation of
each admitted session is therefore a pure function of its request and
of the share it is handed at each of its window boundaries.

The fast path exploits exactly that factorisation:

1. **Plan.**  A :class:`_PlanningService` replays the *identical* event
   timeline — same events, same heap order, same admission calls, same
   ``scheduler.allocate`` invocations — with the media engine replaced
   by a stub, recording every admitted session's per-window bottleneck
   share.  Because nothing the stub skips can influence scheduling,
   the recorded shares are bit-for-bit the ones the event-loop path
   would have applied.
2. **Execute.**  The admitted fleet then advances window-by-window in
   lockstep through the columnar window-step kernel
   (:func:`repro.core.kernel.step_window` — the same engine behind
   :mod:`repro.core.batch`): one
   :func:`repro.accel.gilbert_states_batch` prefetch across the fleet
   per window, stacked :func:`repro.accel.batch_worst_clf` calls for
   per-window and per-layer CLF, permutation plans shared per window
   shape, and — under the kernel's fused tier — whole rows collapsed
   onto shared first-attempt timelines when their losses allow.  Load
   shedding runs through the same
   :class:`~repro.serve.shedding.LayeredShedPolicy` via the
   kernel's ``shed_for`` hook, bound per row.  Rows batch on (config
   family, window) alone: each row's bottleneck share and shed set are
   per-row columns the kernel reads, so one window ordinal is one
   kernel step per distinct window (``serve.fastpath.windows_batched``
   counts rows stepped in a batch of two or more,
   ``serve.fastpath.windows_fallback`` singleton batches).  The execute
   half runs with the cyclic garbage collector paused.

Either way the produced :class:`~repro.serve.service.ServiceResult` is
pinned bit-for-bit against :class:`StreamingService` on every accel
backend (``tests/serve/test_fastpath.py``, ``tests/serve/test_parity.py``).

Sharding
--------
:class:`ShardedService` scales the fleet dimension across processes: a
:class:`~repro.serve.loadgen.LoadSpec` request stream is partitioned
into per-shard specs with a **pinned seed lineage** — shard ``i`` of
``S`` serves ``sessions // S`` (+1 for the first ``sessions % S``
shards) viewers generated from ``seed + i * SHARD_SEED_STRIDE`` — and
every shard's fleet runs through the fast path on its own bottleneck
(one shard models one server of a fleet).  Results merge into a
:class:`ShardedResult`; identical spec + shard count always reproduces
identical traffic, whatever the worker-process count.

``ShardedService(transport="shm")`` moves each shard's numeric outcome
columns back through one :mod:`multiprocessing.shared_memory` segment
(via :class:`repro.core.kernel.FleetState`) instead of pickling every
per-session result object — the summary surface
(``mean_clf``/``stream_clf``/shed/share columns) is bit-for-bit the
pickled transport's, because float64 survives the copy exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernel
from repro.core.kernel import (
    CONTROL_PACKET_BYTES as _CONTROL_PACKET_BYTES,
    FleetState,
    SessionRow as _Row,
    SharedFleet,
    WindowInfo as _WindowInfo,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments.parallel import parallel_map
from repro.media.ldu import Ldu
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import (
    _MIN_SHARE_BPS,
    ServiceResult,
    SessionOutcome,
    SessionRequest,
    StreamingService,
)

__all__ = [
    "SHARD_SEED_STRIDE",
    "FastStreamingService",
    "ShardedResult",
    "ShardedService",
    "resolve_auto_shards",
    "run_sharded",
    "serve_sessions_fast",
    "shard_specs",
]

#: Load-seed spacing between shards of one sharded run.  Far from both
#: the per-session stride of :mod:`repro.serve.loadgen` (7919) and the
#: feedback-channel offset (104729), so shard lineages never collide
#: with in-shard session seeds.  Pinned: changing it changes every
#: sharded run's traffic.
SHARD_SEED_STRIDE = 15_485_863


# ----------------------------------------------------------------------
# Phase 1 — planning: replay the exact scheduling timeline
# ----------------------------------------------------------------------


class _PlanStub:
    """Stands in for a :class:`ServedSession` during the planning pass."""

    __slots__ = ("stream", "shares")

    def __init__(self, stream) -> None:
        if len(stream) == 0:
            raise ProtocolError("cannot stream an empty stream")
        self.stream = stream
        self.shares: List[float] = []


@dataclass
class _SessionPlan:
    """One admitted session's complete schedule: windows and shares."""

    outcome: SessionOutcome
    windows: List[Tuple[Ldu, ...]]
    shares: List[float] = field(default_factory=list)


class _PlanningService(StreamingService):
    """The service with the media engine stubbed out.

    Scheduling in :class:`StreamingService` never reads a simulation
    result — shares and admission depend only on the demand set — so
    replaying the event loop with ``run_window`` skipped records the
    exact per-window share sequence of every admitted session.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.session_plans: Dict[str, _SessionPlan] = {}

    def _create_session(self, request: SessionRequest):
        return _PlanStub(request.stream)

    def _execute_window(
        self, active, index: int, window: Sequence[Ldu], share_bps: float
    ) -> None:
        active.session.shares.append(share_bps)

    def _finalize_session(self, active) -> None:
        self.session_plans[active.outcome.request.session_id] = _SessionPlan(
            outcome=active.outcome,
            windows=active.windows,
            shares=active.session.shares,
        )


# ----------------------------------------------------------------------
# Phase 2 — execution: the fleet in window lockstep
# ----------------------------------------------------------------------


class _FleetRow(_Row):
    """One served session as a batch-engine row with service state."""

    __slots__ = (
        "plan",
        "config",
        "fps",
        "native_bps",
        "bandwidth_bps",
        "min_share_bps",
        "shed_total",
        "shed_policy",
        "window",
        "group_id",
    )

    def __init__(self, plan: _SessionPlan, shed_policy) -> None:
        request = plan.outcome.request
        super().__init__(
            request.config, request.config.seed, horizon=len(plan.windows)
        )
        self.plan = plan
        self.config = request.config
        self.fps = request.stream.fps
        #: Mirrors ``ServedSession``: the provisioned rate is a hard
        #: cap (a bigger share is idle headroom, never a speed-up).
        self.native_bps = request.config.bandwidth_bps
        self.bandwidth_bps = request.config.bandwidth_bps
        self.min_share_bps = request.config.bandwidth_bps
        self.shed_total = 0
        #: The shard's shed policy (``None``: shedding disabled).
        self.shed_policy = shed_policy
        #: The window this row steps in the current epoch.
        self.window: Tuple[Ldu, ...] = ()
        self.group_id = 0

    def apply_share(self, share_bps: float) -> float:
        """Clamp and apply one window's share; twin of ``set_bandwidth``."""
        share_bps = min(max(share_bps, _MIN_SHARE_BPS), self.native_bps)
        self.min_share_bps = min(self.min_share_bps, share_bps)
        self.bandwidth_bps = share_bps
        return share_bps


_NO_SHED: frozenset = frozenset()


def _shed_for(row: _FleetRow, plan) -> frozenset:
    """The kernel's ``shed_for`` hook, bound per row.

    Mirrors :meth:`ServedSession._shed_frames`: the row's own shed
    policy sees its current window, bottleneck share, provisioned rate
    and feedback-fed channel estimator, so rows of different shards and
    shares can share one batch.
    """
    policy = row.shed_policy
    if policy is None:
        return _NO_SHED
    shed = policy.select(
        row.window,
        plan,
        row.bandwidth_bps,
        row.fps,
        native_bps=row.native_bps,
        estimator=row.estimator,
    )
    if shed:
        row.shed_total += len(shed)
        if obs.enabled():
            obs.counter("serve.shed_frames").inc(len(shed))
    return shed


def _ack_serialization(row: _FleetRow) -> float:
    """The ACK rides the feedback channel at the session's *current*
    share — the event-loop path resizes both channel directions."""
    return _CONTROL_PACKET_BYTES * 8.0 / row.bandwidth_bps


class _FleetTables:
    """Intern tables shared by every fleet that steps in one slab.

    Rows share a batch iff their config family (config sans seed, fps)
    and window agree; each row's share only picks its
    :class:`~repro.core.kernel.WindowInfo`.  Hashing whole configs and
    24-LDU window tuples on every row-step would dominate the
    bookkeeping, so both are interned to small ids once, and window
    infos are cached per (family id, share, window id).

    ``shape_caches`` maps a config family to its shape cache (window
    shapes, window layouts and their permutation plans; see
    :class:`repro.core.kernel.WindowLayout`); a caller advancing several
    slabs passes one map to all of them so each family builds its
    shapes once.  The tables themselves must live no longer than the
    windows of the slab's fleets: window ids are keyed by identity.
    """

    __slots__ = (
        "shape_caches",
        "config_ids",
        "window_ids",
        "window_ids_by_obj",
        "infos",
    )

    def __init__(self, shape_caches: Optional[Dict[tuple, dict]] = None) -> None:
        self.shape_caches = {} if shape_caches is None else shape_caches
        self.config_ids: Dict[tuple, int] = {}
        self.window_ids: Dict[Tuple[Ldu, ...], int] = {}
        # Identity memo over the content map: the service interns window
        # tuples per stream shape, so most rows carry the *same* tuple
        # objects and the 24-LDU content hash runs once per distinct
        # object (ids are stable here — the plans keep every window
        # alive).
        self.window_ids_by_obj: Dict[int, int] = {}
        self.infos: Dict[tuple, _WindowInfo] = {}

    def config_id(self, row: _FleetRow) -> int:
        config_ids = self.config_ids
        return config_ids.setdefault(
            (replace(row.config, seed=0), row.fps), len(config_ids)
        )

    def group(
        self,
        rows: Sequence[_FleetRow],
        ordinal: int,
        groups: Dict[Tuple[int, int], List[_FleetRow]],
    ) -> None:
        """Apply each live row's share for ``ordinal`` and file it in
        ``groups`` under (family id, window id)."""
        infos = self.infos
        window_ids = self.window_ids
        window_ids_by_obj = self.window_ids_by_obj
        for row in rows:
            if ordinal >= len(row.plan.windows):
                continue
            effective = row.apply_share(row.plan.shares[ordinal])
            row.plan.outcome.share_bps = effective
            window = row.plan.windows[ordinal]
            wid = window_ids_by_obj.get(id(window))
            if wid is None:
                wid = window_ids.setdefault(window, len(window_ids))
                window_ids_by_obj[id(window)] = wid
            info_key = (row.group_id, effective, wid)
            info = infos.get(info_key)
            if info is None:
                # The family carries the phase schedule too: scenarios
                # that differ only in channel dynamics get separate
                # shape/permutation-plan caches (their burst bounds
                # evolve differently, so sharing would couple them).
                config = row.config
                family = (
                    config.closed_gops,
                    config.effort,
                    config.layered,
                    config.channel_phases,
                )
                shapes = self.shape_caches.setdefault(family, {})
                info = _WindowInfo(
                    window, config, row.fps, shapes, bandwidth_bps=effective
                )
                infos[info_key] = info
            row.info = info
            row.window = window
            key = (row.group_id, wid)
            members = groups.get(key)
            if members is None:
                groups[key] = [row]
            else:
                members.append(row)


def _fleet_batches(
    fleets: Sequence["_FleetExecution"], ordinal: int
) -> List[kernel.FleetBatch]:
    """One epoch's uniform row groups across ``fleets``, ready to step.

    The fleets must share one :class:`_FleetTables`.  Rows group on
    (family id, window id) only; each row's share rides on its own
    window info, and shedding on its own policy (:func:`_shed_for`).
    """
    groups: Dict[Tuple[int, int], List[_FleetRow]] = {}
    for fleet in fleets:
        fleet.tables.group(fleet.rows, ordinal, groups)
    return [
        kernel.FleetBatch(
            rows=members,
            # Any member's info carries the window's share-free facts.
            info=members[0].info,
            config=members[0].config,  # uniform bar the seed
            fps=members[0].fps,
            window_index=ordinal,
            control_serialization=_ack_serialization,
            shed_for=_shed_for,
        )
        for members in groups.values()
    ]


class _FleetExecution:
    """One admitted fleet advancing in window-ordinal lockstep.

    The execute half of the plan-then-execute fast path, packaged so
    both drivers share it: :func:`_execute_fleet` steps one fleet per
    epoch, the hierarchical fan-out (:mod:`repro.serve.hierarchy`)
    merges *many* fleets per epoch into one
    :func:`repro.core.kernel.step_fleet` slab call.

    ``batches_for(ordinal)`` groups the fleet's live rows into uniform
    :class:`~repro.core.kernel.FleetBatch` groups (see
    :func:`_fleet_batches`).  ``finalize()`` writes each row's results
    back onto its session outcome.

    ``tables`` holds the intern tables and shape caches; fleets that
    step together pass one :class:`_FleetTables` so their rows can share
    batches.  By default the fleet keeps its own.
    """

    __slots__ = ("rows", "total_windows", "tables")

    def __init__(
        self,
        plans: List[_SessionPlan],
        shed_policy,
        tables: Optional[_FleetTables] = None,
    ) -> None:
        self.rows = [_FleetRow(plan, shed_policy) for plan in plans]
        self.tables = _FleetTables() if tables is None else tables
        for row in self.rows:
            row.group_id = self.tables.config_id(row)
        self.total_windows = max(len(row.plan.windows) for row in self.rows)

    def batches_for(self, ordinal: int) -> List[kernel.FleetBatch]:
        """The epoch's uniform row groups, shares applied, ready to step."""
        return _fleet_batches((self,), ordinal)

    def finalize(self) -> None:
        """Write each finished row's results back onto its outcome."""
        for row in self.rows:
            outcome = row.plan.outcome
            outcome.result = row.result
            outcome.shed_frames = row.shed_total
            outcome.min_share_bps = row.min_share_bps
            if obs.enabled():
                obs.counter("serve.sessions_completed").inc()
                obs.histogram("serve.session_stream_clf").observe(
                    outcome.result.stream_clf
                )


def _execute_fleet(plans: List[_SessionPlan], shed_policy) -> None:
    """Run every admitted session's schedule, window ordinals in lockstep.

    Each epoch's groups step through the kernel's fleet-slab entry
    point (:func:`repro.core.kernel.step_fleet`): rows that cannot
    cover their window's first-attempt packets (plus retransmission
    slack) refill together, one stacked Gilbert call per
    channel-parameter family, then every group advances.

    Runs with the cyclic collector paused
    (:func:`repro.core.kernel.gc_paused`): the fleet builds no reference
    cycles, so collector scans during execution would reclaim nothing.
    """
    with kernel.gc_paused():
        execution = _FleetExecution(plans, shed_policy)
        track = obs.enabled()
        for ordinal in range(execution.total_windows):
            batches = execution.batches_for(ordinal)
            refilled = kernel.step_fleet(batches)
            if track:
                obs.counter("serve.fastpath.steps").inc()
                if refilled:
                    obs.counter("serve.fastpath.refill_rows").inc(refilled)
                for batch in batches:
                    if len(batch.rows) > 1:
                        obs.counter("serve.fastpath.windows_batched").inc(
                            len(batch.rows)
                        )
                    else:
                        obs.counter("serve.fastpath.windows_fallback").inc()
        execution.finalize()


# ----------------------------------------------------------------------
# Public fast-path API
# ----------------------------------------------------------------------


def serve_sessions_fast(
    requests: Sequence[SessionRequest],
    capacity_bps: float,
    *,
    loop=None,
    **kwargs,
) -> ServiceResult:
    """Serve a fleet through the window-batched engine.

    Bit-for-bit identical to
    :func:`repro.serve.service.serve_sessions` on every accel backend.
    A caller-supplied event ``loop`` may carry foreign events the
    planning pass must not consume, so that case falls back to the
    event-loop service wholesale (``serve.fastpath.fallback_runs``).
    """
    if loop is not None:
        if obs.enabled():
            obs.counter("serve.fastpath.fallback_runs").inc()
        service = StreamingService(capacity_bps, loop=loop, **kwargs)
        service.submit_all(requests)
        return service.run()
    track = obs.enabled()
    if track:
        started = time.perf_counter()
    planner = _PlanningService(capacity_bps, **kwargs)
    planner.submit_all(requests)
    result = planner.run()
    plans = [
        planner.session_plans[outcome.request.session_id]
        for outcome in result.outcomes
        if outcome.admitted
    ]
    if track:
        planned = time.perf_counter()
        obs.timer("serve.fastpath.plan").observe_seconds(planned - started)
    if plans:
        _execute_fleet(plans, planner._shed_policy)
    if track:
        obs.timer("serve.fastpath.execute").observe_seconds(
            time.perf_counter() - planned
        )
        obs.counter("serve.fastpath.runs").inc()
        obs.counter("serve.fastpath.sessions").inc(len(plans))
    return result


class FastStreamingService:
    """Drop-in front end with the :class:`StreamingService` interface.

    Requests are collected on submit and the whole fleet runs through
    :func:`serve_sessions_fast` when :meth:`run` is called — submission
    order, arrival times and admission decisions behave exactly as on
    the event-loop service.
    """

    def __init__(self, capacity_bps: float, **kwargs) -> None:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity_bps = capacity_bps
        self._kwargs = kwargs
        self._requests: List[SessionRequest] = []
        self._ran = False

    def submit(self, request: SessionRequest) -> None:
        if self._ran:
            raise ConfigurationError("service already ran; build a new one")
        self._requests.append(request)

    def submit_all(self, requests: Sequence[SessionRequest]) -> None:
        for request in requests:
            self.submit(request)

    def run(self) -> ServiceResult:
        self._ran = True
        return serve_sessions_fast(
            self._requests, self.capacity_bps, **self._kwargs
        )


# ----------------------------------------------------------------------
# Sharded fan-out
# ----------------------------------------------------------------------


def resolve_auto_shards(sessions: int) -> int:
    """The ``--shards auto`` heuristic: one shard per usable core.

    Uses :func:`os.process_cpu_count` (the CPUs this process may
    actually run on — affinity masks and cgroup limits included) where
    the runtime has it, falling back to :func:`os.cpu_count`, and caps
    the result at the fleet size so no shard starts empty.
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
class _LeanRequest:
    """Request surface a summarised outcome still exposes."""

    session_id: str
    priority: int


@dataclass(frozen=True)
class _LeanResult:
    """Result surface a summarised outcome still exposes."""

    mean_clf: float
    stream_clf: int


#: Numeric per-outcome columns of one shard result, in transfer order.
_OUTCOME_COLUMNS = (
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


def _pack_shard_result(result: ServiceResult):
    """Split a shard result into numeric columns + a small meta record.

    The columns carry every number the merged
    :class:`ShardedResult`/:class:`ServiceResult` summary surface reads;
    the meta record keeps only strings and flags.  All columns are
    float64-exact (CLFs are small integers, rates are already doubles),
    so the transported summary is bit-for-bit the pickled one.
    """
    outcomes = result.outcomes
    columns = {name: [] for name in _OUTCOME_COLUMNS}
    for outcome in outcomes:
        res = outcome.result
        columns["admitted"].append(1.0 if outcome.admitted else 0.0)
        columns["has_result"].append(0.0 if res is None else 1.0)
        columns["priority"].append(float(outcome.request.priority))
        columns["mean_clf"].append(res.mean_clf if res is not None else 0.0)
        columns["stream_clf"].append(
            float(res.stream_clf) if res is not None else 0.0
        )
        columns["shed_frames"].append(float(outcome.shed_frames))
        columns["share_bps"].append(outcome.share_bps)
        columns["min_share_bps"].append(outcome.min_share_bps)
        columns["demand_bps"].append(outcome.demand_bps)
        columns["critical_bps"].append(outcome.critical_bps)
    meta = {
        "capacity_bps": result.capacity_bps,
        "scheduler": result.scheduler,
        "shedding": result.shedding,
        "admission": result.admission,
        "session_ids": [outcome.request.session_id for outcome in outcomes],
        "reasons": [outcome.reason for outcome in outcomes],
    }
    return FleetState(columns) if outcomes else None, meta


def _unpack_shard_result(
    state: Optional[FleetState], meta: Dict[str, object]
) -> ServiceResult:
    """Rebuild a summary-equivalent :class:`ServiceResult` from columns."""
    result = ServiceResult(
        capacity_bps=meta["capacity_bps"],
        scheduler=meta["scheduler"],
        shedding=meta["shedding"],
        admission=meta["admission"],
    )
    if state is None:
        return result
    columns = state.as_dict()
    for index, (session_id, reason) in enumerate(
        zip(meta["session_ids"], meta["reasons"])
    ):
        has_result = columns["has_result"][index] > 0.0
        result.outcomes.append(
            SessionOutcome(
                request=_LeanRequest(
                    session_id=session_id,
                    priority=int(columns["priority"][index]),
                ),
                admitted=columns["admitted"][index] > 0.0,
                reason=reason,
                result=(
                    _LeanResult(
                        mean_clf=columns["mean_clf"][index],
                        stream_clf=int(columns["stream_clf"][index]),
                    )
                    if has_result
                    else None
                ),
                shed_frames=int(columns["shed_frames"][index]),
                share_bps=columns["share_bps"][index],
                min_share_bps=columns["min_share_bps"][index],
                demand_bps=columns["demand_bps"][index],
                critical_bps=columns["critical_bps"][index],
            )
        )
    return result


def _run_shard(task):
    """Worker: serve one shard's fleet (module-level for pickling).

    Never lets an exception escape with a live shared-memory segment
    behind it: the segment is created last — after the serve completed
    and the columns are packed, so no failure can strand it — and its
    name carries the *coordinator's* pid, which makes a leak from an
    abnormal exit (worker SIGKILLed mid-transfer, coordinator gone)
    reapable via :func:`repro.core.kernel.reap_segments`.  Exceptions
    travel home as ``("error", exc, ...)`` markers rather than through
    the pool, so the coordinator can decode — and unlink — every
    sibling shard's segment before re-raising.
    """
    spec, capacity_bps, scheduler_name, shedding, admission, fast, transport, owner = (
        task
    )
    from repro.serve.bandwidth import make_scheduler
    from repro.serve.service import serve_sessions

    started = time.perf_counter()
    try:
        result = serve_sessions(
            generate_requests(spec),
            capacity_bps,
            fast=fast,
            scheduler=make_scheduler(scheduler_name),
            shedding=shedding,
            admission=admission,
        )
        wall = time.perf_counter() - started
        if transport != "shm":
            return ("pickle", result, None, wall)
        state, meta = _pack_shard_result(result)
        if state is not None:
            try:
                return ("shm", state.to_shared(owner_pid=owner), meta, wall)
            except (OSError, ValueError):
                # No usable shared-memory backing (e.g. /dev/shm
                # missing): fall back to shipping the raw columns
                # through the pickle channel — still no per-session
                # objects on the wire.
                return ("columns", state.as_dict(), meta, wall)
        return ("columns", None, meta, wall)
    except Exception as exc:
        return ("error", exc, None, time.perf_counter() - started)


def _decode_shard_output(output) -> Tuple[ServiceResult, float, str]:
    """Parent side of the shard transport; returns (result, wall, mode)."""
    mode, payload, meta, wall = output
    if mode == "pickle":
        return payload, wall, mode
    if mode == "shm":
        handle: SharedFleet = payload
        try:
            state = handle.open()
        finally:
            handle.unlink()
        return _unpack_shard_result(state, meta), wall, mode
    state = FleetState(payload) if payload is not None else None
    return _unpack_shard_result(state, meta), wall, mode


def _release_shard_outputs(outputs) -> None:
    """Unlink whatever segments a failed fan-out left undecoded."""
    for output in outputs:
        if output[0] == "shm":
            try:
                output[1].unlink()
            except Exception:
                pass


@dataclass
class ShardedResult:
    """Merged outcome of one sharded run (duck-types ``ServiceResult``
    far enough for :func:`repro.serve.service.build_service_manifest`)."""

    capacity_bps: float
    scheduler: str
    shedding: bool
    admission: bool
    shards: List[ServiceResult]
    shard_seeds: List[int]
    shard_seconds: List[float]

    @property
    def outcomes(self) -> List[SessionOutcome]:
        return [outcome for shard in self.shards for outcome in shard.outcomes]

    @property
    def admitted(self) -> List[SessionOutcome]:
        return [outcome for outcome in self.outcomes if outcome.admitted]

    @property
    def rejected(self) -> List[SessionOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.admitted]

    @property
    def mean_clf(self) -> float:
        results = [
            outcome.result for outcome in self.admitted if outcome.result is not None
        ]
        if not results:
            return 0.0
        return sum(result.mean_clf for result in results) / len(results)

    @property
    def worst_clf(self) -> int:
        return max((shard.worst_clf for shard in self.shards), default=0)

    @property
    def shed_total(self) -> int:
        return sum(shard.shed_total for shard in self.shards)

    def describe(self) -> str:
        return (
            f"{len(self.shards)} shards x {self.capacity_bps / 1e6:.2f} Mbps "
            f"({self.scheduler} split): "
            f"{len(self.admitted)}/{len(self.outcomes)} sessions admitted, "
            f"mean CLF {self.mean_clf:.2f}, worst CLF {self.worst_clf}, "
            f"{self.shed_total} frames shed"
        )

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready summary for run manifests."""
        return {
            "capacity_bps": self.capacity_bps,
            "scheduler": self.scheduler,
            "shedding": self.shedding,
            "admission": self.admission,
            "shards": len(self.shards),
            "shard_seeds": list(self.shard_seeds),
            "sessions": len(self.outcomes),
            "admitted": len(self.admitted),
            "rejected": len(self.rejected),
            "mean_clf": self.mean_clf,
            "worst_clf": self.worst_clf,
            "shed_frames": self.shed_total,
            "per_shard": [shard.summary_dict() for shard in self.shards],
        }


class ShardedService:
    """Fan a load spec out over independent bottleneck shards.

    Each shard models one server of a fleet: its own bottleneck of
    ``capacity_bps``, its own admission controller and shedding policy,
    serving the shard's slice of the request stream through the fast
    path (``fast=False`` switches the shards to the event-loop engine).
    Shards run in worker processes via
    :func:`repro.experiments.parallel.parallel_map` — results are merged
    in shard order, so the outcome is independent of ``jobs``.

    ``transport`` picks how shard results travel home: ``"pickle"``
    (default) ships the full per-session result objects;  ``"shm"``
    ships the numeric outcome columns through one shared-memory segment
    per shard (plus a tiny pickled meta record) and rebuilds
    summary-equivalent lean outcomes in the parent — same
    ``summary_dict()``, ``mean_clf``, ``worst_clf`` and shed totals,
    without re-pickling per-session objects.
    """

    def __init__(
        self,
        capacity_bps: float,
        *,
        shards: int = 2,
        scheduler: str = "fair",
        shedding: bool = True,
        admission: bool = True,
        fast: bool = True,
        jobs: Optional[int] = None,
        transport: str = "pickle",
    ) -> None:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        if shards <= 0:
            raise ConfigurationError("shard count must be positive")
        if transport not in ("pickle", "shm"):
            raise ConfigurationError(
                f"unknown shard transport {transport!r}; use 'pickle' or 'shm'"
            )
        from repro.serve.bandwidth import make_scheduler

        make_scheduler(scheduler)  # validate the name early
        self.capacity_bps = capacity_bps
        self.shards = shards
        self.scheduler = scheduler
        self.shedding = shedding
        self.admission = admission
        self.fast = fast
        self.jobs = jobs
        self.transport = transport

    def run(self, spec: LoadSpec) -> ShardedResult:
        specs = shard_specs(spec, self.shards)
        tasks = [
            (
                shard_spec,
                self.capacity_bps,
                self.scheduler,
                self.shedding,
                self.admission,
                self.fast,
                self.transport,
                os.getpid(),
            )
            for shard_spec in specs
        ]
        jobs = self.jobs if self.jobs is not None else len(tasks)
        started = time.perf_counter()
        try:
            outputs = parallel_map(_run_shard, tasks, jobs)
        except BaseException:
            # The pool died without returning (a worker was killed, a
            # result failed to unpickle): any segment a worker parked
            # for us is now orphaned — it carries our pid, so the next
            # run's reap would get it, but clean up promptly ourselves.
            for name in kernel.audit_segments():
                if f"-{os.getpid()}-" in name:
                    SharedFleet(shm_name=name, names=(), rows=0).unlink()
            raise
        errors = [output[1] for output in outputs if output[0] == "error"]
        if errors:
            # Unlink every sibling segment before surfacing the first
            # worker failure — a crashed shard must not leak /dev/shm.
            _release_shard_outputs(
                [output for output in outputs if output[0] != "error"]
            )
            raise errors[0]
        decoded = []
        for position, output in enumerate(outputs):
            try:
                decoded.append(_decode_shard_output(output))
            except BaseException:
                _release_shard_outputs(outputs[position + 1:])
                raise
        if obs.enabled():
            obs.counter("serve.fastpath.shard_runs").inc()
            obs.counter("serve.fastpath.shards").inc(len(tasks))
            seconds = obs.histogram("serve.fastpath.shard_seconds")
            for _, wall, mode in decoded:
                seconds.observe(wall)
                if mode == "shm":
                    obs.counter("serve.fastpath.shm_shards").inc()
                elif mode == "columns":
                    obs.counter("serve.fastpath.shm_fallbacks").inc()
            obs.gauge("serve.fastpath.fanout_seconds").set(
                time.perf_counter() - started
            )
        return ShardedResult(
            capacity_bps=self.capacity_bps,
            scheduler=self.scheduler,
            shedding=self.shedding,
            admission=self.admission,
            shards=[result for result, _, _ in decoded],
            shard_seeds=[shard_spec.seed for shard_spec in specs],
            shard_seconds=[wall for _, wall, _ in decoded],
        )


def run_sharded(
    spec: LoadSpec,
    capacity_bps: float,
    *,
    shards: int,
    scheduler: str = "fair",
    shedding: bool = True,
    admission: bool = True,
    fast: bool = True,
    jobs: Optional[int] = None,
    transport: str = "pickle",
) -> ShardedResult:
    """One-shot convenience around :class:`ShardedService`."""
    service = ShardedService(
        capacity_bps,
        shards=shards,
        scheduler=scheduler,
        shedding=shedding,
        admission=admission,
        fast=fast,
        jobs=jobs,
        transport=transport,
    )
    return service.run(spec)
