"""Window-batched fast path for the single-bottleneck service.

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
Fleets beyond one bottleneck run through
:func:`repro.serve.hierarchy.run_hierarchy`, which owns the shard
partition (:func:`~repro.serve.hierarchy.shard_specs`) and reuses this
module's plan/execute halves: each shard's scheduling timeline replays
through :class:`_PlanningService`, and a worker's shard fleets step
together as :class:`_FleetExecution` slabs sharing one
:class:`_FleetTables`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernel
from repro.core.kernel import (
    CONTROL_PACKET_BYTES as _CONTROL_PACKET_BYTES,
    SessionRow as _Row,
    WindowInfo as _WindowInfo,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.media.ldu import Ldu
from repro.serve.service import (
    _MIN_SHARE_BPS,
    ServiceResult,
    SessionOutcome,
    SessionRequest,
    StreamingService,
)

__all__ = [
    "FastStreamingService",
    "serve_sessions_fast",
]


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
            (row.config.family, row.fps), len(config_ids)
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
