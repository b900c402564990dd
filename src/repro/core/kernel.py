"""Unified columnar window-step kernel shared by every engine.

The paper's protocol is one loop — drain feedback, fit the Equation-1
burst estimate, pick a k-CPO permutation, serialize a buffer window,
score CLF/ALF at the receiver, ACK — yet the repo grew three copies of
it: the object engine (:class:`repro.core.protocol.ProtocolSession`),
the Monte-Carlo row engine (:mod:`repro.core.batch`) and the serving
fast path (:mod:`repro.serve.fastpath`).  This module hoists the row
engine's struct-of-arrays state (:class:`SessionRow`: loss-flag
buffers, channel positions, estimator ``b̂``, per-layer CLF
accumulators) and the shared window precomputation
(:class:`WindowShape`, :class:`WindowInfo`) into one place, and exposes
one entry point — :func:`step_window` — that advances a uniform group
of rows through one buffer window.  ``run_session``, ``core.batch``
and ``serve.fastpath`` all route window advancement through it.

The step
--------
Loss flags are Gilbert-sampled in one stacked prefetch, the window's
first-attempt serialization timeline — which is loss-independent — is
computed once per (permutation plan, window, shed set) and shared by
every row timed by the same :class:`WindowInfo`, and rows are then
dispatched by what their own randomness requires:

* *full collapse* — rows whose span of loss flags is clean take the
  shared timeline **and** the shared receiver verdict (arrivals,
  decodability, CLF, per-layer bursts are all loss-free facts of the
  schedule);
* *timeline collapse* — rows with losses but no lost anchor (or
  retransmissions disabled) reuse the shared timeline and only score
  their own deliveries;
* *scalar tail* — rows that carry link backlog into the window or must
  retransmit a lost anchor run the per-row sender loop
  (:func:`run_row_sender`; retransmission timing is data-dependent).

Each step picks one of two implementations of that split from two
facts, with no warning: on the NumPy accel backend and for windows of
at most 63 frames (the received-bitmask word) it runs the array
program of :mod:`repro.core.native` — columnar Equation-1 folds, a
columnar replay of lost-anchor rows, and one matrix pass scoring the
step's rows — otherwise it runs the pure-Python cohort loop
(:func:`_step_cohorts`).  Both are bit-for-bit equal to the object
engine :class:`~repro.core.protocol.ProtocolSession`, which the
differential suites in ``tests/core`` and ``tests/serve`` pin on both
accel backends, with and without NumPy.  The ``kernel.collapse.*``
counters expose the split.

Fleet state
-----------
:class:`FleetState` snapshots the numeric per-row columns
(:data:`ROW_COLUMNS`) as an immutable struct-of-arrays block: the
column contract rows stepped by either implementation agree on.
:class:`FleetView` is its writable twin over a float64 buffer, the
zero-copy view the hierarchical fan-out's shared-memory result arena
(:class:`repro.serve.hierarchy.ResultArena`) is written through;
:func:`new_segment`, :func:`audit_segments` and :func:`reap_segments`
manage those segments' names and crash recovery.
"""

from __future__ import annotations

import gc
import os
import random
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import accel, obs
from repro.core.adaptation import AdaptiveController
from repro.core.layered import LayeredPlan, LayeredScheduler
from repro.core.protocol import ProtocolConfig, SessionResult, WindowResult
from repro.errors import ConfigurationError
from repro.media.ldu import Ldu
from repro.metrics.continuity import consecutive_loss
from repro.metrics.windows import WindowSeries
from repro.network.estimation import GilbertEstimator
from repro.network.feedback import Feedback, FeedbackCollector
from repro.network.markov import GilbertPhase, phase_params_at, phase_segments
from repro.network.packet import fragments_needed
from repro.poset.builders import independent_poset, ldu_poset

__all__ = [
    "CONTROL_PACKET_BYTES",
    "FEEDBACK_SEED_OFFSET",
    "PREFETCH_SLACK",
    "PREFETCH_WINDOWS",
    "FleetBatch",
    "FleetState",
    "FleetView",
    "RowWindow",
    "SessionRow",
    "WindowInfo",
    "WindowLayout",
    "WindowShape",
    "audit_segments",
    "drain_acks",
    "gc_paused",
    "loss_run_count",
    "new_segment",
    "plan_refills",
    "prefetch_flags",
    "prefetch_windows",
    "reap_segments",
    "row_bounds",
    "run_row_sender",
    "send_ack",
    "step_fleet",
    "step_window",
    "window_layout",
]

#: Seed offset of the feedback channel's Gilbert process
#: (must match :func:`repro.network.channel.make_duplex`).
FEEDBACK_SEED_OFFSET = 104729

#: Control (ACK) packet payload, bytes (Packetizer.control_packet default).
CONTROL_PACKET_BYTES = 64

#: Extra loss flags prefetched per window beyond the first-attempt packet
#: count, to cover retransmissions without a mid-window refill.
PREFETCH_SLACK = 32

#: Most windows' worth of loss flags drawn per batched refill.  Deeper
#: prefetch turns many small stacked kernel calls into few large ones,
#: which is where the NumPy backend pays off, but every flag drawn past
#: the row's last window is wasted time and memory.  So a row whose
#: engine set :attr:`SessionRow.horizon` draws
#: ``min(PREFETCH_WINDOWS, windows_left)`` windows' worth (see
#: :func:`prefetch_windows`).  Draws come off each row's private stream
#: in order either way, so depth never changes a used loss flag.
PREFETCH_WINDOWS = 8


def tier_name() -> str:
    """Always ``"fused"``: the kernel has one step and no tier option.

    Kept only because the repository benchmark records this value in
    every run's metadata (``bench/worker.py``) and refuses to compare
    runs whose values differ (``bench/compare.py``).  Drop it with the
    next change to ``bench/``.
    """
    return "fused"


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the enclosed block.

    The fleet loops (``core.batch``, the serving fast path, hierarchy
    slabs) allocate many short-lived containers per row-step but build
    no reference cycles, so generational scans triggered by those
    allocations reclaim nothing; reference counting frees every row
    object.  The collector is disabled only if it was enabled, and is
    re-enabled on every exit path, so a caller that disabled it finds it
    still disabled.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Shared (row-independent) precomputation
# ----------------------------------------------------------------------


class WindowShape:
    """Schedulers, dependency masks and plan cache for one window shape.

    A shape is a window length plus its frame-type tuple — the same key
    :class:`~repro.core.protocol.ProtocolSession` caches schedulers by.
    Plans additionally depend on the per-layer burst bounds, which vary
    per row, so they get their own cache keyed by bounds.
    """

    __slots__ = ("transmission", "media", "need_masks", "_plans", "native")

    def __init__(self, window: Sequence[Ldu], config: ProtocolConfig) -> None:
        media_poset = ldu_poset(window, closed_gops=config.closed_gops)
        self.media = LayeredScheduler(media_poset, effort=config.effort)
        if config.layered:
            self.transmission = self.media
        else:
            self.transmission = LayeredScheduler(
                independent_poset(len(window)), effort=config.effort
            )
        # need_masks[f]: bit f plus the bits of everything frame f
        # (transitively) depends on; f is decodable iff its mask is a
        # subset of the received-offsets mask.
        masks: List[int] = []
        for offset in range(len(window)):
            mask = 1 << offset
            for dep in media_poset.above(offset):
                mask |= 1 << dep
            masks.append(mask)
        self.need_masks = masks
        #: Array-program shape precompute (column map, mask vectors);
        #: built lazily by :mod:`repro.core.native`.
        self.native = None
        self._plans: Dict[
            Tuple[Tuple[Tuple[int, int], ...], bool],
            Tuple[LayeredPlan, Tuple[Tuple[int, ...], ...]],
        ] = {}

    def plan_for(
        self, bounds: Dict[int, int], scramble: bool
    ) -> Tuple[LayeredPlan, Tuple[Tuple[int, ...], ...]]:
        """(plan, per-layer transmission sequences) for one bounds map.

        ``calculate_permutation`` is deterministic per (size, bound,
        effort), so identical bounds always yield the identical plan the
        sequential engine would have built.
        """
        key = (tuple(sorted(bounds.items())), scramble)
        cached = self._plans.get(key)
        if cached is None:
            plan = self.transmission.plan(bounds, scramble=scramble)
            sequences = tuple(
                tuple(layer.members[frame] for frame in perm.order)
                for layer, perm in zip(plan.layers, plan.permutations)
            )
            cached = (plan, sequences)
            self._plans[key] = cached
            if obs.enabled():
                obs.counter("batch.plan_misses").inc()
        elif obs.enabled():
            obs.counter("batch.plan_hits").inc()
        return cached


class WindowLayout:
    """Bandwidth-free packetization of one window at one packet size.

    Everything :class:`WindowInfo` needs that no share changes: fragment
    counts, per-fragment payload bytes, frame bytes, anchors and the
    window's :class:`WindowShape`.  :func:`window_layout` builds it once
    per (window, packet size) into the shape cache, so a new share only
    pays its two serialization-time divisions, once per distinct frame
    kind (frames with equal payloads share their timing tuples).
    """

    __slots__ = (
        "window",
        "n",
        "anchors",
        "frag_counts",
        "payload_kinds",
        "kind_bytes",
        "frame_kinds",
        "first_attempt_packets",
        "shape",
    )

    def __init__(
        self,
        window: Sequence[Ldu],
        config: ProtocolConfig,
        shapes: Dict[tuple, object],
    ) -> None:
        n = len(window)
        #: Held so the window outlives its id-keyed cache entry.
        self.window = window
        self.n = n
        self.anchors = frozenset(
            offset for offset in range(n) if window[offset].frame_type.is_anchor
        )
        packet_size = config.packet_size_bytes
        frag_counts: List[int] = []
        # A frame's payload tuple sums to its size, so it fixes the kind.
        kinds: Dict[Tuple[int, ...], int] = {}
        kind_bytes: List[int] = []
        frame_kinds: List[int] = []
        for ldu in window:
            count = fragments_needed(ldu.size_bits, packet_size)
            remaining = ldu.size_bytes
            payloads: List[int] = []
            for _ in range(count):
                payload = min(packet_size, max(remaining, 0))
                payloads.append(payload)
                remaining -= payload
            frag_counts.append(count)
            kind = kinds.setdefault(tuple(payloads), len(kinds))
            if kind == len(kind_bytes):
                kind_bytes.append(ldu.size_bytes)
            frame_kinds.append(kind)
        self.frag_counts = tuple(frag_counts)
        #: Distinct per-fragment payload tuples, their frame bytes, and
        #: each frame's index into them.
        self.payload_kinds = tuple(kinds)
        self.kind_bytes = tuple(kind_bytes)
        self.frame_kinds = tuple(frame_kinds)
        self.first_attempt_packets = sum(frag_counts)
        key = (n, tuple(ldu.frame_type for ldu in window))
        shape = shapes.get(key)
        if shape is None:
            shape = WindowShape(window, config)
            shapes[key] = shape
        self.shape = shape


def window_layout(
    window: Sequence[Ldu], config: ProtocolConfig, shapes: Dict[tuple, object]
) -> WindowLayout:
    """The :class:`WindowLayout` of ``window`` at the config's packet size.

    Built on first use, then cached.  The entry lives in ``shapes`` (the caller's shape cache, scoped to
    one config family) under the window's identity; the layout keeps
    the window alive, so the id cannot be reused while the entry exists.
    """
    key = ("layout", id(window), config.packet_size_bytes)
    layout = shapes.get(key)
    if layout is None:
        layout = WindowLayout(window, config, shapes)
        shapes[key] = layout
    return layout


class WindowInfo:
    """Packetization and timing facts of one window at one bandwidth.

    The bandwidth-free part comes from the cached :class:`WindowLayout`;
    only the serialization times depend on ``bandwidth_bps`` (default:
    the config's own rate), so a new share costs the divisions of each
    distinct frame kind, not a repacketization.

    A step's batch info supplies the share-free fields (``n``,
    ``cycle``, ``anchors``, ``frag_counts``, ``first_attempt_packets``,
    ``shape``).  The timing fields (``frag_times``, ``frame_ser``) and
    the ``schedules`` cache built from them are read from each row's
    own info (:attr:`SessionRow.info`) when it carries one, so rows at
    different shares step together.
    """

    __slots__ = (
        "n",
        "cycle",
        "anchors",
        "frag_counts",
        "frag_times",
        "frame_ser",
        "first_attempt_packets",
        "shape",
        "schedules",
    )

    def __init__(
        self,
        window: Sequence[Ldu],
        config: ProtocolConfig,
        fps: float,
        shapes: Dict[tuple, object],
        *,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        layout = window_layout(window, config, shapes)
        bandwidth = config.bandwidth_bps if bandwidth_bps is None else bandwidth_bps
        self.n = layout.n
        self.cycle = layout.n / fps
        self.anchors = layout.anchors
        self.frag_counts = layout.frag_counts
        kind_times = [
            tuple([payload * 8.0 / bandwidth for payload in payloads])
            for payloads in layout.payload_kinds
        ]
        kind_ser = [size * 8.0 / bandwidth for size in layout.kind_bytes]
        kinds = layout.frame_kinds
        self.frag_times = tuple([kind_times[kind] for kind in kinds])
        self.frame_ser = tuple([kind_ser[kind] for kind in kinds])
        self.first_attempt_packets = layout.first_attempt_packets
        self.shape = layout.shape
        #: Cache of shared first-attempt timelines, keyed by (plan
        #: identity, window index, shed set).  Plans live in
        #: ``shape._plans`` for the life of this info, so their ids are
        #: stable.
        self.schedules: Dict[Tuple[int, int, frozenset], _Schedule] = {}


# ----------------------------------------------------------------------
# Per-row state
# ----------------------------------------------------------------------


class SessionRow:
    """One session's channel, feedback and adaptation state (SoA cell)."""

    __slots__ = (
        "result",
        "fwd_rng",
        "fwd_bad",
        "fwd_drawn",
        "flags",
        "pos",
        "fwd_busy",
        "fb_rng",
        "fb_bad",
        "fb_drawn",
        "fb_busy",
        "controller",
        "estimator",
        "collector",
        "ack_seq",
        "pending",
        "native_ctl",
        "horizon",
        "info",
        "__weakref__",
    )

    def __init__(
        self, config: ProtocolConfig, seed: int, horizon: Optional[int] = None
    ) -> None:
        self.result = SessionResult(
            config=config if config.seed == seed else config.reseeded(seed),
            windows=[],
            series=WindowSeries(
                label="scrambled" if config.scramble else "in-order"
            ),
        )
        self.fwd_rng = random.Random(seed)
        self.fwd_bad = False       # Gilbert state at the END of the buffer
        self.fwd_drawn = 0         # draws consumed = absolute packet index
        self.flags: List[bool] = []
        self.pos = 0
        self.fwd_busy = 0.0
        self.fb_rng = (
            random.Random(seed + FEEDBACK_SEED_OFFSET)
            if config.lossy_feedback
            else None
        )
        self.fb_bad = False
        self.fb_drawn = 0
        self.fb_busy = 0.0
        self.controller = AdaptiveController(alpha=config.alpha)
        self.estimator = GilbertEstimator()
        self.collector = FeedbackCollector()
        self.ack_seq = 0
        self.pending: List[Tuple[float, Feedback]] = []
        #: Columnar Equation-1 state owned by the array program while
        #: it steps this row (``None`` = the controller objects are
        #: truth); see :mod:`repro.core.native.step`.
        self.native_ctl = None
        #: Windows this row will step in all, when its engine knows:
        #: caps the loss-flag prefetch depth (:func:`prefetch_windows`).
        #: ``None`` = unknown, prefetch the full ``PREFETCH_WINDOWS``.
        self.horizon = horizon
        #: This row's :class:`WindowInfo` for the window being stepped,
        #: when its share differs from its batch's (the serving fast
        #: path sets it per window).  ``None`` = the batch's info applies.
        self.info: Optional[WindowInfo] = None

    def refill(self, count: int, config: ProtocolConfig) -> None:
        """Draw ``count`` more loss flags off the private forward stream.

        With a phase schedule the batch is split at phase boundaries
        (by absolute draw index, which equals the packet index) and each
        run replayed with the carried Gilbert state — exact, because the
        recurrence is per-draw Markov.
        """
        draws = [self.fwd_rng.random() for _ in range(count)]
        if config.channel_phases is None:
            states = accel.gilbert_states(
                draws, config.p_good, config.p_bad, start_bad=self.fwd_bad
            )
        else:
            states = []
            offset = 0
            bad = self.fwd_bad
            for take, p_good, p_bad in phase_segments(
                config.channel_phases, self.fwd_drawn, count
            ):
                segment = accel.gilbert_states(
                    draws[offset : offset + take], p_good, p_bad, start_bad=bad
                )
                states.extend(segment)
                bad = bool(segment[-1])
                offset += take
        self.fwd_drawn += count
        if states:
            self.fwd_bad = bool(states[-1])
        self.flags.extend(states)


@dataclass
class RowWindow:
    """What one row's sender phase hands to the batched receiver phase."""

    result: WindowResult
    sent: Dict[int, Tuple[float, bool]]   # offset -> (completed_at, delivered)
    first_attempt: List[int]
    layer_sequences: Tuple[Tuple[int, ...], ...]
    received: frozenset = frozenset()


# ----------------------------------------------------------------------
# Batched loss-flag prefetch
# ----------------------------------------------------------------------


def prefetch_windows(row: SessionRow) -> int:
    """Windows' worth of loss flags one refill of ``row`` draws.

    ``min(PREFETCH_WINDOWS, windows_left)``, where ``windows_left``
    counts the window being stepped and every one after it; rows
    without a :attr:`SessionRow.horizon` take the full depth.  Both
    implementations of the step prefetch by this rule, so draw counts
    (``fwd_drawn``) do not depend on which one ran.
    """
    horizon = row.horizon
    if horizon is None:
        return PREFETCH_WINDOWS
    return min(PREFETCH_WINDOWS, horizon - len(row.result.windows))


def plan_refills(
    rows: Sequence[SessionRow], needed: int
) -> List[Tuple[SessionRow, int, int]]:
    """Compact each row's flag buffer; list the rows that need a refill.

    Returns ``(row, missing, needed)`` triples for every row whose
    buffer cannot cover ``needed`` flags — the shape
    :func:`prefetch_flags` consumes.
    """
    entries: List[Tuple[SessionRow, int, int]] = []
    for row in rows:
        if row.pos:
            del row.flags[: row.pos]
            row.pos = 0
        missing = needed - len(row.flags)
        if missing > 0:
            entries.append((row, missing, needed))
    return entries


def prefetch_flags(
    entries: Sequence[Tuple[SessionRow, int, int]],
    p_good: float,
    p_bad: float,
    phases: Optional[Tuple[GilbertPhase, ...]] = None,
) -> None:
    """One stacked Gilbert draw covering every listed row's deficit.

    Every row draws the same-size chunk (the largest of
    ``max(missing, prefetch_windows(row) * needed)`` over the entries),
    so the stacked :func:`repro.accel.gilbert_states_batch` call stays
    rectangular.  Draws come off each row's private stream in order, so
    prefetch depth never changes any row's loss sequence.

    With ``phases`` the chunk is split at phase boundaries and replayed
    segment by segment (per-phase-segment prefetch): rows are grouped by
    their absolute draw position — rows at the same position share the
    same segmentation — and each segment is one rectangular stacked call
    with the per-row Gilbert states carried across the cut.  Splitting
    is exact (the recurrence is per-draw Markov), so a single-phase
    schedule reproduces the stationary prefetch bit for bit.
    """
    if not entries:
        return
    chunk = max(
        max(missing, prefetch_windows(row) * needed)
        for row, missing, needed in entries
    )
    if phases is None:
        # ``iter(rng.random, 2.0)`` never hits its sentinel, so islice
        # runs the exact same sequence of draws as a listcomp would — in C.
        draw_rows = [
            list(islice(iter(row.fwd_rng.random, 2.0), chunk))
            for row, _, _ in entries
        ]
        states_rows = accel.gilbert_states_batch(
            draw_rows, p_good, p_bad, [row.fwd_bad for row, _, _ in entries]
        )
        for (row, _, _), states in zip(entries, states_rows):
            if states:
                row.fwd_bad = bool(states[-1])
            row.flags.extend(states)
            row.fwd_drawn += chunk
        return
    cohorts: Dict[int, List[SessionRow]] = {}
    for row, _, _ in entries:
        cohorts.setdefault(row.fwd_drawn, []).append(row)
    for start, rows in cohorts.items():
        draw_rows = [
            list(islice(iter(row.fwd_rng.random, 2.0), chunk)) for row in rows
        ]
        bads = [row.fwd_bad for row in rows]
        offset = 0
        for take, seg_good, seg_bad in phase_segments(phases, start, chunk):
            segment_rows = [draws[offset : offset + take] for draws in draw_rows]
            states_rows = accel.gilbert_states_batch(
                segment_rows, seg_good, seg_bad, bads
            )
            for row, states in zip(rows, states_rows):
                row.flags.extend(states)
            bads = [bool(states[-1]) for states in states_rows]
            offset += take
        for row, bad in zip(rows, bads):
            row.fwd_bad = bad
            row.fwd_drawn += chunk


# ----------------------------------------------------------------------
# Sender phase (per row, scalar, object-churn-free)
# ----------------------------------------------------------------------


def row_bounds(
    row: SessionRow, config: ProtocolConfig, shape: WindowShape
) -> Dict[int, int]:
    """Per-layer burst bounds exactly as ``ProtocolSession._plan_window``."""
    bounds: Dict[int, int] = {}
    if not config.scramble:
        return bounds
    quantile_bound: Optional[int] = None
    if config.burst_policy == "quantile":
        quantile_bound = row.estimator.burst_quantile(config.quantile_epsilon)
    for layer in shape.transmission.layers:
        if layer.critical or layer.size <= 1:
            continue
        if quantile_bound is not None:
            bounds[layer.index] = min(quantile_bound, layer.size)
        else:
            bounds[layer.index] = row.controller.burst_bound(
                layer.index, layer.size
            )
    return bounds


def _apply_feedback(row: SessionRow, feedback: Feedback) -> None:
    """Fold one arrived ACK into the row's estimators (Eq. 1 / quantile)."""
    if not row.collector.offer(feedback):
        if obs.enabled():
            obs.counter("protocol.acks_stale").inc()
        return
    row.result.acks_used += 1
    if obs.enabled():
        obs.counter("protocol.acks_used").inc()
    window = row.result.windows[feedback.window_index]
    for layer_index, burst in feedback.burst_estimates.items():
        layer_size = window.layer_sizes.get(layer_index, window.frames)
        if layer_size > 1:
            row.controller.observe(layer_index, layer_size, burst)
    if feedback.loss_statistics is not None:
        lost, runs, total = feedback.loss_statistics
        if total > 0:
            row.estimator.observe_counts(lost=lost, total=total, runs=runs)


def drain_acks(row: SessionRow, now: float) -> None:
    """Apply every ACK arrived by ``now`` (Equation 1 / quantile fit)."""
    pending = row.pending
    if not pending:
        return
    if len(pending) == 1:
        # The steady-state shape: exactly one in-flight ACK per window.
        arrival, feedback = pending[0]
        if arrival > now:
            return
        pending.clear()
        _apply_feedback(row, feedback)
        return
    arrived = [item for item in pending if item[0] <= now]
    row.pending = [item for item in pending if item[0] > now]
    for _, feedback in sorted(arrived, key=lambda item: item[0]):
        _apply_feedback(row, feedback)


def run_row_sender(
    row: SessionRow,
    info: WindowInfo,
    config: ProtocolConfig,
    window_index: int,
    window_start: float,
    window_end: float,
    *,
    plan: LayeredPlan,
    layer_sequences: Tuple[Tuple[int, ...], ...],
    shed: frozenset,
) -> RowWindow:
    """One row's sender loop: the step's scalar tail.

    Mirrors the sender half of ``ProtocolSession.run_window`` for rows
    that carry link backlog into the window, run short of prefetched
    flags or must retransmit a lost anchor.  The caller has already
    drained the row's ACKs and chosen its ``plan`` (with the plan's
    per-layer ``layer_sequences``) and its ``shed`` set — the frame
    offsets dropped at the sender before they consume air time or
    channel state — so per-row side effects, the shed policy's
    bookkeeping in particular, happen exactly once.
    """
    result = WindowResult(
        index=window_index,
        frames=info.n,
        transmission_order=plan.order,
        layer_sizes={layer.index: layer.size for layer in plan.layers},
    )

    frag_counts = info.frag_counts
    frag_times = info.frag_times
    frame_ser = info.frame_ser
    anchors = info.anchors
    rtt = config.rtt
    retransmit = config.retransmit_anchors
    flags = row.flags
    pos = row.pos
    busy = row.fwd_busy
    packets_offered = 0
    packets_lost = 0
    sent: Dict[int, Tuple[float, bool]] = {}
    queue: List[Tuple[int, float]] = []   # (offset, completed_at)

    def offer(offset: int, start: float) -> Tuple[float, int]:
        """Serialize one frame from ``start``; (completed_at, packets lost)."""
        nonlocal pos, busy, packets_offered, packets_lost
        count = frag_counts[offset]
        if len(flags) - pos < count:
            deficit = count - (len(flags) - pos)
            row.pos = pos
            row.refill(max(deficit, 64), config)
            if obs.enabled():
                obs.counter("batch.refills").inc()
        completed = start
        for serialization in frag_times[offset]:
            completed = completed + serialization
        if count == 1:
            lost = 1 if flags[pos] else 0
        else:
            lost = sum(flags[pos:pos + count])
        pos += count
        busy = completed
        packets_offered += count
        packets_lost += lost
        return completed, lost

    def retransmit_one(offset: int, completed_at: float, now: float) -> bool:
        """Retry one lost frame; False when its budget ran out."""
        due_at = completed_at + rtt
        start = now if now > due_at else due_at
        link_free = window_start if window_start > busy else busy
        at = start if start > link_free else link_free
        if at + frame_ser[offset] > window_end:
            return False
        completed, lost = offer(offset, at)
        result.retransmissions += 1
        if lost == 0:
            result.recovered += 1
            sent[offset] = (completed, True)
        else:
            queue.append((offset, completed))
        return True

    def try_retransmissions(now: float) -> None:
        if not retransmit or not queue:
            return
        due = [record for record in queue if record[1] + rtt <= now]
        for record in due:
            queue.remove(record)
            retransmit_one(record[0], record[1], now)

    first_attempt: List[int] = []
    for offset in plan.order:
        if offset in shed:
            result.dropped_at_sender += 1
            result.shed += 1
            continue
        link_free = window_start if window_start > busy else busy
        try_retransmissions(link_free)
        link_free = window_start if window_start > busy else busy
        if link_free + frame_ser[offset] > window_end:
            result.dropped_at_sender += 1
            continue
        completed, lost = offer(offset, link_free)
        result.sent += 1
        delivered = lost == 0
        sent[offset] = (completed, delivered)
        first_attempt.append(0 if delivered else 1)
        if not delivered:
            result.lost_in_network += 1
            if retransmit and offset in anchors:
                queue.append((offset, completed))
    # The idle tail of the cycle is retransmission time: keep retrying
    # lost anchors, one NACK round trip apart, while the cycle allows.
    if retransmit:
        while queue:
            record = min(queue, key=lambda r: r[1])
            queue.remove(record)
            link_free = window_start if window_start > busy else busy
            if not retransmit_one(record[0], record[1], link_free):
                break

    row.pos = pos
    row.fwd_busy = busy
    row.result.packets_offered += packets_offered
    row.result.packets_lost += packets_lost
    if obs.enabled():
        obs.counter("channel.packets").inc(packets_offered)
        obs.counter("channel.losses").inc(packets_lost)
    return RowWindow(
        result=result,
        sent=sent,
        first_attempt=first_attempt,
        layer_sequences=layer_sequences,
    )


# ----------------------------------------------------------------------
# Receiver phase (batched across rows) and feedback path
# ----------------------------------------------------------------------


def loss_run_count(indicator: Sequence[int]) -> int:
    """Number of maximal loss runs in a 0/1 indicator (scalar, exact)."""
    runs = 0
    previous = 0
    for value in indicator:
        if value and not previous:
            runs += 1
        previous = value
    return runs


def send_ack(
    row: SessionRow,
    config: ProtocolConfig,
    window_index: int,
    window_end: float,
    result: WindowResult,
    control_serialization: float,
    *,
    loss_rates: Optional[Dict[int, float]] = None,
    loss_statistics: Optional[Tuple[int, int, int]] = None,
    burst_estimates: Optional[Dict[int, int]] = None,
    feedback: Optional[Feedback] = None,
) -> None:
    """Mirror of ``ProtocolSession._send_ack`` without packet objects.

    ``loss_rates``/``loss_statistics``/``burst_estimates`` let the
    step pass the values it already derived for a whole collapsed
    cohort (they are pure functions of ``result`` fields shared across
    the cohort, and :class:`Feedback` consumers never mutate them, so
    one dict may back many ACKs).  A fully pre-built ``feedback``
    (matching ``row.ack_seq``) skips message construction entirely.
    """
    if feedback is None or feedback.sequence != row.ack_seq:
        if loss_rates is None:
            loss_rates = {
                layer: min(1.0, burst / max(1, result.frames))
                for layer, burst in result.layer_bursts.items()
            }
        if loss_statistics is None:
            loss_statistics = (
                result.first_attempt_stats[0],
                result.first_attempt_stats[1],
                result.first_attempt_stats[2],
            )
        if burst_estimates is None:
            burst_estimates = dict(result.layer_bursts)
        feedback = Feedback(
            sequence=row.ack_seq,
            window_index=window_index,
            burst_estimates=burst_estimates,
            loss_rates=loss_rates,
            loss_statistics=loss_statistics,
        )
    row.ack_seq += 1
    row.result.acks_sent += 1
    if obs.enabled():
        obs.counter("protocol.acks_sent").inc()
    start = window_end if window_end > row.fb_busy else row.fb_busy
    completed = start + control_serialization
    row.fb_busy = completed
    lost = False
    if row.fb_rng is not None:
        draw = row.fb_rng.random()
        if config.channel_phases is None:
            p_good, p_bad = config.p_good, config.p_bad
        else:
            # The feedback channel walks the same phase schedule, one
            # draw per ACK — mirrors SwitchingGilbertModel.step.
            p_good, p_bad = phase_params_at(
                config.channel_phases, row.fb_drawn
            )
        row.fb_drawn += 1
        if row.fb_bad:
            if draw >= p_bad:
                row.fb_bad = False
        else:
            if draw >= p_good:
                row.fb_bad = True
        lost = row.fb_bad
    if lost:
        row.result.acks_lost += 1
        if obs.enabled():
            obs.counter("protocol.acks_lost").inc()
        result.ack_delivered = False
        return
    row.pending.append((completed + config.rtt / 2.0, feedback))


def _control_serialization_for(
    control_serialization: Union[float, Callable[[SessionRow], float]],
    row: SessionRow,
) -> float:
    if callable(control_serialization):
        return control_serialization(row)
    return control_serialization


def _receive_and_ack(
    pairs: Sequence[Tuple[SessionRow, RowWindow]],
    info: WindowInfo,
    config: ProtocolConfig,
    window_index: int,
    window_end: float,
    playback_start: float,
    slot_times: Sequence[float],
    control_serialization: Union[float, Callable[[SessionRow], float]],
) -> None:
    """Arrivals, decodability, CLF and ACKs for rows with per-row deliveries."""
    n = info.n
    rtt_half = config.rtt / 2.0
    need_masks = info.shape.need_masks
    indicator_rows: List[List[int]] = []
    for _, data in pairs:
        result = data.result
        received = set()
        for offset, (completed, delivered) in data.sent.items():
            if not delivered:
                continue
            arrival = completed + rtt_half
            if arrival <= slot_times[offset]:
                received.add(offset)
                result.arrival_times[offset] = arrival
            else:
                result.late += 1
        result.received = received
        result.playback_start = playback_start
        mask = 0
        for offset in received:
            mask |= 1 << offset
        decodable = {
            offset for offset in range(n) if need_masks[offset] & ~mask == 0
        }
        result.decodable = decodable
        data.received = frozenset(received)
        indicator = [0 if offset in decodable else 1 for offset in range(n)]
        result.unit_losses = sum(indicator)
        indicator_rows.append(indicator)

    for clf, (_, data) in zip(accel.batch_worst_clf(indicator_rows), pairs):
        data.result.clf = clf

    # Per-layer observed bursts: the layer structure is shared, the
    # permutation (hence the transmission sequence) is per-row.
    layers = info.shape.transmission.layers
    for layer_position, layer in enumerate(layers):
        matrix = [
            [
                1 if offset not in data.received else 0
                for offset in data.layer_sequences[layer_position]
            ]
            for _, data in pairs
        ]
        for burst, (_, data) in zip(accel.batch_worst_clf(matrix), pairs):
            data.result.layer_bursts[layer.index] = burst

    for row, data in pairs:
        result = data.result
        first_attempt = data.first_attempt
        result.first_attempt_stats = (
            sum(first_attempt),
            loss_run_count(first_attempt),
            len(first_attempt),
        )
        send_ack(
            row,
            config,
            window_index,
            window_end,
            result,
            _control_serialization_for(control_serialization, row),
        )
        row.result.windows.append(result)
        row.result.series.add_clf(result.clf, result.alf)


def _observe_window(results: Sequence[WindowResult], rows: int) -> None:
    """The shared ``protocol.*`` obs block of one window step."""
    obs.counter("protocol.windows").inc(rows)
    clf_hist = obs.histogram("protocol.window_clf")
    alf_hist = obs.histogram("protocol.window_alf")
    sent = lost = retransmissions = recovered = late = dropped = 0
    for result in results:
        sent += result.sent
        lost += result.lost_in_network
        retransmissions += result.retransmissions
        recovered += result.recovered
        late += result.late
        dropped += result.dropped_at_sender
        clf_hist.observe(result.clf)
        alf_hist.observe(result.alf)
    obs.counter("protocol.frames_sent").inc(sent)
    obs.counter("protocol.frames_lost").inc(lost)
    obs.counter("protocol.retransmissions").inc(retransmissions)
    obs.counter("protocol.recovered").inc(recovered)
    obs.counter("protocol.late").inc(late)
    obs.counter("protocol.dropped_at_sender").inc(dropped)


# ----------------------------------------------------------------------
# Shared first-attempt timelines and cohort collapse
# ----------------------------------------------------------------------


class _Schedule:
    """The loss-independent first-attempt timeline of one (plan, window).

    With an empty retransmission queue and no link backlog, the sender
    loop's timing never reads a loss flag: every attempted frame starts
    back-to-back from the window start and the budget check is pure
    arithmetic.  The timeline is therefore shared by every row whose
    window stays in that regime, float-for-float.

    ``shed`` is the row's shed set.  Each shed offset counts once as
    dropped at the sender and once as shed, and takes no air time —
    exactly :func:`run_row_sender`'s shed branch — so shedding rows
    share timelines keyed by their shed set.
    """

    __slots__ = (
        "attempts",
        "dropped",
        "shed",
        "span",
        "final_busy",
        "sent_count",
        "layer_sizes",
        "clean",
        "anchor_spans",
        "native",
    )

    def __init__(
        self,
        info: WindowInfo,
        plan: LayeredPlan,
        window_start: float,
        window_end: float,
        shed: frozenset,
    ) -> None:
        frame_ser = info.frame_ser
        frag_times = info.frag_times
        frag_counts = info.frag_counts
        busy = window_start
        attempts: List[Tuple[int, float, int, int]] = []
        dropped = 0
        shed_count = 0
        pack = 0
        for offset in plan.order:
            if offset in shed:
                dropped += 1
                shed_count += 1
                continue
            if busy + frame_ser[offset] > window_end:
                dropped += 1
                continue
            completed = busy
            for serialization in frag_times[offset]:
                completed = completed + serialization
            count = frag_counts[offset]
            attempts.append((offset, completed, pack, count))
            pack += count
            busy = completed
        self.attempts = tuple(attempts)
        self.dropped = dropped
        self.shed = shed_count
        self.span = pack
        self.final_busy = busy
        self.sent_count = len(attempts)
        self.layer_sizes = {layer.index: layer.size for layer in plan.layers}
        self.clean: Optional[_CleanVerdict] = None
        #: ``(start, stop)`` packet spans of the anchor attempts and the
        #: array program's receiver vectors; both built lazily by
        #: ``core.native``.
        self.anchor_spans: Optional[Tuple[Tuple[int, int], ...]] = None
        self.native = None


class _CleanVerdict:
    """Shared receiver outcome of a loss-free window on one timeline."""

    __slots__ = (
        "received",
        "arrival_times",
        "late",
        "decodable",
        "unit_losses",
        "clf",
        "layer_bursts",
        "ack_loss_rates",
        "ack_stats",
        "ack_feedback",
        "result_dict",
    )

    def __init__(
        self,
        sched: _Schedule,
        info: WindowInfo,
        sequences: Tuple[Tuple[int, ...], ...],
        rtt_half: float,
        slot_times: Sequence[float],
    ) -> None:
        n = info.n
        received = set()
        arrival_times: Dict[int, float] = {}
        late = 0
        for offset, completed, _, _ in sched.attempts:
            arrival = completed + rtt_half
            if arrival <= slot_times[offset]:
                received.add(offset)
                arrival_times[offset] = arrival
            else:
                late += 1
        mask = 0
        for offset in received:
            mask |= 1 << offset
        need_masks = info.shape.need_masks
        decodable = {
            offset for offset in range(n) if need_masks[offset] & ~mask == 0
        }
        indicator = [0 if offset in decodable else 1 for offset in range(n)]
        self.received = received
        self.arrival_times = arrival_times
        self.late = late
        self.decodable = decodable
        self.unit_losses = sum(indicator)
        self.clf = consecutive_loss(indicator)
        layers = info.shape.transmission.layers
        bursts: Dict[int, int] = {}
        for layer, sequence in zip(layers, sequences):
            losses = [
                1 if offset not in received else 0 for offset in sequence
            ]
            bursts[layer.index] = consecutive_loss(losses)
        self.layer_bursts = bursts
        # ACK fields shared by every row on this verdict (read-only).
        self.ack_loss_rates = {
            layer: min(1.0, burst / max(1, n)) for layer, burst in bursts.items()
        }
        self.ack_stats = (0, 0, sched.sent_count)
        #: Memo for the cohort's ACK message: rows stepping in lockstep
        #: share the same sequence number, so one immutable Feedback
        #: serves the whole cohort (rebuilt only on a sequence mismatch).
        self.ack_feedback: Optional[Feedback] = None
        #: ``__dict__`` template of the cohort's WindowResult: every
        #: field is cohort-identical (scalars, or the shared read-only
        #: containers above), so per-row results are one dict copy.
        self.result_dict: Optional[Dict[str, object]] = None


def _schedule_for(
    info: WindowInfo,
    plan: LayeredPlan,
    window_index: int,
    window_start: float,
    window_end: float,
    shed: frozenset = frozenset(),
) -> _Schedule:
    key = (id(plan), window_index, shed)
    sched = info.schedules.get(key)
    if sched is None:
        sched = _Schedule(info, plan, window_start, window_end, shed)
        info.schedules[key] = sched
    return sched


#: Widest window the array program steps: its received-frame sets are
#: one int64 bitmask per row.
_ARRAY_MAX_FRAMES = 63


def _collapse_clean(
    row: SessionRow,
    sched: _Schedule,
    plan: LayeredPlan,
    sequences: Tuple[Tuple[int, ...], ...],
    info: WindowInfo,
    config: ProtocolConfig,
    window_index: int,
    window_end: float,
    slot_times: Sequence[float],
    control_serialization: float,
) -> WindowResult:
    """Step one row whose flag span is clean: the full collapse.

    The shared timeline *and* the shared receiver verdict apply — only
    per-row containers and the feedback channel are touched.  Returns
    the row's recorded :class:`WindowResult`.
    """
    span = sched.span
    row.pos += span
    if sched.attempts:
        row.fwd_busy = sched.final_busy
    row.result.packets_offered += span
    verdict = sched.clean
    if verdict is None:
        verdict = _CleanVerdict(
            sched, info, sequences, config.rtt / 2.0, slot_times
        )
        sched.clean = verdict
    # Every container below is shared verdict state: clean rows never
    # reach a receive phase, so nothing mutates them.
    template = verdict.result_dict
    if template is None:
        result = WindowResult(
            index=window_index,
            frames=info.n,
            transmission_order=plan.order,
            layer_sizes=sched.layer_sizes,
        )
        result.sent = sched.sent_count
        result.dropped_at_sender = sched.dropped
        result.shed = sched.shed
        result.received = verdict.received
        result.playback_start = window_end + config.rtt / 2.0
        result.arrival_times = verdict.arrival_times
        result.late = verdict.late
        result.decodable = verdict.decodable
        result.unit_losses = verdict.unit_losses
        result.clf = verdict.clf
        result.layer_bursts = verdict.layer_bursts
        result.first_attempt_stats = verdict.ack_stats
        verdict.result_dict = dict(result.__dict__)
    else:
        result = WindowResult.__new__(WindowResult)
        result.__dict__.update(template)
    fb = verdict.ack_feedback
    if fb is None or fb.sequence != row.ack_seq:
        fb = Feedback(
            sequence=row.ack_seq,
            window_index=window_index,
            burst_estimates=verdict.layer_bursts,
            loss_rates=verdict.ack_loss_rates,
            loss_statistics=verdict.ack_stats,
        )
        verdict.ack_feedback = fb
    send_ack(
        row,
        config,
        window_index,
        window_end,
        result,
        control_serialization,
        feedback=fb,
    )
    row.result.windows.append(result)
    row.result.series.add_clf(result.clf, result.alf)
    return result


def _step_cohorts(
    rows: Sequence[SessionRow],
    info: WindowInfo,
    config: ProtocolConfig,
    fps: float,
    window_index: int,
    control_serialization: Union[float, Callable[[SessionRow], float]],
    shed_for,
) -> None:
    """The pure-Python cohort loop: the step on any backend, any width."""
    n = info.n
    cycle = info.cycle
    window_start = window_index * cycle
    window_end = window_start + cycle
    playback_start = window_end + config.rtt / 2.0
    slot_times = [playback_start + offset / fps for offset in range(n)]
    retransmit = config.retransmit_anchors
    anchors = info.anchors
    scramble = config.scramble
    shape = info.shape
    track = obs.enabled()

    prefetch_flags(
        plan_refills(rows, info.first_attempt_packets + PREFETCH_SLACK),
        config.p_good,
        config.p_bad,
        phases=config.channel_phases,
    )

    all_results: List[WindowResult] = []
    pending: List[Tuple[SessionRow, RowWindow]] = []
    full_collapse = timeline_collapse = scalar_rows = 0
    packets_total = 0
    losses_total = 0
    cs_fixed = (
        None if callable(control_serialization) else control_serialization
    )
    plan_for = shape.plan_for
    no_shed = frozenset()
    # Most rows carry the same burst bounds (clean feedback histories
    # agree), share and shed set, so memoize the last schedule locally.
    last_plan = None
    last_info: Optional[WindowInfo] = None
    last_shed: Optional[frozenset] = None
    last_sched: Optional[_Schedule] = None

    for row in rows:
        drain_acks(row, window_start)
        bounds = row_bounds(row, config, shape)
        plan, sequences = plan_for(bounds, scramble)
        shed = shed_for(row, plan) if shed_for is not None else no_shed
        row_info = row.info or info
        if plan is last_plan and row_info is last_info and shed == last_shed:
            sched = last_sched
        else:
            sched = _schedule_for(
                row_info, plan, window_index, window_start, window_end, shed
            )
            last_plan, last_info, last_shed, last_sched = (
                plan, row_info, shed, sched
            )

        cohort = "scalar"
        lost_counts: Optional[List[int]] = None
        if row.fwd_busy <= window_start:
            pos = row.pos
            flags = row.flags
            span = sched.span
            if len(flags) - pos >= span:
                try:
                    first_rel = flags.index(True, pos, pos + span) - pos
                except ValueError:
                    cohort = "clean"
                else:
                    counts = [0] * sched.sent_count
                    eligible = True
                    for k, (offset, _, pack, count) in enumerate(sched.attempts):
                        if pack + count <= first_rel:
                            continue
                        base = pos + pack
                        if count == 1:
                            lost = 1 if flags[base] else 0
                        else:
                            lost = sum(flags[base:base + count])
                        if lost:
                            counts[k] = lost
                            if retransmit and offset in anchors:
                                eligible = False
                                break
                    if eligible:
                        cohort = "timeline"
                        lost_counts = counts

        if cohort == "clean":
            full_collapse += 1
            packets_total += sched.span
            all_results.append(
                _collapse_clean(
                    row,
                    sched,
                    plan,
                    sequences,
                    info,
                    config,
                    window_index,
                    window_end,
                    slot_times,
                    control_serialization(row) if cs_fixed is None else cs_fixed,
                )
            )
        elif cohort == "timeline":
            # Timeline collapse: shared serialization times, per-row
            # deliveries; no retransmission tail can fire.
            timeline_collapse += 1
            assert lost_counts is not None
            result = WindowResult(
                index=window_index,
                frames=n,
                transmission_order=plan.order,
                layer_sizes=sched.layer_sizes,
            )
            sent: Dict[int, Tuple[float, bool]] = {}
            first_attempt: List[int] = []
            lost_total = 0
            lost_frames = 0
            for k, (offset, completed, _, _) in enumerate(sched.attempts):
                lost = lost_counts[k]
                if lost:
                    sent[offset] = (completed, False)
                    first_attempt.append(1)
                    lost_frames += 1
                    lost_total += lost
                else:
                    sent[offset] = (completed, True)
                    first_attempt.append(0)
            span = sched.span
            row.pos += span
            if sched.attempts:
                row.fwd_busy = sched.final_busy
            result.sent = sched.sent_count
            result.dropped_at_sender = sched.dropped
            result.shed = sched.shed
            result.lost_in_network = lost_frames
            row.result.packets_offered += span
            row.result.packets_lost += lost_total
            packets_total += span
            losses_total += lost_total
            pending.append(
                (
                    row,
                    RowWindow(
                        result=result,
                        sent=sent,
                        first_attempt=first_attempt,
                        layer_sequences=sequences,
                    ),
                )
            )
        else:
            # Scalar tail: link backlog, short flag buffers or a lost
            # anchor (retransmission timing is data-dependent) — run
            # the per-row sender loop.
            scalar_rows += 1
            pending.append(
                (
                    row,
                    run_row_sender(
                        row,
                        row_info,
                        config,
                        window_index,
                        window_start,
                        window_end,
                        plan=plan,
                        layer_sequences=sequences,
                        shed=shed,
                    ),
                )
            )

    if track and (packets_total or losses_total):
        obs.counter("channel.packets").inc(packets_total)
        obs.counter("channel.losses").inc(losses_total)

    if pending:
        _receive_and_ack(
            pending,
            info,
            config,
            window_index,
            window_end,
            playback_start,
            slot_times,
            control_serialization,
        )
        all_results.extend(data.result for _, data in pending)

    if track:
        obs.counter("kernel.collapse.full").inc(full_collapse)
        obs.counter("kernel.collapse.timeline").inc(timeline_collapse)
        obs.counter("kernel.collapse.scalar").inc(scalar_rows)
        _observe_window(all_results, len(rows))


def step_window(
    rows: Sequence[SessionRow],
    info: WindowInfo,
    config: ProtocolConfig,
    fps: float,
    window_index: int,
    *,
    control_serialization: Union[float, Callable[[SessionRow], float]],
    shed_for=None,
) -> None:
    """Advance a uniform group of rows through one buffer window.

    Every engine's window advancement funnels through here.  ``rows``
    must agree on everything but their seeds and shares: one
    ``config`` (its ``seed`` field is ignored — each row carries its
    own channel state), one window and one playback rate.  ``info``
    supplies the window's share-free facts and, for rows whose
    :attr:`SessionRow.info` is unset, the timing too; a row that
    carries its own info (same window, its own bandwidth) is timed by
    it.  ``control_serialization`` is the ACK's serialization time — a
    float for fixed-rate fleets, or a ``row -> float`` callable when
    shares differ per row (the serving fast path).  ``shed_for`` is
    the row-engine twin of :meth:`ProtocolSession._shed_frames`: an
    optional ``(row, plan) -> frozenset`` callback naming frame offsets
    to drop at the sender (the serve fast path binds it to the
    service's shedding policy).

    The step runs the array program (:mod:`repro.core.native`) when the
    accel backend is NumPy and the window has at most
    :data:`_ARRAY_MAX_FRAMES` frames, else the cohort loop
    (:func:`_step_cohorts`).  Both are bit-for-bit equal, so a fleet may
    take either from one window to the next, and results accumulate on
    each row's :class:`SessionResult` exactly as the sequential engine
    would have produced them.
    """
    if not rows:
        return
    if obs.enabled():
        obs.counter("kernel.steps").inc()
        obs.counter("kernel.rows").inc(len(rows))
        obs.histogram("kernel.rows_per_window").observe(len(rows))
    if info.n <= _ARRAY_MAX_FRAMES and accel.backend_name() == "numpy":
        # Imported lazily: the array program imports this module.
        from repro.core.native import step_native

        step_native(
            rows, info, config, fps, window_index, control_serialization, shed_for
        )
    else:
        _step_cohorts(
            rows, info, config, fps, window_index, control_serialization, shed_for
        )


# ----------------------------------------------------------------------
# Fleet-slab stepping: many uniform groups, one window epoch
# ----------------------------------------------------------------------


@dataclass
class FleetBatch:
    """One uniform row group ready to advance through one window.

    The slab counterpart of a single :func:`step_window` call: ``rows``
    must satisfy the same uniformity contract (one config family, one
    window, one playback rate; per-row shares ride on
    :attr:`SessionRow.info`).  A slab is a list of batches —
    typically every group of every fleet a worker advances in one
    window epoch — handed to :func:`step_fleet` together so the
    loss-flag prefetch can stack across all of them.
    """

    rows: Sequence[SessionRow]
    info: WindowInfo
    config: ProtocolConfig
    fps: float
    window_index: int
    control_serialization: Union[float, Callable[[SessionRow], float]]
    shed_for: Optional[Callable[[SessionRow, LayeredPlan], frozenset]] = None


def step_fleet(batches: Sequence[FleetBatch]) -> int:
    """Advance a slab of uniform row groups through one window epoch.

    The fleet-slab entry point behind the serving fast path and the
    hierarchical fan-out (:mod:`repro.serve.hierarchy`): refills are
    planned per batch but *drawn* once per Gilbert parameter family
    across the whole slab — one stacked
    :func:`repro.accel.gilbert_states_batch` call covers every fleet
    advancing in the epoch — then each batch steps through
    :func:`step_window`.  Results are bit-for-bit what stepping each
    batch alone would produce: draws come off each row's private
    stream in order, so prefetch batching never changes a loss
    sequence.

    Returns the number of rows refilled (callers feed their own
    telemetry from it).
    """
    # The slab-wide refill groups rows by their full channel dynamics:
    # stationary parameters AND phase schedule.  Two batches differing
    # only in ``channel_phases`` must never share a stacked prefetch.
    refills: Dict[
        Tuple[float, float, Optional[Tuple[GilbertPhase, ...]]],
        List[Tuple[SessionRow, int, int]],
    ] = {}
    for batch in batches:
        entries = plan_refills(
            batch.rows, batch.info.first_attempt_packets + PREFETCH_SLACK
        )
        if entries:
            refills.setdefault(
                (
                    batch.config.p_good,
                    batch.config.p_bad,
                    batch.config.channel_phases,
                ),
                [],
            ).extend(entries)
    refill_rows = 0
    for (p_good, p_bad, phases), entries in refills.items():
        prefetch_flags(entries, p_good, p_bad, phases=phases)
        refill_rows += len(entries)
    if obs.enabled():
        obs.counter("kernel.slab.steps").inc()
        obs.counter("kernel.slab.batches").inc(len(batches))
        if refill_rows:
            obs.counter("kernel.slab.refill_rows").inc(refill_rows)
    for batch in batches:
        step_window(
            batch.rows,
            batch.info,
            batch.config,
            batch.fps,
            batch.window_index,
            control_serialization=batch.control_serialization,
            shed_for=batch.shed_for,
        )
    return refill_rows


# ----------------------------------------------------------------------
# Columnar fleet state and shared-memory segments
# ----------------------------------------------------------------------

#: The numeric per-row engine columns :meth:`FleetState.from_rows`
#: snapshots (booleans and counters are carried as float64).
ROW_COLUMNS = (
    "fwd_busy",
    "fb_busy",
    "pos",
    "fwd_bad",
    "fb_bad",
    "fwd_drawn",
    "fb_drawn",
    "ack_seq",
)

#: Name prefixes of every shared-memory segment this package creates
#: (``repro-fleet`` is no longer created, but segments an older build
#: leaked under it stay recognizable).  The owner pid is baked into the
#: name (``repro-arena-<pid>-<token>``) so :func:`reap_segments` can
#: tell a crashed run's leak from a live run's in-flight segment.
SEGMENT_PREFIXES = ("repro-fleet", "repro-arena")

_SHM_DIR = "/dev/shm"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # Permission (or platform) errors mean the pid slot is taken.
        return True
    return True


def _segment_owner(name: str) -> Optional[int]:
    parts = name.split("-")
    if len(parts) < 4:
        return None
    try:
        return int(parts[2])
    except ValueError:
        return None


def new_segment(size: int, *, kind: str = "arena"):
    """Create a shared-memory segment with a recognizable, owned name.

    The caller's pid is baked into the name, and the caller is the one
    responsible for unlinking: the segment only ever counts as leaked
    once that process is gone.
    """
    from multiprocessing import shared_memory

    owner = os.getpid()
    for _ in range(32):
        name = f"repro-{kind}-{owner}-{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(create=True, size=size, name=name)
        except FileExistsError:
            continue
    # 32 token collisions in a row cannot happen; keep a safe fallback.
    return shared_memory.SharedMemory(create=True, size=size)


def audit_segments() -> List[str]:
    """Names of this package's shared-memory segments present on the host.

    Empty on platforms without a ``/dev/shm`` view of the namespace.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(
        name
        for name in entries
        if any(name.startswith(prefix + "-") for prefix in SEGMENT_PREFIXES)
    )


def reap_segments() -> List[str]:
    """Unlink segments whose owning process is dead; returns their names.

    The crash-recovery half of the segment lifecycle: normal runs unlink
    their own segments, but a worker killed mid-run (or a coordinator
    dying before it unlinks) leaves the file behind in ``/dev/shm``.
    Any later run may call this — segments whose baked-in owner pid is
    still alive are never touched.
    """
    from multiprocessing import shared_memory

    reaped: List[str] = []
    for name in audit_segments():
        owner = _segment_owner(name)
        if owner is None or _pid_alive(owner):
            continue
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            continue
        segment.close()
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            continue
        reaped.append(name)
    if reaped and obs.enabled():
        obs.counter("kernel.segments_reaped").inc(len(reaped))
    return reaped


class FleetView:
    """Writable zero-copy columnar view over a float64 buffer.

    The mutable twin of :class:`FleetState`: columns are ``'d'``-typed
    memoryview slices of one contiguous buffer (typically a region of
    a shared-memory segment, as in
    :class:`repro.serve.hierarchy.ResultArena`), laid out column-major
    at a stride of ``rows`` doubles.  Writes land directly in the
    backing segment; no copies, no pickling.  Call :meth:`close` when
    done (views must be released before a segment can close).
    """

    __slots__ = ("names", "rows", "_mv", "_columns")

    def __init__(self, buffer, names: Sequence[str], rows: int) -> None:
        mv = memoryview(buffer).cast("d")
        if len(mv) < len(names) * rows:
            mv.release()
            raise ConfigurationError(
                f"buffer holds {len(mv)} doubles; "
                f"{len(names)} columns x {rows} rows need {len(names) * rows}"
            )
        self.names = tuple(names)
        self.rows = rows
        self._mv = mv
        self._columns = {
            name: mv[position * rows:(position + 1) * rows]
            for position, name in enumerate(self.names)
        }

    def column(self, name: str):
        """The live ``'d'`` memoryview of one column (writable)."""
        return self._columns[name]

    def write_row(self, index: int, values: Mapping[str, float]) -> None:
        """Write one row's cells across the named columns."""
        for name, value in values.items():
            self._columns[name][index] = value

    def close(self) -> None:
        """Release the views (the backing buffer stays open)."""
        for view in self._columns.values():
            view.release()
        self._columns = {}
        self._mv.release()

    def __enter__(self) -> "FleetView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FleetState:
    """Struct-of-arrays numeric state for a fleet of rows.

    Columns are named float64 vectors of equal length.
    :meth:`from_rows` snapshots a fleet's engine columns
    (:data:`ROW_COLUMNS`); the parity tests compare these snapshots
    across the step's two implementations.
    """

    __slots__ = ("_names", "_columns", "rows")

    def __init__(self, columns: Mapping[str, Sequence[float]]) -> None:
        names = tuple(columns)
        if not names:
            raise ConfigurationError("fleet state needs at least one column")
        lengths = {len(columns[name]) for name in names}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"fleet columns must share one length, got {sorted(lengths)}"
            )
        self._names = names
        self._columns = {name: [float(v) for v in columns[name]] for name in names}
        self.rows = lengths.pop()

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def column(self, name: str) -> List[float]:
        """One column's values (a copy — the state stays immutable)."""
        return list(self._columns[name])

    def as_dict(self) -> Dict[str, List[float]]:
        return {name: list(self._columns[name]) for name in self._names}

    @classmethod
    def from_rows(cls, rows: Sequence[SessionRow]) -> "FleetState":
        """Snapshot the engine columns of a fleet (see :data:`ROW_COLUMNS`)."""
        return cls(
            {
                "fwd_busy": [row.fwd_busy for row in rows],
                "fb_busy": [row.fb_busy for row in rows],
                "pos": [float(row.pos) for row in rows],
                "fwd_bad": [1.0 if row.fwd_bad else 0.0 for row in rows],
                "fb_bad": [1.0 if row.fb_bad else 0.0 for row in rows],
                "fwd_drawn": [float(row.fwd_drawn) for row in rows],
                "fb_drawn": [float(row.fb_drawn) for row in rows],
                "ack_seq": [float(row.ack_seq) for row in rows],
            }
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FleetState):
            return NotImplemented
        return self._names == other._names and self._columns == other._columns
