"""The fused tier's array program: the cohort loop as whole-step matrix ops.

:func:`step_native` advances a uniform row group through one buffer
window with the same observable effects as ``kernel._step_cohorts`` —
bit-for-bit identical :class:`~repro.core.protocol.WindowResult`
streams, channel draws, ACK timings and estimator trajectories — but
with the per-row Python work hoisted into whole-step NumPy kernels
(:mod:`repro.core.native.kernels`).  ``kernel._step_fused`` runs it on
the NumPy accel backend for windows of at most 63 frames.

Stages
------
1. *Prefetch.*  ``kernel.prefetch_flags`` over ``kernel.plan_refills``,
   exactly as the cohort loop.
2. *Feedback fold* (:func:`_fold_feedback`).  Arrived ACKs are grouped
   by feedback identity (clean cohorts share one immutable
   :class:`~repro.network.feedback.Feedback` per window, so a K-row
   fleet typically carries a handful of distinct messages) and each
   group's Equation-1 update is applied as one fold over the columnar
   controller state instead of K object-graph walks.
3. *Plan* (:func:`_plan_assets`).  Per-layer burst bounds come off the
   controller matrix via :func:`kernels.burst_bounds`; rows are grouped
   by their packed bound vector so ``plan_for`` / ``_schedule_for`` run
   once per distinct plan, not once per row.
4. *Classify.*  The cohort loop's split, with the same tests: clean
   rows take the shared timeline and shared verdict; rows with link
   backlog, a short flag buffer or (with ``retransmit_anchors``) a lost
   packet of an anchor attempt go to the scalar tail; the rest are
   timeline rows.  Timelines come from each row's own info and shed set.
5. *Receive* (:func:`_receive_timeline`).  Every timeline row of the
   step is scored in one matrix pass: each row's schedule vectors (pack
   boundaries, frame offsets, arrivals, on-time mask, received bits,
   layer sequences) are gathered by a per-row schedule index, padded to
   the step's longest span and attempt count.  Only the per-row
   ``WindowResult`` materialization is Python, shared per (schedule,
   loss pattern).
6. *Scalar tail.*  The identical ``run_row_sender`` /
   ``_receive_and_ack`` path the cohort loop uses.  Rows are
   independent, so running them after the timeline rows changes no
   result.

Columnar controller state
-------------------------
While the array program steps a row, its Equation-1 estimators live in
``row.native_ctl = (cols, vals)``: ``cols`` is the shape's layer-index
tuple (identity-compared), ``vals`` a flat float64 list of
``(present, window, estimate, observations)`` per layer.  The
controller objects remain reachable — ``AdaptiveController._sync`` is
pointed at a write-back callback (holding the row weakly, so no
reference cycle forms), so any external read (the scenario
harness's b-hat series, the serve shed policy, a step taken by the
cohort loop or the reference tier) dissolves the columns back into
objects first.  The Gilbert-fit estimator and the feedback collector
stay object-resident: both are read directly by serve-side policies
mid-window.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core import kernel as K
from repro.core.adaptation import LossEstimator
from repro.core.native import kernels
from repro.core.protocol import WindowResult
from repro.network.feedback import Feedback

#: Feedback groups at least this large fold through the matrix kernel;
#: smaller groups fold in plain Python (same float ops, less gather).
_FOLD_MATRIX_MIN = 48


# ----------------------------------------------------------------------
# Columnar controller state (gather / dissolve / sync)
# ----------------------------------------------------------------------


def _dissolve_row(row) -> None:
    """Write ``row.native_ctl`` back into the controller objects."""
    ctl = row.native_ctl
    if ctl is None:
        return
    cols, vals = ctl
    row.native_ctl = None
    controller = row.controller
    controller._sync = None
    est_map = controller._estimators
    alpha = controller.alpha
    for j, layer_index in enumerate(cols):
        base = 4 * j
        if vals[base] != 1.0:
            continue
        window = int(vals[base + 1])
        est = est_map.get(layer_index)
        if est is None or est.window != window:
            est = LossEstimator(window=window, alpha=alpha)
            est_map[layer_index] = est
        est._estimate = vals[base + 2]
        est.observations = int(vals[base + 3])


class _RowSync:
    """``AdaptiveController._sync`` callback of one array-owned row.

    The row owns its controller, so the callback holds the row weakly:
    a strong back-reference would make one reference cycle per row,
    which only the cyclic collector could free.
    """

    __slots__ = ("row",)

    def __init__(self, row) -> None:
        self.row = weakref.ref(row)

    def __call__(self) -> None:
        row = self.row()
        if row is not None and row.controller._sync is self:
            _dissolve_row(row)


def _ctl_of(row, cols, alpha) -> Optional[List[float]]:
    """The row's columnar controller state, gathered on first use.

    Returns ``None`` when the controller cannot be represented (foreign
    alpha) — the row then stays on the object path.
    """
    ctl = row.native_ctl
    if ctl is not None:
        if ctl[0] is cols:
            return ctl[1]
        _dissolve_row(row)  # different shape: write back, regather below
    controller = row.controller
    if controller.alpha != alpha:
        return None
    est_map = controller._estimators
    vals: List[float] = []
    for layer_index in cols:
        est = est_map.get(layer_index)
        if est is None:
            vals.extend((0.0, 0.0, 0.0, 0.0))
        elif est.alpha != alpha:
            return None
        else:
            vals.extend(
                (
                    1.0,
                    float(est.window),
                    est._estimate,
                    float(est.observations),
                )
            )
    row.native_ctl = (cols, vals)
    controller._sync = _RowSync(row)
    return vals


# ----------------------------------------------------------------------
# Per-shape / per-schedule precompute (the plan-array ABI)
# ----------------------------------------------------------------------


class _ShapeNative:
    """Shape-level arrays: controller column map and need-mask vector."""

    __slots__ = ("cols", "colpos", "bounds_layers", "need_masks")

    def __init__(self, shape) -> None:
        layers = shape.transmission.layers
        self.cols = tuple(layer.index for layer in layers)
        colpos = {layer_index: j for j, layer_index in enumerate(self.cols)}
        self.colpos = colpos
        # (column, layer index, window size, fresh-estimator bound) per
        # scrambled layer, in ``row_bounds`` iteration order.
        self.bounds_layers = tuple(
            (
                colpos[layer.index],
                layer.index,
                layer.size,
                max(1, min(layer.size, -(-layer.size // 2))),
            )
            for layer in layers
            if not layer.critical and layer.size > 1
        )
        self.need_masks = np.array(shape.need_masks, dtype=np.uint64)


class _SchedNative:
    """Receiver vectors of one ``_Schedule`` (plan x window x shed).

    The per-attempt facts the cohort loop keeps as tuples — pack
    boundaries, frame offsets, arrival times, on-time verdicts, received
    bits — as plain lists, stacked per step by :func:`_receive_timeline`,
    plus the plan's per-layer transmission sequences.
    """

    __slots__ = (
        "bounds",
        "offsets",
        "arrivals",
        "ontime",
        "late",
        "bits",
        "sequences",
    )

    def __init__(self, sched, sequences, rtt_half, slot_times) -> None:
        attempts = sched.attempts
        offsets = [attempt[0] for attempt in attempts]
        #: Pack start of every attempt, then the span: attempt ``k``'s
        #: packets are ``bounds[k]:bounds[k + 1]``.
        self.bounds = [attempt[2] for attempt in attempts] + [sched.span]
        self.offsets = offsets
        self.arrivals = [completed + rtt_half for _, completed, _, _ in attempts]
        self.ontime = [
            arrival <= slot_times[offset]
            for offset, arrival in zip(offsets, self.arrivals)
        ]
        self.late = [not ontime for ontime in self.ontime]
        self.bits = [1 << offset for offset in offsets]
        self.sequences = sequences


def _sched_native(sched, sequences, rtt_half, slot_times) -> _SchedNative:
    native = sched.native
    if native is None:
        native = _SchedNative(sched, sequences, rtt_half, slot_times)
        sched.native = native
    return native


def _anchor_spans(sched, anchors) -> Tuple[Tuple[int, int], ...]:
    """``(start, stop)`` packet spans of the schedule's anchor attempts."""
    spans = sched.anchor_spans
    if spans is None:
        spans = sched.anchor_spans = tuple(
            (pack, pack + count)
            for offset, _, pack, count in sched.attempts
            if offset in anchors
        )
    return spans


# ----------------------------------------------------------------------
# Stage 2: feedback fold
# ----------------------------------------------------------------------


def _fold_feedback(rows, shn, window_start: float, alpha: float, track: bool) -> None:
    """Drain every ACK arrived by ``window_start``, folding per message.

    The steady state carries one or two in-flight ACKs per row, and
    clean cohorts share the immutable messages — so rows group by
    their arrived-feedback identity tuple (in arrival order, exactly
    the order ``drain_acks`` would apply) and each distinct message
    folds once per group instead of once per row.

    Messages group by VALUE identity: the sequence/window pair plus
    the identities of the shared burst-estimate dict and statistics
    tuple (the receiver interns both per distinct (schedule, loss
    pattern), and the scalar paths build fresh objects, so equal keys
    imply equal messages).  Value-equal ACKs from different rows then
    fold as one group exactly like a clean cohort's shared message.
    """
    cols = shn.cols
    groups: Dict[object, Tuple[Tuple[Feedback, ...], list]] = {}
    for row in rows:
        pending = row.pending
        if not pending:
            continue
        if len(pending) == 1:
            arrival, feedback = pending[0]
            if arrival > window_start:
                continue
            pending.clear()
            key: object = (
                feedback.sequence,
                feedback.window_index,
                id(feedback.burst_estimates),
                id(feedback.loss_statistics),
            )
            messages = (feedback,)
        else:
            arrived = [item for item in pending if item[0] <= window_start]
            if not arrived:
                continue
            row.pending = [item for item in pending if item[0] > window_start]
            arrived.sort(key=lambda item: item[0])
            messages = tuple(feedback for _, feedback in arrived)
            key = tuple(
                (
                    feedback.sequence,
                    feedback.window_index,
                    id(feedback.burst_estimates),
                    id(feedback.loss_statistics),
                )
                for feedback in messages
            )
        group = groups.get(key)
        if group is None:
            groups[key] = group = (messages, [])
        group[1].append(row)

    stale_count = used_count = 0
    matrix_folds: List[Tuple[list, List[List[float]]]] = []
    colpos = shn.colpos
    a1 = 1.0 - alpha
    for messages, group_rows in groups.values():
        use_matrix = len(group_rows) >= _FOLD_MATRIX_MIN
        for feedback in messages:
            # Pre-resolve the fold: (column base, layer size, clamped
            # burst) per observed layer.  All rows in a group share the
            # feedback's window's layer_sizes (the message came off one
            # shared verdict), so one representative read is exact.
            ops: Optional[list] = None
            foldable = True
            estimates = feedback.burst_estimates
            if estimates:
                window = group_rows[0].result.windows[feedback.window_index]
                sizes = window.layer_sizes
                frames = window.frames
                ops = []
                for layer_index, burst in estimates.items():
                    layer_size = sizes.get(layer_index, frames)
                    if layer_size <= 1:
                        continue
                    j = colpos.get(layer_index)
                    if j is None:
                        foldable = False
                        break
                    clamped = burst if burst < layer_size else layer_size
                    ops.append((4 * j, layer_size, clamped))
            if not foldable:
                for row in group_rows:
                    K._apply_feedback(row, feedback)
                continue
            statistics = feedback.loss_statistics
            fold_stats = statistics is not None and statistics[2] > 0
            fresh_ctls: List[List[float]] = []
            for row in group_rows:
                collector = row.collector
                collector.received += 1
                latest = collector._latest
                if latest is not None and feedback.sequence <= latest.sequence:
                    collector.ignored_stale += 1
                    stale_count += 1
                    continue
                collector._latest = feedback
                row.result.acks_used += 1
                used_count += 1
                if ops:
                    ctl = _ctl_of(row, cols, alpha)
                    if ctl is None:
                        for layer_index, burst in estimates.items():
                            layer_size = sizes.get(layer_index, frames)
                            if layer_size > 1:
                                row.controller.observe(
                                    layer_index, layer_size, burst
                                )
                    elif use_matrix:
                        fresh_ctls.append(ctl)
                    else:
                        for base, layer_size, clamped in ops:
                            size_f = float(layer_size)
                            if ctl[base] == 1.0 and ctl[base + 1] == size_f:
                                ctl[base + 2] = (
                                    alpha * clamped + a1 * ctl[base + 2]
                                )
                                ctl[base + 3] += 1.0
                            else:
                                ctl[base] = 1.0
                                ctl[base + 1] = size_f
                                ctl[base + 2] = alpha * clamped + a1 * (
                                    size_f / 2.0
                                )
                                ctl[base + 3] = 1.0
                if fold_stats:
                    row.estimator.observe_counts(
                        lost=statistics[0],
                        total=statistics[2],
                        runs=statistics[1],
                    )
            if fresh_ctls:
                matrix_folds.append((ops, fresh_ctls))

    for ops, fresh_ctls in matrix_folds:
        matrix = np.array(fresh_ctls, dtype=np.float64)
        for base, layer_size, clamped in ops:
            kernels.ewma_fold(matrix, base, layer_size, clamped, alpha)
        for vals, folded in zip(fresh_ctls, matrix.tolist()):
            vals[:] = folded

    if track:
        if stale_count:
            obs.counter("protocol.acks_stale").inc(stale_count)
        if used_count:
            obs.counter("protocol.acks_used").inc(used_count)


# ----------------------------------------------------------------------
# Stage 3: burst bounds and plan assets, grouped by bound vector
# ----------------------------------------------------------------------


def _plan_assets(rows, info, config, shn, window_index, window_start, window_end):
    """(plan, sequences, unshed schedule) per row.

    The schedule is timed by the row's own info, so caches key on
    (bounds, info).
    """
    shape = info.shape
    scramble = config.scramble

    def asset_for(bounds, row_info):
        plan, sequences = shape.plan_for(bounds, scramble)
        sched = K._schedule_for(
            row_info, plan, window_index, window_start, window_end
        )
        return plan, sequences, sched

    assets: List[Optional[tuple]] = [None] * len(rows)

    def unbounded(indices) -> None:
        """Assets of rows planned without burst bounds."""
        cache: Dict[object, tuple] = {}
        for i in indices:
            row_info = rows[i].info or info
            asset = cache.get(row_info)
            if asset is None:
                asset = cache[row_info] = asset_for({}, row_info)
            assets[i] = asset

    if not scramble:
        unbounded(range(len(rows)))
        return assets
    if config.burst_policy == "quantile":
        epsilon = config.quantile_epsilon
        cache: Dict[object, tuple] = {}
        for i, row in enumerate(rows):
            quantile = row.estimator.burst_quantile(epsilon)
            row_info = row.info or info
            asset = cache.get((quantile, row_info))
            if asset is None:
                bounds = {
                    layer_index: (quantile if quantile < size else size)
                    for _, layer_index, size, _ in shn.bounds_layers
                }
                asset = asset_for(bounds, row_info)
                cache[(quantile, row_info)] = asset
            assets[i] = asset
        return assets

    cols = shn.cols
    alpha = config.alpha
    ctl_rows: List[int] = []
    ctl_pack: List[List[float]] = []
    object_rows: List[int] = []
    for i, row in enumerate(rows):
        ctl = _ctl_of(row, cols, alpha)
        if ctl is None:
            object_rows.append(i)
        else:
            ctl_rows.append(i)
            ctl_pack.append(ctl)
    if ctl_rows:
        if not shn.bounds_layers:
            unbounded(ctl_rows)
        else:
            matrix = np.array(ctl_pack, dtype=np.float64)
            bound_vecs = []
            packed: Optional[object] = np.zeros(len(ctl_rows), dtype=np.int64)
            # 6 bits per layer (bounds <= window <= 63); beyond 10
            # layers fall back to tuple keys.
            pack_keys = len(shn.bounds_layers) * 6 <= 62
            for column, _, size, default in shn.bounds_layers:
                base = 4 * column
                out = kernels.burst_bounds(matrix, base, size, default)
                bound_vecs.append(out)
                if pack_keys:
                    packed = packed * 64 + out
            # Write creation side effects (fresh estimators) back.
            for vals, gathered in zip(ctl_pack, matrix.tolist()):
                vals[:] = gathered
            bound_lists = [vec.tolist() for vec in bound_vecs]
            if pack_keys:
                keys = packed.tolist()
            else:
                keys = list(zip(*bound_lists))
            layer_indices = [
                layer_index for _, layer_index, _, _ in shn.bounds_layers
            ]
            cache = {}
            for position, i in enumerate(ctl_rows):
                row_info = rows[i].info or info
                key = (keys[position], row_info)
                asset = cache.get(key)
                if asset is None:
                    bounds = {
                        layer_index: bound_lists[q][position]
                        for q, layer_index in enumerate(layer_indices)
                    }
                    asset = asset_for(bounds, row_info)
                    cache[key] = asset
                assets[i] = asset
    for i in object_rows:
        row = rows[i]
        bounds = K.row_bounds(row, config, shape)
        assets[i] = asset_for(bounds, row.info or info)
    return assets


# ----------------------------------------------------------------------
# Stage 5: one matrix pass over every timeline row of the step
# ----------------------------------------------------------------------


def _receive_timeline(
    timeline,
    shn,
    n: int,
    config,
    window_index: int,
    window_end: float,
    playback_start: float,
    control_serialization,
    track: bool,
    all_results,
) -> Tuple[int, int]:
    """Score, record and ACK every timeline row of one window step.

    ``timeline`` lists ``(row, plan, sched, sched_native)`` for rows
    whose flag span has losses but no lost anchor packet (or whose
    config does not retransmit anchors), so their first-attempt
    timeline is the schedule's.  Returns ``(packets, losses)`` for the
    channel counters.
    """
    # Per-row schedule index into the step's distinct schedules.
    index_of: Dict[int, int] = {}
    scheds: List[tuple] = []
    row_sched: List[int] = []
    for _, plan, sched, native in timeline:
        s = index_of.get(id(sched))
        if s is None:
            s = index_of[id(sched)] = len(scheds)
            scheds.append((plan, sched, native))
        row_sched.append(s)
    sidx = np.array(row_sched, dtype=np.intp)
    width = max(len(native.offsets) for _, _, native in scheds)
    span_max = max(sched.span for _, sched, _ in scheds)

    def stacked(field, pad, dtype):
        """One schedule vector per row, padded to ``width`` attempts."""
        return np.array(
            [
                getattr(native, field) + [pad] * (width - len(native.offsets))
                for _, _, native in scheds
            ],
            dtype=dtype,
        )[sidx]

    # Padded attempts own no packets (their bounds repeat the span), are
    # neither on time nor late and carry no received bit, so they add
    # nothing to any count, mask or run below.
    bounds = np.array(
        [
            native.bounds + [sched.span] * (width - len(native.offsets))
            for _, sched, native in scheds
        ],
        dtype=np.intp,
    )[sidx]
    offsets = stacked("offsets", 0, np.int64)
    arrivals = stacked("arrivals", 0.0, np.float64)
    ontime = stacked("ontime", False, np.bool_)
    late_mask = stacked("late", False, np.bool_)
    bits = stacked("bits", 0, np.uint64)

    # Flags past a row's own span sit beyond its last bound, so reading
    # the step's longest span off every row never changes a count.
    flag_rows = []
    for row, _, _, _ in timeline:
        pos = row.pos
        flag_row = row.flags[pos : pos + span_max]
        if len(flag_row) < span_max:
            flag_row += [False] * (span_max - len(flag_row))
        flag_rows.append(flag_row)
    flag_matrix = np.array(flag_rows, dtype=np.bool_)
    d = flag_matrix.shape[0]
    cumulative = np.zeros((d, span_max + 1), dtype=np.int32)
    np.cumsum(flag_matrix, axis=1, out=cumulative[:, 1:])
    lost = np.diff(np.take_along_axis(cumulative, bounds, axis=1), axis=1)

    frame_lost = lost > 0
    delivered = ~frame_lost
    received = delivered & ontime
    mask_vec = np.bitwise_or.reduce(
        np.where(received, bits, np.uint64(0)), axis=1
    )
    late = (delivered & late_mask).sum(axis=1)
    not_decodable = (
        shn.need_masks[None, :] & np.bitwise_not(mask_vec)[:, None]
    ) != 0
    unit_losses = not_decodable.sum(axis=1)
    clfs = kernels.worst_runs(not_decodable)
    one = np.uint64(1)
    burst_lists = []
    for q in range(len(shn.cols)):
        # One shape, so layer ``q`` has one length under every plan.
        sequences = np.array(
            [native.sequences[q] for _, _, native in scheds], dtype=np.uint64
        )[sidx]
        burst_lists.append(
            kernels.worst_runs(((mask_vec[:, None] >> sequences) & one) == 0).tolist()
        )
    runs = frame_lost[:, 0].astype(np.int64)
    if width > 1:
        runs += (frame_lost[:, 1:] & ~frame_lost[:, :-1]).sum(axis=1)
    lost_frames_list = frame_lost.sum(axis=1).tolist()
    lost_totals_list = lost.sum(axis=1).tolist()
    runs_list = runs.tolist()
    late_list = late.tolist()
    unit_list = unit_losses.tolist()
    clf_list = clfs.tolist()

    # One nonzero over the whole step replaces a per-row mask select:
    # the flat hit lists split into per-row runs below.
    hit_rows, hit_cols = np.nonzero(received)
    hit_bounds = np.searchsorted(hit_rows, np.arange(d + 1)).tolist()
    hit_offsets = offsets[hit_rows, hit_cols].tolist()
    hit_arrivals = arrivals[hit_rows, hit_cols].tolist()
    dec_rows, dec_cols = np.nonzero(~not_decodable)
    dec_bounds = np.searchsorted(dec_rows, np.arange(d + 1)).tolist()
    dec_frames = dec_cols.tolist()

    # Schedule-constant result fields, stamped per row via __dict__
    # (the clean branch's template trick: the dataclass constructor is
    # the dominant per-row cost at scale).
    templates = []
    for plan, sched, _ in scheds:
        base = WindowResult(
            index=window_index,
            frames=n,
            transmission_order=plan.order,
            layer_sizes=sched.layer_sizes,
        )
        base.sent = sched.sent_count
        base.dropped_at_sender = sched.dropped
        base.shed = sched.shed
        base.playback_start = playback_start
        templates.append(base.__dict__)

    layer_indices = shn.cols
    frames_max = max(1, n)
    rtt_half = config.rtt / 2.0
    phases = config.channel_phases
    cs_fixed = None if callable(control_serialization) else control_serialization
    # Every per-row result field is a pure function of the row's
    # schedule and frame-loss pattern (which attempts lost a packet), so
    # rows with equal keys share one fully-populated field template, one
    # bursts/rates dict pair and one stats tuple — the clean branch's
    # sharing, extended to repeated dirty outcomes.
    pattern_blob = frame_lost.tobytes()
    pattern_cache: Dict[tuple, tuple] = {}
    # Rows with equal burst vectors share one bursts / loss-rates dict
    # pair (the clean path already shares these across a whole cohort;
    # consumers never mutate them).
    burst_cache: Dict[tuple, tuple] = {}
    packets_total = losses_total = acks_sent = acks_lost = 0
    for position, (row, _, sched, _) in enumerate(timeline):
        s = row_sched[position]
        offset = position * width
        key = (s, pattern_blob[offset : offset + width])
        cached = pattern_cache.get(key)
        if cached is None:
            pfields = dict(templates[s])
            lost_frames = lost_frames_list[position]
            pfields["lost_in_network"] = lost_frames
            lo, hi = hit_bounds[position], hit_bounds[position + 1]
            arrival_times = dict(zip(hit_offsets[lo:hi], hit_arrivals[lo:hi]))
            pfields["received"] = set(arrival_times)
            pfields["arrival_times"] = arrival_times
            pfields["late"] = late_list[position]
            lo, hi = dec_bounds[position], dec_bounds[position + 1]
            pfields["decodable"] = set(dec_frames[lo:hi])
            unit = unit_list[position]
            pfields["unit_losses"] = unit
            clf = clf_list[position]
            pfields["clf"] = clf
            burst_key = tuple(values[position] for values in burst_lists)
            shared = burst_cache.get(burst_key)
            if shared is None:
                bursts = dict(zip(layer_indices, burst_key))
                rates = {
                    layer: min(1.0, burst / frames_max)
                    for layer, burst in bursts.items()
                }
                burst_cache[burst_key] = shared = (bursts, rates)
            else:
                bursts, rates = shared
            pfields["layer_bursts"] = bursts
            stats = (lost_frames, runs_list[position], sched.sent_count)
            pfields["first_attempt_stats"] = stats
            pattern_cache[key] = cached = (
                pfields,
                bursts,
                rates,
                stats,
                clf,
                unit / frames_max,
            )
        pfields, bursts, rates, stats, clf, alf = cached
        result = WindowResult.__new__(WindowResult)
        fields = result.__dict__
        fields.update(pfields)
        span = sched.span
        row.pos += span
        row.fwd_busy = sched.final_busy
        session = row.result
        session.packets_offered += span
        lost_total = lost_totals_list[position]
        session.packets_lost += lost_total
        packets_total += span
        losses_total += lost_total
        # Inlined send_ack: same message, same feedback-channel draw,
        # with the obs counters batched per step.  The message fields
        # are valid by construction, so the frozen dataclass ceremony
        # (__setattr__ + validation) is skipped.
        feedback = Feedback.__new__(Feedback)
        fb_fields = feedback.__dict__
        fb_fields["sequence"] = row.ack_seq
        fb_fields["window_index"] = window_index
        fb_fields["burst_estimates"] = bursts
        fb_fields["loss_rates"] = rates
        fb_fields["loss_statistics"] = stats
        row.ack_seq += 1
        session.acks_sent += 1
        acks_sent += 1
        fb_busy = row.fb_busy
        start = window_end if window_end > fb_busy else fb_busy
        completed = start + (
            control_serialization(row) if cs_fixed is None else cs_fixed
        )
        row.fb_busy = completed
        ack_lost = False
        if row.fb_rng is not None:
            draw = row.fb_rng.random()
            if phases is None:
                fb_good, fb_bad_p = config.p_good, config.p_bad
            else:
                fb_good, fb_bad_p = K.phase_params_at(phases, row.fb_drawn)
            row.fb_drawn += 1
            if row.fb_bad:
                if draw >= fb_bad_p:
                    row.fb_bad = False
            else:
                if draw >= fb_good:
                    row.fb_bad = True
            ack_lost = row.fb_bad
        if ack_lost:
            session.acks_lost += 1
            acks_lost += 1
            fields["ack_delivered"] = False
        else:
            row.pending.append((completed + rtt_half, feedback))
        session.windows.append(result)
        session.series.add_clf(clf, alf)
        if track:
            all_results.append(result)
    if track:
        if acks_sent:
            obs.counter("protocol.acks_sent").inc(acks_sent)
        if acks_lost:
            obs.counter("protocol.acks_lost").inc(acks_lost)
    return packets_total, losses_total


# ----------------------------------------------------------------------
# The step
# ----------------------------------------------------------------------


def step_native(
    rows, info, config, fps, window_index, control_serialization, shed_for
) -> None:
    """Advance ``rows`` one window; ``kernel.step_window``'s fused tier."""
    n = info.n
    cycle = info.cycle
    window_start = window_index * cycle
    window_end = window_start + cycle
    playback_start = window_end + config.rtt / 2.0
    slot_times = [playback_start + offset / fps for offset in range(n)]
    rtt_half = config.rtt / 2.0
    retransmit = config.retransmit_anchors
    anchors = info.anchors
    shape = info.shape
    track = obs.enabled()

    K.prefetch_flags(
        K.plan_refills(rows, info.first_attempt_packets + K.PREFETCH_SLACK),
        config.p_good,
        config.p_bad,
        phases=config.channel_phases,
    )

    shn = shape.native
    if shn is None:
        shn = _ShapeNative(shape)
        shape.native = shn

    _fold_feedback(rows, shn, window_start, config.alpha, track)
    assets = _plan_assets(
        rows, info, config, shn, window_index, window_start, window_end
    )

    # ------------------------------------------------------------------
    # Classify rows: clean (shared verdict) / timeline / scalar
    # ------------------------------------------------------------------
    cs_fixed = (
        None if callable(control_serialization) else control_serialization
    )
    no_shed = frozenset()
    all_results: Optional[List[WindowResult]] = [] if track else None
    full_collapse = 0
    packets_total = 0
    losses_total = 0
    scalar_pending: List[tuple] = []
    timeline: List[tuple] = []

    for i, row in enumerate(rows):
        plan, sequences, sched = assets[i]
        shed = shed_for(row, plan) if shed_for is not None else no_shed
        if shed:
            sched = K._schedule_for(
                row.info or info, plan, window_index, window_start,
                window_end, shed,
            )
        if row.fwd_busy <= window_start:
            pos = row.pos
            flags = row.flags
            span = sched.span
            end = pos + span
            if len(flags) >= end:
                try:
                    first = flags.index(True, pos, end)
                except ValueError:
                    first = -1
                if first < 0:
                    full_collapse += 1
                    packets_total += span
                    result = K._collapse_clean(
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
                    if track:
                        all_results.append(result)
                    continue
                # A lost packet of an anchor attempt means data-dependent
                # retransmission timing: the cohort loop's test, so such
                # rows go straight to the scalar tail, never scored here.
                anchor_lost = False
                if retransmit:
                    rel = first - pos
                    for start, stop in _anchor_spans(sched, anchors):
                        if stop > rel and True in flags[pos + start : pos + stop]:
                            anchor_lost = True
                            break
                if not anchor_lost:
                    native = _sched_native(sched, sequences, rtt_half, slot_times)
                    timeline.append((row, plan, sched, native))
                    continue
        scalar_pending.append((row, plan, sequences, shed))

    if timeline:
        packets, losses = _receive_timeline(
            timeline,
            shn,
            n,
            config,
            window_index,
            window_end,
            playback_start,
            control_serialization,
            track,
            all_results,
        )
        packets_total += packets
        losses_total += losses

    if track and (packets_total or losses_total):
        obs.counter("channel.packets").inc(packets_total)
        obs.counter("channel.losses").inc(losses_total)

    # ------------------------------------------------------------------
    # Scalar tail (backlog, lost anchors, short buffers)
    # ------------------------------------------------------------------
    if scalar_pending:
        pairs = [
            (
                row,
                K.run_row_sender(
                    row,
                    row.info or info,
                    config,
                    window_index,
                    window_start,
                    window_end,
                    plan=plan,
                    layer_sequences=sequences,
                    shed=shed,
                ),
            )
            for row, plan, sequences, shed in scalar_pending
        ]
        K._receive_and_ack(
            pairs,
            info,
            config,
            window_index,
            window_end,
            playback_start,
            slot_times,
            control_serialization,
        )
        if track:
            all_results.extend(data.result for _, data in pairs)

    if track:
        obs.counter("kernel.collapse.full").inc(full_collapse)
        obs.counter("kernel.collapse.timeline").inc(len(timeline))
        obs.counter("kernel.collapse.scalar").inc(len(scalar_pending))
        K._observe_window(all_results, len(rows))
