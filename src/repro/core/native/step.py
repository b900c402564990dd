"""The kernel step's array program: the cohort loop as whole-step matrix ops.

:func:`step_native` advances a uniform row group through one buffer
window with the same observable effects as ``kernel._step_cohorts`` —
bit-for-bit identical :class:`~repro.core.protocol.WindowResult`
streams, channel draws, ACK timings and estimator trajectories — but
with the per-row Python work hoisted into whole-step NumPy kernels
(:mod:`repro.core.native.kernels`).  ``kernel.step_window`` runs it on
the NumPy accel backend for windows of at most 63 frames.

Stages
------
1. *Prefetch.*  ``kernel.prefetch_flags`` over ``kernel.plan_refills``,
   exactly as the cohort loop.
2. *Feedback.*  ``kernel.drain_acks`` per row, exactly as the cohort
   loop: every ACK arrived by the window start folds into the row's
   controller objects (Equation 1) and Gilbert-fit estimator.
3. *Plan* (:func:`_plan_assets`).  ``kernel.row_bounds`` per row, as
   the cohort loop; rows with equal bounds and timing share one
   ``plan_for`` / ``_schedule_for`` result, so both run once per
   distinct plan, not once per row.
4. *Classify* (:func:`_classify`).  The cohort loop's split, with the
   same tests: clean rows take the shared timeline and shared verdict;
   rows with (``retransmit_anchors``) a lost packet of an anchor
   attempt are replay rows; rows with link backlog or a short flag
   buffer go to the scalar tail; the rest are timeline rows.  Timelines
   come from each row's own info and shed set.
5. *Replay* (:func:`_replay`).  ``run_row_sender``'s loop for every
   replay row at once, as a scan over NumPy arrays (link-busy time, flag
   position, one retry-queue slot per anchor) advanced one
   transmission-order position at a time, then the idle tail.  It runs
   when the step has at least ``_REPLAY_MIN_ROWS`` replay rows (fewer
   take the scalar tail) and writes nothing to a row; rows whose replay
   would read past their prefetched flags go to the scalar tail
   untouched.
6. *Receive* (:func:`_receive_timeline`).  Every timeline and replayed
   row of the step is scored in one matrix pass over per-row attempt
   vectors (frame offsets, arrivals, first-attempt losses, deliveries):
   timeline rows gather theirs from their schedule by a per-row
   schedule index and read losses off their flags
   (:func:`_timeline_attempts`); replayed rows bring the scan's.  Only
   the per-row ``WindowResult`` materialization and ACK are Python,
   shared per (schedule, loss pattern) among timeline rows.
7. *Scalar tail* (:func:`_scalar_tail`).  The identical
   ``run_row_sender`` / ``_receive_and_ack`` path the cohort loop uses.
   Rows are independent, so running them after the scored rows changes
   no result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core import kernel as K
from repro.core.native import kernels
from repro.core.protocol import WindowResult
from repro.network.feedback import Feedback


# ----------------------------------------------------------------------
# Per-shape / per-schedule precompute (the plan-array ABI)
# ----------------------------------------------------------------------


class _ShapeNative:
    """Shape-level arrays: layer-index columns and need-mask vector."""

    __slots__ = ("cols", "need_masks")

    def __init__(self, shape) -> None:
        self.cols = tuple(layer.index for layer in shape.transmission.layers)
        self.need_masks = np.array(shape.need_masks, dtype=np.uint64)


class _SchedNative:
    """Per-schedule vectors of one ``_Schedule`` (plan x window x shed).

    The receiver's per-attempt facts — pack boundaries, frame offsets
    and arrival times — as plain lists, stacked per step by
    :func:`_timeline_attempts`.
    """

    __slots__ = ("bounds", "offsets", "arrivals")

    def __init__(self, sched, rtt_half) -> None:
        attempts = sched.attempts
        #: Pack start of every attempt, then the span: attempt ``k``'s
        #: packets are ``bounds[k]:bounds[k + 1]``.
        self.bounds = [attempt[2] for attempt in attempts] + [sched.span]
        self.offsets = [attempt[0] for attempt in attempts]
        self.arrivals = [completed + rtt_half for _, completed, _, _ in attempts]


def _sched_native(sched, rtt_half) -> _SchedNative:
    native = sched.native
    if native is None:
        native = _SchedNative(sched, rtt_half)
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
# Stage 3: burst bounds and plan assets, shared per bound vector
# ----------------------------------------------------------------------


def _plan_assets(rows, info, config, window_index, window_start, window_end):
    """(plan, sequences, unshed schedule) per row.

    Bounds come from ``kernel.row_bounds``, as in the cohort loop.  The
    schedule is timed by the row's own info, so assets are shared per
    (bounds, info).
    """
    shape = info.shape
    scramble = config.scramble
    cache: Dict[tuple, tuple] = {}
    assets: List[tuple] = []
    for row in rows:
        bounds = K.row_bounds(row, config, shape)
        row_info = row.info or info
        key = (tuple(bounds.values()), row_info)
        asset = cache.get(key)
        if asset is None:
            plan, sequences = shape.plan_for(bounds, scramble)
            sched = K._schedule_for(
                row_info, plan, window_index, window_start, window_end
            )
            asset = cache[key] = (plan, sequences, sched)
        assets.append(asset)
    return assets


# ----------------------------------------------------------------------
# Stage 4: classify rows
# ----------------------------------------------------------------------


class _Split:
    """The rows of one step by path, after :func:`_classify`.

    Clean rows are already stepped (their results are in ``clean``);
    every other list holds ``(row, plan, sequences, sched, shed)``
    entries, ``sched`` timed by the row's own info and shed set.
    """

    __slots__ = ("clean", "clean_packets", "timeline", "replay", "scalar")

    def __init__(self) -> None:
        self.clean: List[WindowResult] = []
        self.clean_packets = 0
        self.timeline: List[tuple] = []
        self.replay: List[tuple] = []
        self.scalar: List[tuple] = []


def _classify(
    rows,
    assets,
    info,
    config,
    window_index: int,
    window_start: float,
    window_end: float,
    slot_times,
    control_serialization,
    shed_for,
) -> _Split:
    """The cohort loop's split, with the same tests.

    A row whose flag span is clean takes the shared timeline and shared
    verdict (stepped here).  A row with losses but no lost packet of an
    anchor attempt (or whose config does not retransmit anchors) is a
    timeline row.  A row that lost an anchor packet is a replay row:
    its retransmission timing is data-dependent.  Rows with link backlog
    or a short flag buffer go to the scalar tail.
    """
    retransmit = config.retransmit_anchors
    anchors = info.anchors
    cs_fixed = None if callable(control_serialization) else control_serialization
    no_shed = frozenset()
    split = _Split()
    for i, row in enumerate(rows):
        plan, sequences, sched = assets[i]
        shed = shed_for(row, plan) if shed_for is not None else no_shed
        if shed:
            sched = K._schedule_for(
                row.info or info, plan, window_index, window_start,
                window_end, shed,
            )
        entry = (row, plan, sequences, sched, shed)
        if row.fwd_busy > window_start:
            split.scalar.append(entry)
            continue
        pos = row.pos
        flags = row.flags
        span = sched.span
        end = pos + span
        if len(flags) < end:
            split.scalar.append(entry)
            continue
        try:
            first = flags.index(True, pos, end)
        except ValueError:
            split.clean_packets += span
            split.clean.append(
                K._collapse_clean(
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
            continue
        anchor_lost = False
        if retransmit:
            rel = first - pos
            for start, stop in _anchor_spans(sched, anchors):
                if stop > rel and True in flags[pos + start : pos + stop]:
                    anchor_lost = True
                    break
        if anchor_lost:
            split.replay.append(entry)
        else:
            split.timeline.append(entry)
    return split


# ----------------------------------------------------------------------
# Attempt vectors: what the receiver scores
# ----------------------------------------------------------------------


class _Attempts:
    """Per-row attempt vectors of one row group, ready for the receiver.

    Column ``k`` of a row is its ``k``-th first attempt, in send order;
    columns past a row's attempts are padding.  ``offsets`` is the
    frame, ``arrivals`` the arrival time of the frame's delivering
    attempt (its first attempt when it was never delivered),
    ``first_lost`` whether the first attempt lost a packet and
    ``delivered`` whether any attempt delivered the frame (padding: all
    False).  Per row: packets sent (``spans``), packets lost, the link's
    final busy time and, for replayed rows, ``tallies`` — ``(sent,
    dropped_at_sender, retransmissions, recovered)``; ``None`` when the
    schedule's counts apply.
    """

    __slots__ = (
        "entries",
        "offsets",
        "arrivals",
        "first_lost",
        "delivered",
        "spans",
        "lost_totals",
        "busy",
        "tallies",
    )

    def __init__(
        self,
        entries,
        offsets,
        arrivals,
        first_lost,
        delivered,
        spans,
        lost_totals,
        busy,
        tallies=None,
    ) -> None:
        self.entries = entries
        self.offsets = offsets
        self.arrivals = arrivals
        self.first_lost = first_lost
        self.delivered = delivered
        self.spans = spans
        self.lost_totals = lost_totals
        self.busy = busy
        self.tallies = tallies


def _timeline_attempts(timeline, rtt_half: float) -> _Attempts:
    """Attempt vectors of timeline rows: their schedule's, plus losses.

    Each row's schedule vectors are gathered by a per-row schedule
    index, padded to the step's longest span and attempt count, and its
    per-attempt packet losses are read off its flags in one cumsum.
    """
    index_of: Dict[int, int] = {}
    natives: List[_SchedNative] = []
    spans: List[int] = []
    row_sched: List[int] = []
    for _, _, _, sched, _ in timeline:
        s = index_of.get(id(sched))
        if s is None:
            s = index_of[id(sched)] = len(natives)
            natives.append(_sched_native(sched, rtt_half))
            spans.append(sched.span)
        row_sched.append(s)
    sidx = np.array(row_sched, dtype=np.intp)
    width = max(len(native.offsets) for native in natives)
    span_max = max(spans)
    # Padded attempts own no packets (their bounds repeat the span).
    bounds = np.array(
        [
            native.bounds + [span] * (width - len(native.offsets))
            for native, span in zip(natives, spans)
        ],
        dtype=np.intp,
    )[sidx]
    valid = np.array(
        [
            [True] * len(native.offsets) + [False] * (width - len(native.offsets))
            for native in natives
        ],
        dtype=np.bool_,
    )[sidx]
    offsets = np.array(
        [native.offsets + [0] * (width - len(native.offsets)) for native in natives],
        dtype=np.intp,
    )[sidx]
    arrivals = np.array(
        [
            native.arrivals + [0.0] * (width - len(native.offsets))
            for native in natives
        ],
        dtype=np.float64,
    )[sidx]

    # Flags past a row's own span sit beyond its last bound, so reading
    # the step's longest span off every row never changes a count.
    flag_rows = []
    for row, _, _, _, _ in timeline:
        pos = row.pos
        flag_row = row.flags[pos : pos + span_max]
        if len(flag_row) < span_max:
            flag_row += [False] * (span_max - len(flag_row))
        flag_rows.append(flag_row)
    flag_matrix = np.array(flag_rows, dtype=np.bool_)
    cumulative = np.zeros((len(timeline), span_max + 1), dtype=np.int32)
    np.cumsum(flag_matrix, axis=1, out=cumulative[:, 1:])
    lost = np.diff(np.take_along_axis(cumulative, bounds, axis=1), axis=1)
    first_lost = lost > 0
    return _Attempts(
        timeline,
        offsets,
        arrivals,
        first_lost,
        valid & ~first_lost,
        [entry[3].span for entry in timeline],
        lost.sum(axis=1).tolist(),
        [entry[3].final_busy for entry in timeline],
    )


# ----------------------------------------------------------------------
# Stage 5: replay every lost-anchor row's sender loop at once
# ----------------------------------------------------------------------

#: Fewest lost-anchor rows one step replays in columns.  The scan pays
#: a fixed array cost per event (about 50 per 24-frame window), so
#: below this many rows ``run_row_sender`` is faster and the rows take
#: the scalar tail instead (measured in DESIGN.md, "Implementations").
_REPLAY_MIN_ROWS = 80

#: Sorts after every real insertion tick.
_NO_TICK = np.iinfo(np.int64).max


def _replay(entries, info, config, window_start: float, window_end: float):
    """Replay the sender loop of every lost-anchor row together.

    ``run_row_sender``'s loop as a scan over rows: per row it keeps the
    link's ``busy`` time, the flag position ``pos`` and the retry queue
    — one slot per anchor holding the lost attempt's completion time,
    its due time (completion + rtt) and an insertion tick that fixes
    queue order; an empty slot holds infinities — and advances one
    transmission-order position at a time.  At each position it sends
    the retries due by then in queue order, then the first attempt,
    under the same ``frame_ser`` budget test and shed rule; afterwards
    the idle tail retries the queued frame that completed earliest (the
    earlier entry on a tie) until the first retry that misses the
    budget.  Fragment times add in the sender's order, so every float
    matches.

    A row's sender reads its flags contiguously, so the packets it sent
    and lost are read off its final position, and every frame it did not
    send was dropped at the sender (shed or over budget): those totals
    need no per-event bookkeeping.

    Nothing is written to a row here: a row whose replay would read
    past its prefetched flags (``run_row_sender`` would refill
    mid-window) is returned among the leftovers untouched, for the
    scalar tail.  Returns ``(attempts, leftovers)``; ``attempts`` is
    ``None`` when no row is left to commit.
    """
    rows_n = len(entries)
    n = info.n
    frag_counts = info.frag_counts
    anchors = tuple(sorted(info.anchors))
    fmax = max(frag_counts)
    rtt = config.rtt

    # The sender's inputs, by transmission-order position (rows'
    # plans, shares and shed sets differ): each frame's offset, budget
    # serialization time, fragment times (padded with 0.0 to the widest
    # frame; adding 0.0 leaves a float unchanged, so the padded sum is
    # the sender's sum), packet count, shed mark and retry-queue slot
    # (one per anchor, in offset order; -1 = not an anchor).  Inputs are
    # stacked once per distinct plan, info and shed set, then gathered.
    plan_ids: Dict[int, int] = {}
    info_ids: Dict[int, int] = {}
    shed_ids: Dict[frozenset, int] = {}
    orders = []
    infos = []
    sheds = []
    row_plan = []
    row_info = []
    row_shed = []
    for row, plan, _, _, shed in entries:
        row_plan.append(plan_ids.setdefault(id(plan), len(orders)))
        if row_plan[-1] == len(orders):
            orders.append(plan.order)
        timing = row.info or info
        row_info.append(info_ids.setdefault(id(timing), len(infos)))
        if row_info[-1] == len(infos):
            infos.append(timing)
        row_shed.append(shed_ids.setdefault(shed, len(sheds)))
        if row_shed[-1] == len(sheds):
            sheds.append(shed)
    order = np.array(orders, dtype=np.intp)[row_plan]
    by_row = np.array(row_info, dtype=np.intp)[:, None]
    frame_ser = np.array([timing.frame_ser for timing in infos])[by_row[:, 0]]
    frag_times = np.array(
        [
            [times + (0.0,) * (fmax - len(times)) for times in timing.frag_times]
            for timing in infos
        ],
        dtype=np.float64,
    )
    shed_mask = np.array(
        [[offset in shed for offset in range(n)] for shed in sheds], dtype=np.bool_
    )[row_shed]
    slot_of = np.full(n, -1, dtype=np.intp)
    slot_of[list(anchors)] = np.arange(len(anchors))
    anchor_offsets = np.array(anchors, dtype=np.intp)

    # Position-major copies, so each step of the scan reads one
    # contiguous row of every input.
    live = np.ascontiguousarray(~np.take_along_axis(shed_mask, order, axis=1).T)
    ser = np.ascontiguousarray(np.take_along_axis(frame_ser, order, axis=1).T)
    frags = np.ascontiguousarray(frag_times[by_row, order].transpose(1, 2, 0))
    counts = np.ascontiguousarray(np.array(frag_counts, dtype=np.intp)[order].T)
    anchor_at = np.ascontiguousarray(slot_of[order].T)
    is_anchor = anchor_at >= 0
    anchor_ser = frame_ser[:, anchor_offsets]
    anchor_frags = frag_times[by_row, anchor_offsets]
    # Each anchor's order position (``order`` is a permutation).
    anchor_pos = np.argsort(order, axis=1)[:, anchor_offsets]
    anchor_counts = np.array([frag_counts[a] for a in anchors], dtype=np.intp)
    # Packets of the widest frame at each position (and of any anchor),
    # the terms of the fragment sum.
    widest = counts.max(axis=1).tolist()
    anchor_widest = max(frag_counts[a] for a in anchors)

    # Every flag a row may read without a refill, up to the prefetch
    # floor: a replay that needs more is left to ``run_row_sender``.
    width = info.first_attempt_packets + K.PREFETCH_SLACK
    flag_rows = []
    limits = []
    for row, _, _, _, _ in entries:
        pos = row.pos
        flag_row = row.flags[pos : pos + width]
        limits.append(len(flag_row))
        if len(flag_row) < width:
            flag_row += [False] * (width - len(flag_row))
        flag_rows.append(flag_row)
    cumulative = np.zeros((rows_n, width + 1), dtype=np.intp)
    np.cumsum(np.array(flag_rows, dtype=np.bool_), axis=1, out=cumulative[:, 1:])

    at_rows = np.arange(rows_n)
    # No row is backlogged, so the link is free from the window start:
    # ``busy`` starts there, and a row that sends nothing keeps its own.
    fwd_busy = np.array([entry[0].fwd_busy for entry in entries])
    busy = np.full(rows_n, window_start, dtype=np.float64)
    pos = np.zeros(rows_n, dtype=np.intp)
    lost_before = np.zeros(rows_n, dtype=np.intp)  # lost flags before pos
    retransmissions = np.zeros(rows_n, dtype=np.intp)
    # Per order position: completion of the frame's delivering attempt
    # (else its first), attempted, lost at first, recovered by a retry.
    completed_at = np.zeros((rows_n, n), dtype=np.float64)
    sent_at = np.zeros((rows_n, n), dtype=np.bool_)
    lost_at = np.zeros((rows_n, n), dtype=np.bool_)
    recovered_at = np.zeros((rows_n, n), dtype=np.bool_)
    slots_n = len(anchors)
    queue_completed = np.full((rows_n, slots_n), np.inf)
    queue_due = np.full((rows_n, slots_n), np.inf)
    queue_tick = np.zeros((rows_n, slots_n), dtype=np.int64)
    queue_size = 0
    tick = 0

    def offer(go, start, times, widest_frame, count):
        """Serialize one frame per ``go`` row from ``start``.

        Returns (completion times, packets lost); rows outside ``go``
        keep their state.
        """
        completed = start
        for f in range(widest_frame):
            completed = completed + times[f]
        end = pos + count
        lost_after = cumulative[at_rows, np.minimum(end, width)]
        lost = lost_after - lost_before
        np.copyto(pos, end, where=go)
        np.copyto(busy, completed, where=go)
        np.copyto(lost_before, lost_after, where=go)
        return completed, lost

    def enqueue(rows_at, slots, completed) -> None:
        nonlocal tick, queue_size
        lost_completed = completed[rows_at]
        queue_completed[rows_at, slots] = lost_completed
        queue_due[rows_at, slots] = lost_completed + rtt
        queue_tick[rows_at, slots] = tick
        tick += 1
        queue_size += rows_at.size

    def dequeue(rows_at, slots) -> None:
        nonlocal queue_size
        queue_completed[rows_at, slots] = np.inf
        queue_due[rows_at, slots] = np.inf
        queue_size -= rows_at.size

    def retry(go, slots, at) -> None:
        """``retransmit_one`` for the ``go`` rows, each on its slot."""
        completed, lost = offer(
            go,
            at,
            anchor_frags[at_rows, slots].T,
            anchor_widest,
            anchor_counts[slots],
        )
        retransmissions[go] += 1
        ok = go & (lost == 0)
        hit = np.flatnonzero(ok)
        if hit.size:
            where = anchor_pos[hit, slots[hit]]
            completed_at[hit, where] = completed[hit]
            recovered_at[hit, where] = True
        miss = np.flatnonzero(go & ~ok)
        if miss.size:
            enqueue(miss, slots[miss], completed)

    for k in range(n):
        if queue_size:
            # Due retries first, in queue order, all judged due against
            # the link-free time before the first of them.  Each starts
            # when it is due or the link frees, whichever is later (the
            # link only frees later than that first time).
            due = (queue_due <= busy[:, None]) & live[k][:, None]
            while due.any():
                pending = due.any(axis=1)
                slots = np.argmin(np.where(due, queue_tick, _NO_TICK), axis=1)
                hit = np.flatnonzero(pending)
                due[hit, slots[hit]] = False
                at = np.maximum(busy, queue_due[at_rows, slots])
                dequeue(hit, slots[hit])
                retry(
                    pending & (at + anchor_ser[at_rows, slots] <= window_end),
                    slots,
                    at,
                )
        fits = (busy + ser[k] <= window_end) & live[k]
        completed, lost = offer(fits, busy, frags[k], widest[k], counts[k])
        lost_first = fits & (lost > 0)
        completed_at[:, k] = completed
        sent_at[:, k] = fits
        lost_at[:, k] = lost_first
        lost_anchor = lost_first & is_anchor[k]
        if lost_anchor.any():
            rows_at = np.flatnonzero(lost_anchor)
            enqueue(rows_at, anchor_at[k][rows_at], completed)

    # The idle tail: earliest completion first, stop at the first miss.
    while queue_size:
        earliest = queue_completed.min(axis=1)
        pending = earliest < np.inf
        first = queue_completed == earliest[:, None]
        slots = np.argmin(np.where(first, queue_tick, _NO_TICK), axis=1)
        hit = np.flatnonzero(pending)
        at = np.maximum(busy, queue_due[at_rows, slots])
        dequeue(hit, slots[hit])
        go = pending & (at + anchor_ser[at_rows, slots] <= window_end)
        stop = np.flatnonzero(pending & ~go)
        if stop.size:
            # The tail breaks: the row's remaining entries are dropped.
            queue_size -= int(np.isfinite(queue_completed[stop]).sum())
            queue_completed[stop] = np.inf
            queue_due[stop] = np.inf
        retry(go, slots, at)

    keep = pos <= np.array(limits, dtype=np.intp)
    leftovers = [entries[i] for i in np.flatnonzero(~keep).tolist()]
    if not leftovers:
        keep = slice(None)
    elif len(leftovers) == rows_n:
        return None, leftovers
    else:
        entries = [entries[i] for i in np.flatnonzero(keep).tolist()]
    sent = sent_at[keep].sum(axis=1)
    # Attempt columns in send order: each row's attempted positions,
    # stably moved to the front.
    send_order = np.argsort(~sent_at[keep], axis=1, kind="stable")

    def compress(matrix):
        return np.take_along_axis(matrix[keep], send_order, axis=1)

    lost_first = compress(lost_at)
    tallies = list(
        zip(
            sent.tolist(),
            (n - sent).tolist(),
            retransmissions[keep].tolist(),
            compress(recovered_at).sum(axis=1).tolist(),
        )
    )
    return (
        _Attempts(
            entries,
            compress(order),
            compress(completed_at) + rtt / 2.0,
            lost_first,
            compress(sent_at) & ~lost_first | compress(recovered_at),
            pos[keep].tolist(),
            lost_before[keep].tolist(),
            np.where(sent > 0, busy[keep], fwd_busy[keep]).tolist(),
            tallies,
        ),
        leftovers,
    )


# ----------------------------------------------------------------------
# Stage 6: one matrix pass over every scored row of the step
# ----------------------------------------------------------------------


def _stack(blocks: List[_Attempts], field: str):
    """One attempt matrix over all blocks, zero-padded to the widest."""
    matrices = [getattr(block, field) for block in blocks]
    if len(matrices) == 1:
        return matrices[0]
    width = max(matrix.shape[1] for matrix in matrices)
    out = np.zeros(
        (sum(matrix.shape[0] for matrix in matrices), width),
        dtype=matrices[0].dtype,
    )
    top = 0
    for matrix in matrices:
        rows, cols = matrix.shape
        out[top : top + rows, :cols] = matrix
        top += rows
    return out


def _receive_timeline(
    blocks: List[_Attempts],
    shn,
    n: int,
    config,
    window_index: int,
    window_end: float,
    slot_times,
    playback_start: float,
    control_serialization,
    track: bool,
    all_results,
) -> Tuple[int, int]:
    """Score, record and ACK every timeline and replayed row of a step.

    Arrivals, on-time and late verdicts, need-mask decodability, CLF,
    layer bursts, first-attempt statistics and the ACK come off the
    stacked attempt vectors in one matrix pass.  Returns ``(packets,
    losses)`` for the channel counters.
    """
    entries = [entry for block in blocks for entry in block.entries]
    tallies: List[Optional[tuple]] = []
    spans: List[int] = []
    lost_totals_list: List[int] = []
    busy_list: List[float] = []
    for block in blocks:
        tallies.extend(block.tallies or [None] * len(block.entries))
        spans.extend(block.spans)
        lost_totals_list.extend(block.lost_totals)
        busy_list.extend(block.busy)
    offsets = _stack(blocks, "offsets")
    arrivals = _stack(blocks, "arrivals")
    first_lost = _stack(blocks, "first_lost")
    delivered = _stack(blocks, "delivered")
    d, width = offsets.shape

    # Per-row schedule index into the step's distinct schedules.
    index_of: Dict[int, int] = {}
    scheds: List[tuple] = []
    row_sched: List[int] = []
    for _, plan, sequences, sched, _ in entries:
        s = index_of.get(id(sched))
        if s is None:
            s = index_of[id(sched)] = len(scheds)
            scheds.append((plan, sched, sequences))
        row_sched.append(s)
    sidx = np.array(row_sched, dtype=np.intp)

    ontime = arrivals <= np.array(slot_times, dtype=np.float64)[offsets]
    received = delivered & ontime
    mask_vec = np.bitwise_or.reduce(
        np.where(
            received,
            np.left_shift(np.uint64(1), offsets.astype(np.uint64)),
            np.uint64(0),
        ),
        axis=1,
    )
    late = (delivered & ~ontime).sum(axis=1)
    not_decodable = (
        shn.need_masks[None, :] & np.bitwise_not(mask_vec)[:, None]
    ) != 0
    unit_losses = not_decodable.sum(axis=1)
    clfs = kernels.worst_runs(not_decodable)
    one = np.uint64(1)
    burst_lists = []
    for q in range(len(shn.cols)):
        # One shape, so layer ``q`` has one length under every plan.
        layer_offsets = np.array(
            [sequences[q] for _, _, sequences in scheds], dtype=np.uint64
        )[sidx]
        burst_lists.append(
            kernels.worst_runs(
                ((mask_vec[:, None] >> layer_offsets) & one) == 0
            ).tolist()
        )
    runs = first_lost[:, 0].astype(np.int64)
    if width > 1:
        runs += (first_lost[:, 1:] & ~first_lost[:, :-1]).sum(axis=1)
    lost_frames_list = first_lost.sum(axis=1).tolist()
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
    # A timeline row's result fields are a pure function of its schedule
    # and frame-loss pattern (which attempts lost a packet), so such
    # rows with equal keys share one fully-populated field template, one
    # bursts/rates dict pair and one stats tuple — the clean branch's
    # sharing, extended to repeated dirty outcomes.  Replayed rows'
    # fields also depend on their retry timing; they share nothing.
    pattern_blob = first_lost.tobytes()
    pattern_cache: Dict[tuple, tuple] = {}
    # Rows with equal burst vectors share one bursts / loss-rates dict
    # pair (the clean path already shares these across a whole cohort;
    # consumers never mutate them).
    burst_cache: Dict[tuple, tuple] = {}
    packets_total = losses_total = acks_sent = acks_lost = 0
    for position, (row, _, _, _, _) in enumerate(entries):
        s = row_sched[position]
        tally = tallies[position]
        cached = None
        if tally is None:
            offset = position * width
            key = (s, pattern_blob[offset : offset + width])
            cached = pattern_cache.get(key)
        if cached is None:
            pfields = dict(templates[s])
            sent_count = pfields["sent"]
            if tally is not None:
                sent_count, dropped, retransmissions, recovered = tally
                pfields["sent"] = sent_count
                pfields["dropped_at_sender"] = dropped
                pfields["retransmissions"] = retransmissions
                pfields["recovered"] = recovered
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
            stats = (lost_frames, runs_list[position], sent_count)
            pfields["first_attempt_stats"] = stats
            cached = (pfields, bursts, rates, stats, clf, unit / frames_max)
            if tally is None:
                pattern_cache[key] = cached
        pfields, bursts, rates, stats, clf, alf = cached
        result = WindowResult.__new__(WindowResult)
        fields = result.__dict__
        fields.update(pfields)
        span = spans[position]
        row.pos += span
        row.fwd_busy = busy_list[position]
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
# Stage 7: the scalar tail
# ----------------------------------------------------------------------


def _scalar_tail(
    scalar,
    info,
    config,
    window_index: int,
    window_start: float,
    window_end: float,
    playback_start: float,
    slot_times,
    control_serialization,
) -> List[WindowResult]:
    """Backlogged rows, short flag buffers and unreplayable lost anchors.

    The identical ``run_row_sender`` / ``_receive_and_ack`` path the
    cohort loop uses.  Rows are independent, so running them after the
    scored rows changes no result.  Returns the rows' results.
    """
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
        for row, plan, sequences, _, shed in scalar
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
    return [data.result for _, data in pairs]


# ----------------------------------------------------------------------
# The step
# ----------------------------------------------------------------------


def step_native(
    rows, info, config, fps, window_index, control_serialization, shed_for
) -> None:
    """Advance ``rows`` one window; ``kernel.step_window`` on NumPy."""
    n = info.n
    cycle = info.cycle
    window_start = window_index * cycle
    window_end = window_start + cycle
    playback_start = window_end + config.rtt / 2.0
    slot_times = [playback_start + offset / fps for offset in range(n)]
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

    for row in rows:
        K.drain_acks(row, window_start)
    assets = _plan_assets(
        rows, info, config, window_index, window_start, window_end
    )
    split = _classify(
        rows,
        assets,
        info,
        config,
        window_index,
        window_start,
        window_end,
        slot_times,
        control_serialization,
        shed_for,
    )
    full_collapse = len(split.clean)
    all_results: Optional[List[WindowResult]] = split.clean if track else None
    packets_total = split.clean_packets
    losses_total = 0

    blocks: List[_Attempts] = []
    if split.timeline:
        blocks.append(_timeline_attempts(split.timeline, config.rtt / 2.0))
    replayed = 0
    if len(split.replay) >= _REPLAY_MIN_ROWS:
        attempts, leftovers = _replay(
            split.replay, info, config, window_start, window_end
        )
        if attempts is not None:
            blocks.append(attempts)
            replayed = len(attempts.entries)
        split.scalar.extend(leftovers)
    else:
        split.scalar.extend(split.replay)
    if blocks:
        packets, losses = _receive_timeline(
            blocks,
            shn,
            n,
            config,
            window_index,
            window_end,
            slot_times,
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

    if split.scalar:
        results = _scalar_tail(
            split.scalar,
            info,
            config,
            window_index,
            window_start,
            window_end,
            playback_start,
            slot_times,
            control_serialization,
        )
        if track:
            all_results.extend(results)

    if track:
        obs.counter("kernel.collapse.full").inc(full_collapse)
        obs.counter("kernel.collapse.timeline").inc(len(split.timeline))
        obs.counter("kernel.collapse.replay").inc(replayed)
        obs.counter("kernel.collapse.scalar").inc(len(split.scalar))
        K._observe_window(all_results, len(rows))
