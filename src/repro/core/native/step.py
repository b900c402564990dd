"""The native tier's window step: the fused loop as an array program.

:func:`step_native` advances a uniform row group through one buffer
window with the same observable effects as ``kernel._step_fused`` —
bit-for-bit identical :class:`~repro.core.protocol.WindowResult`
streams, channel draws, ACK timings and estimator trajectories — but
with the per-row Python work hoisted into whole-group kernels
(:mod:`repro.core.native.kernels`: Numba-compiled when importable,
NumPy twins otherwise).

Phases
------
1. *Drain fold.*  Arrived ACKs are grouped by feedback identity (the
   fused tier's clean cohorts share one immutable
   :class:`~repro.network.feedback.Feedback` per window, so a K-row
   fleet typically carries a handful of distinct messages) and each
   group's Equation-1 update is applied as one fold over the columnar
   controller state instead of K object-graph walks.
2. *Bounds.*  Per-layer burst bounds come off the controller matrix via
   :func:`kernels.burst_bounds`; rows are grouped by their packed bound
   vector so ``plan_for`` / ``_schedule_for`` run once per distinct
   plan, not once per row.
3. *Classify.*  The fused tier's cohort split, unchanged: clean rows
   take the shared timeline and shared verdict, dirty rows defer to the
   columnar receiver, backlogged/anchor-retransmitting rows replay the
   scalar sender.  Timelines come from each row's own info and shed
   set, as in the fused tier.
4. *Columnar receiver.*  Each dirty cohort's loss flags form a
   ``[D, span]`` bool matrix: per-attempt lost counts, on-time
   deliveries, received bitmasks, decodability against the shape's
   need-masks, CLF and per-layer burst scans all run as matrix kernels;
   only the final per-row ``WindowResult`` materialization is Python.
5. *Scalar tail.*  Rows the fused tier would also have run scalar go
   through the identical ``run_row_sender`` / ``_receive_and_ack`` path,
   with their own info and shed set.

Columnar controller state
-------------------------
While the native tier steps a row, its Equation-1 estimators live in
``row.native_ctl = (cols, vals)``: ``cols`` is the shape's layer-index
tuple (identity-compared), ``vals`` a flat float64 list of
``(present, window, estimate, observations)`` per layer.  The
controller objects remain reachable — ``AdaptiveController._sync`` is
pointed at a write-back callback (holding the row weakly, so no
reference cycle forms), so any external read (the scenario
harness's b-hat series, the serve shed policy, a tier switch mid-run)
dissolves the columns back into objects first.  The Gilbert-fit
estimator and the feedback collector stay object-resident: both are
read directly by serve-side policies mid-window.

Downgrades
----------
Without NumPy (pure accel backend) or with windows wider than 63 frames
(the received-bitmask word) the step falls back to ``_step_fused``
wholesale; without numba the array program still runs on the NumPy
twins.  Either downgrade bumps ``kernel.native.fallback`` and warns
once per process per reason.
"""

from __future__ import annotations

import warnings
import weakref
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised via the backend matrix in CI
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from repro import accel, obs
from repro.core import kernel as K
from repro.core.adaptation import LossEstimator
from repro.core.protocol import WindowResult
from repro.network.feedback import Feedback

from repro.core.native import kernels

#: Feedback groups at least this large fold through the matrix kernel;
#: smaller groups fold in plain Python (same float ops, less gather).
_FOLD_MATRIX_MIN = 48

_warned: set = set()


def _downgrade(reason: str, detail: str) -> None:
    """Record one native-tier downgrade: counter always, warning once."""
    if obs.enabled():
        obs.counter("kernel.native.fallback").inc()
    if reason not in _warned:
        _warned.add(reason)
        warnings.warn(
            f"native kernel tier degraded ({reason}): {detail}",
            RuntimeWarning,
            stacklevel=3,
        )


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
    """``AdaptiveController._sync`` callback of one natively-owned row.

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

    __slots__ = ("cols", "colpos", "bounds_layers", "need_masks", "need_masks_i8")

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
        # The compiled receiver scan works in int64 (bits 0..62 only:
        # wider windows fall back to the fused tier before we get here).
        self.need_masks_i8 = np.array(shape.need_masks, dtype=np.int64)


class _SchedNative:
    """Timeline-level arrays of one ``_Schedule`` (plan x window).

    The per-attempt facts the fused tier keeps as tuples — frame
    offsets, pack boundaries, arrival times, on-time verdicts — as
    vectors, plus the uint64 received-bit per attempt and the per-layer
    transmission sequences as shift vectors.
    """

    __slots__ = (
        "reduce_idx",
        "offsets",
        "arrivals",
        "bits",
        "ontime",
        "late_mask",
        "anchor_cols",
        "layer_seqs",
        "layer_indices",
        "seq_matrix",
        "seq_lens",
    )

    def __init__(self, sched, info, sequences, rtt_half, slot_times) -> None:
        attempts = sched.attempts
        count = len(attempts)
        offsets = [attempt[0] for attempt in attempts]
        self.reduce_idx = np.array(
            [attempt[2] for attempt in attempts], dtype=np.int64
        )
        self.offsets = np.array(offsets, dtype=np.int64)
        arrivals = [completed + rtt_half for _, completed, _, _ in attempts]
        self.arrivals = np.array(arrivals, dtype=np.float64)
        self.ontime = np.array(
            [arrivals[k] <= slot_times[offsets[k]] for k in range(count)],
            dtype=np.bool_,
        )
        self.late_mask = ~self.ontime
        self.bits = np.uint64(1) << self.offsets.astype(np.uint64)
        anchors = info.anchors
        anchor_cols = [k for k, offset in enumerate(offsets) if offset in anchors]
        self.anchor_cols = (
            np.array(anchor_cols, dtype=np.int64) if anchor_cols else None
        )
        self.layer_indices = tuple(
            layer.index for layer in info.shape.transmission.layers
        )
        self.layer_seqs = [
            np.array(sequence, dtype=np.uint64) for sequence in sequences
        ]
        # The same sequences padded rectangular for the compiled
        # receiver scan (rows read only up to their ``seq_lens`` entry).
        self.seq_lens = np.array(
            [len(sequence) for sequence in sequences], dtype=np.int64
        )
        width = int(self.seq_lens.max()) if len(sequences) else 0
        self.seq_matrix = np.zeros(
            (len(sequences), max(width, 1)), dtype=np.int64
        )
        for q, sequence in enumerate(sequences):
            self.seq_matrix[q, : len(sequence)] = sequence


def _sched_native(sched, info, sequences, rtt_half, slot_times) -> _SchedNative:
    native = sched.native
    if native is None:
        native = _SchedNative(sched, info, sequences, rtt_half, slot_times)
        sched.native = native
    return native


# ----------------------------------------------------------------------
# Bulk loss-flag prefetch (MT19937 state transplant)
# ----------------------------------------------------------------------


def _prefetch_native(rows, needed: int, config) -> None:
    """``plan_refills`` + ``prefetch_flags`` with draw *and* scan compiled.

    On the JIT rung each row's forward stream runs inside
    :func:`kernels.mt_gilbert_fill`: CPython's ``random.Random`` is a
    plain MT19937 with the 53-bit double recipe, so its 625-word
    ``getstate`` tuple transplants losslessly into an int64 key/pos
    array pair (``row.native_rng``) that the compiled kernel advances —
    uniform draw and Gilbert transition fused per packet, no Python
    floats ever materialized.  ``kernel.writeback_native_rng`` restores
    ``fwd_rng`` via ``setstate`` whenever a scalar path (a mid-window
    refill, a tier switch) needs the object stream back.

    Without numba the per-packet generator loop would run interpreted —
    slower than the object streams — so the twin rung simply delegates
    to the fused tier's :func:`kernel.prefetch_flags`.
    """
    if kernels.mt_gilbert_fill is None:
        K.prefetch_flags(
            K.plan_refills(rows, needed),
            config.p_good,
            config.p_bad,
            phases=config.channel_phases,
        )
        return
    # Inline ``plan_refills`` so compaction carries the NumPy flag
    # mirror (``row.native_flags``) along instead of invalidating it.
    entries: List[tuple] = []
    for row in rows:
        pos = row.pos
        if pos:
            before = len(row.flags)
            del row.flags[:pos]
            row.pos = 0
            mirror = row.native_flags
            if mirror is not None:
                row.native_flags = (
                    mirror[pos:] if mirror.shape[0] == before else None
                )
        missing = needed - len(row.flags)
        if missing > 0:
            entries.append((row, missing))
    if not entries:
        return
    chunk = max(
        max(missing, K.prefetch_windows(row) * needed) for row, missing in entries
    )
    count = len(entries)
    keys = np.empty((count, 624), dtype=np.int64)
    poss = np.empty(count, dtype=np.int64)
    bads = np.empty(count, dtype=np.int64)
    for i, (row, _) in enumerate(entries):
        native = row.native_rng
        if native is not None and native[2] == row.fwd_drawn:
            keys[i] = native[0]
            poss[i] = native[1]
        else:
            _, py_state, _ = row.fwd_rng.getstate()
            keys[i] = py_state[:624]
            poss[i] = py_state[624]
        bads[i] = 1 if row.fwd_bad else 0
    flags = np.empty((count, chunk), dtype=np.bool_)
    phases = config.channel_phases
    if phases is None:
        kernels.mt_gilbert_fill(
            keys, poss, bads, config.p_good, config.p_bad, flags
        )
    else:
        # Rows at different absolute draw positions see different phase
        # cuts; each cohort replays its own segment sequence with the
        # key/pos/bad state carried across the cuts in place.
        cohorts: Dict[int, List[int]] = {}
        for i, (row, _) in enumerate(entries):
            cohorts.setdefault(row.fwd_drawn, []).append(i)
        for start, members in cohorts.items():
            idx = np.asarray(members, dtype=np.int64)
            ck, cp, cb = keys[idx], poss[idx], bads[idx]
            offset = 0
            for take, seg_good, seg_bad in K.phase_segments(
                phases, start, chunk
            ):
                segment = np.empty((len(members), take), dtype=np.bool_)
                kernels.mt_gilbert_fill(
                    ck, cp, cb, seg_good, seg_bad, segment
                )
                flags[idx, offset : offset + take] = segment
                offset += take
            keys[idx], poss[idx], bads[idx] = ck, cp, cb
    for i, (row, _) in enumerate(entries):
        fresh = flags[i]
        before = len(row.flags)
        row.flags.extend(fresh.tolist())
        mirror = row.native_flags
        if mirror is not None and mirror.shape[0] == before:
            row.native_flags = np.concatenate((mirror, fresh))
        elif before == 0:
            row.native_flags = fresh.copy()
        else:
            row.native_flags = np.array(row.flags, dtype=np.bool_)
        row.fwd_bad = bool(bads[i])
        row.fwd_drawn += chunk
        row.native_rng = (keys[i], int(poss[i]), row.fwd_drawn)


# ----------------------------------------------------------------------
# The step
# ----------------------------------------------------------------------


def step_native(
    rows, info, config, fps, window_index, control_serialization, shed_for
) -> None:
    if np is None or accel.backend_name() != "numpy":
        _downgrade(
            "pure-backend",
            "the native tier needs the NumPy accel backend; "
            "running the fused tier instead",
        )
        K._step_fused(
            rows, info, config, fps, window_index, control_serialization, shed_for
        )
        return
    if info.n > 63:
        _downgrade(
            "wide-window",
            f"window of {info.n} frames exceeds the 63-bit received mask; "
            "running the fused tier instead",
        )
        K._step_fused(
            rows, info, config, fps, window_index, control_serialization, shed_for
        )
        return
    if not kernels.numba_available():
        _downgrade(
            "no-numba",
            f"{kernels.jit_status()}; running the NumPy twin kernels",
        )

    n = info.n
    cycle = info.cycle
    window_start = window_index * cycle
    window_end = window_start + cycle
    playback_start = window_end + config.rtt / 2.0
    slot_times = [playback_start + offset / fps for offset in range(n)]
    rtt_half = config.rtt / 2.0
    retransmit = config.retransmit_anchors
    scramble = config.scramble
    shape = info.shape
    track = obs.enabled()
    alpha = config.alpha

    _prefetch_native(rows, info.first_attempt_packets + K.PREFETCH_SLACK, config)

    shn = shape.native
    if shn is None:
        shn = _ShapeNative(shape)
        shape.native = shn
    cols = shn.cols

    # ------------------------------------------------------------------
    # Phase 1: drain arrived ACKs, folding per distinct Feedback message
    # ------------------------------------------------------------------
    # The steady state carries one or two in-flight ACKs per row, and
    # clean cohorts share the immutable messages — so rows group by
    # their arrived-feedback identity tuple (in arrival order, exactly
    # the order ``drain_acks`` would apply) and each distinct message
    # folds once per group instead of once per row.
    # Messages group by VALUE identity: the sequence/window pair plus
    # the identities of the shared burst-estimate dict and statistics
    # tuple (the native receiver interns both per distinct loss
    # pattern, and the scalar paths build fresh objects, so equal keys
    # imply equal messages).  Value-equal ACKs from different rows then
    # fold as one group exactly like a clean cohort's shared message.
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
        idx = np.arange(len(fresh_ctls), dtype=np.int64)
        for base, layer_size, clamped in ops:
            kernels.ewma_fold_indexed(
                matrix, idx, base, layer_size, clamped, alpha
            )
        for vals, folded in zip(fresh_ctls, matrix.tolist()):
            vals[:] = folded

    if track:
        if stale_count:
            obs.counter("protocol.acks_stale").inc(stale_count)
        if used_count:
            obs.counter("protocol.acks_used").inc(used_count)

    # ------------------------------------------------------------------
    # Phase 2: burst bounds and plan assets, grouped by bound vector
    # ------------------------------------------------------------------
    # Assets are (plan, sequences, unshed schedule); the schedule is
    # timed by the row's own info, so caches key on (bounds, info).
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
    elif config.burst_policy == "quantile":
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
    else:
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
                packed: Optional[object] = np.zeros(
                    len(ctl_rows), dtype=np.int64
                )
                # 6 bits per layer (bounds <= window <= 63); beyond 10
                # layers fall back to tuple keys.
                pack_keys = len(shn.bounds_layers) * 6 <= 62
                for column, _, size, default in shn.bounds_layers:
                    base = 4 * column
                    out = np.empty(len(ctl_rows), dtype=np.int64)
                    kernels.burst_bounds(
                        matrix[:, base],
                        matrix[:, base + 1],
                        matrix[:, base + 2],
                        matrix[:, base + 3],
                        size,
                        default,
                        out,
                    )
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

    # ------------------------------------------------------------------
    # Phase 3: classify rows — clean (shared verdict) / dirty / scalar
    # ------------------------------------------------------------------
    cs_fixed = (
        None if callable(control_serialization) else control_serialization
    )
    no_shed = frozenset()
    all_results: List[WindowResult] = [] if track else None
    full_collapse = 0
    packets_total = 0
    losses_total = 0
    scalar_pending: List[tuple] = []
    dirty: Dict[int, tuple] = {}

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
            if len(flags) - pos >= span:
                if True not in flags[pos : pos + span]:
                    # Clean: identical to the fused tier's full collapse.
                    full_collapse += 1
                    row.pos = pos + span
                    if sched.attempts:
                        row.fwd_busy = sched.final_busy
                    row.result.packets_offered += span
                    packets_total += span
                    verdict = sched.clean
                    if verdict is None:
                        verdict = K._CleanVerdict(
                            sched, info, sequences, rtt_half, slot_times
                        )
                        sched.clean = verdict
                    template = verdict.result_dict
                    if template is None:
                        result = WindowResult(
                            index=window_index,
                            frames=n,
                            transmission_order=plan.order,
                            layer_sizes=sched.layer_sizes,
                        )
                        result.sent = sched.sent_count
                        result.dropped_at_sender = sched.dropped
                        result.shed = sched.shed
                        result.received = verdict.received
                        result.playback_start = playback_start
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
                    feedback = verdict.ack_feedback
                    if feedback is None or feedback.sequence != row.ack_seq:
                        feedback = Feedback(
                            sequence=row.ack_seq,
                            window_index=window_index,
                            burst_estimates=verdict.layer_bursts,
                            loss_rates=verdict.ack_loss_rates,
                            loss_statistics=verdict.ack_stats,
                        )
                        verdict.ack_feedback = feedback
                    K.send_ack(
                        row,
                        config,
                        window_index,
                        window_end,
                        result,
                        control_serialization(row)
                        if cs_fixed is None
                        else cs_fixed,
                        feedback=feedback,
                    )
                    row.result.windows.append(result)
                    row.result.series.add_clf(result.clf, result.alf)
                    if track:
                        all_results.append(result)
                    continue
                entry = dirty.get(id(sched))
                if entry is None:
                    dirty[id(sched)] = entry = (plan, sequences, sched, shed, [])
                entry[4].append(row)
                continue
        scalar_pending.append((row, plan, sequences, shed))

    # ------------------------------------------------------------------
    # Phase 4: columnar receiver for the dirty cohorts
    # ------------------------------------------------------------------
    timeline_collapse = 0
    for plan, sequences, sched, shed, group_rows in dirty.values():
        native = _sched_native(sched, info, sequences, rtt_half, slot_times)
        span = sched.span
        d = len(group_rows)
        if kernels.mt_gilbert_fill is None:
            # Twin rung: no mirrors (prefetch ran through the object
            # streams), so one bulk list-of-lists conversion wins.
            flag_matrix = np.array(
                [row.flags[row.pos : row.pos + span] for row in group_rows],
                dtype=np.bool_,
            )
        else:
            flag_matrix = np.empty((d, span), dtype=np.bool_)
            for i, row in enumerate(group_rows):
                pos = row.pos
                mirror = row.native_flags
                if mirror is not None and mirror.shape[0] == len(row.flags):
                    flag_matrix[i] = mirror[pos : pos + span]
                else:
                    flag_matrix[i] = row.flags[pos : pos + span]
        attempts = native.reduce_idx.shape[0]
        if kernels.receiver_scan is not None:
            # JIT rung: the whole receiver phase in one compiled pass.
            received = np.empty((d, attempts), dtype=np.bool_)
            not_decodable = np.empty((d, n), dtype=np.bool_)
            frame_lost = np.empty((d, attempts), dtype=np.bool_)
            lost_totals = np.empty(d, dtype=np.int64)
            lost_frames = np.empty(d, dtype=np.int64)
            runs = np.empty(d, dtype=np.int64)
            late = np.empty(d, dtype=np.int64)
            unit_losses = np.empty(d, dtype=np.int64)
            clfs = np.empty(d, dtype=np.int64)
            bursts_mat = np.empty(
                (len(native.layer_indices), d), dtype=np.int64
            )
            kernels.receiver_scan(
                flag_matrix,
                native.reduce_idx,
                native.offsets,
                native.ontime,
                shn.need_masks_i8,
                native.seq_matrix,
                native.seq_lens,
                received,
                not_decodable,
                frame_lost,
                lost_totals,
                lost_frames,
                runs,
                late,
                unit_losses,
                clfs,
                bursts_mat,
            )
            lost_frames_list = lost_frames.tolist()
            lost_totals_list = lost_totals.tolist()
            runs_list = runs.tolist()
            late_list = late.tolist()
            unit_list = unit_losses.tolist()
            clf_list = clfs.tolist()
            burst_lists = bursts_mat.tolist()
        else:
            # Twin rung: the same receiver as matrix ops.
            lost = kernels.attempt_losses(flag_matrix, native.reduce_idx)
            frame_lost = lost > 0
            delivered = ~frame_lost
            received = delivered & native.ontime
            mask_vec = np.bitwise_or.reduce(
                np.where(received, native.bits, np.uint64(0)), axis=1
            )
            late = (delivered & native.late_mask).sum(axis=1)
            not_decodable = (
                shn.need_masks[None, :] & np.bitwise_not(mask_vec)[:, None]
            ) != 0
            unit_losses = not_decodable.sum(axis=1)
            clfs = kernels.worst_runs(not_decodable)
            layer_bursts = [
                kernels.worst_runs(
                    ((mask_vec[:, None] >> sequence[None, :]) & np.uint64(1))
                    == np.uint64(0)
                )
                for sequence in native.layer_seqs
            ]
            if frame_lost.shape[1] > 1:
                runs = frame_lost[:, 0].astype(np.int64) + (
                    frame_lost[:, 1:] & ~frame_lost[:, :-1]
                ).sum(axis=1)
            else:
                runs = frame_lost[:, 0].astype(np.int64)
            lost_frames_list = frame_lost.sum(axis=1).tolist()
            lost_totals_list = lost.sum(axis=1).tolist()
            runs_list = runs.tolist()
            late_list = late.tolist()
            unit_list = unit_losses.tolist()
            clf_list = clfs.tolist()
            burst_lists = [bursts.tolist() for bursts in layer_bursts]
        # A lost anchor means data-dependent retransmission timing: the
        # fused tier runs these scalar, so do we.  The receiver outputs
        # cover every row, so kept rows keep their original positions
        # into the result arrays and nothing is refiltered.
        positions = range(d)
        if retransmit and native.anchor_cols is not None:
            anchor_bad = frame_lost[:, native.anchor_cols].any(axis=1)
            if anchor_bad.any():
                kept_rows = []
                kept_positions = []
                for i, (row, bad) in enumerate(
                    zip(group_rows, anchor_bad.tolist())
                ):
                    if bad:
                        scalar_pending.append((row, plan, sequences, shed))
                    else:
                        kept_rows.append(row)
                        kept_positions.append(i)
                if not kept_rows:
                    continue
                group_rows = kept_rows
                positions = kept_positions
        timeline_collapse += len(group_rows)
        layer_indices = native.layer_indices
        # Every per-row result field is a pure function of the row's
        # frame-loss pattern (which attempts lost a packet), so rows
        # with equal patterns share one fully-populated field template,
        # one bursts/rates dict pair and one stats tuple — the clean
        # branch's sharing, extended to repeated dirty outcomes.
        pattern_blob = frame_lost.tobytes()
        pattern_cache: Dict[bytes, tuple] = {}
        # One nonzero over the whole cohort replaces a per-row mask
        # select: the flat hit lists split into per-row runs below.
        hit_rows, hit_cols = np.nonzero(received)
        hit_bounds = np.searchsorted(
            hit_rows, np.arange(received.shape[0] + 1)
        ).tolist()
        hit_offsets = native.offsets[hit_cols].tolist()
        hit_arrivals = native.arrivals[hit_cols].tolist()
        dec_rows, dec_cols = np.nonzero(~not_decodable)
        dec_bounds = np.searchsorted(
            dec_rows, np.arange(not_decodable.shape[0] + 1)
        ).tolist()
        dec_frames = dec_cols.tolist()
        sent_count = sched.sent_count
        final_busy = sched.final_busy
        frames_max = max(1, n)
        # Cohort-constant result fields, stamped per row via __dict__
        # (the clean branch's template trick: the dataclass constructor
        # is the dominant per-row cost at scale).
        base = WindowResult(
            index=window_index,
            frames=n,
            transmission_order=plan.order,
            layer_sizes=sched.layer_sizes,
        )
        base.sent = sent_count
        base.dropped_at_sender = sched.dropped
        base.shed = sched.shed
        base.playback_start = playback_start
        template = base.__dict__
        acks_sent = 0
        acks_lost = 0
        # Rows with equal burst vectors share one bursts / loss-rates
        # dict pair (the fused clean path already shares these across a
        # whole cohort; consumers never mutate them).
        burst_cache: Dict[tuple, tuple] = {}
        for position, row in zip(positions, group_rows):
            offset = position * attempts
            pattern = pattern_blob[offset : offset + attempts]
            cached = pattern_cache.get(pattern)
            if cached is None:
                pfields = dict(template)
                lost_frames = lost_frames_list[position]
                pfields["lost_in_network"] = lost_frames
                lo, hi = hit_bounds[position], hit_bounds[position + 1]
                arrival_times = dict(
                    zip(hit_offsets[lo:hi], hit_arrivals[lo:hi])
                )
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
                pattern_cache[pattern] = cached = (
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
            row.pos += span
            row.fwd_busy = final_busy
            session = row.result
            session.packets_offered += span
            lost_total = lost_totals_list[position]
            session.packets_lost += lost_total
            packets_total += span
            losses_total += lost_total
            # Inlined send_ack: same message, same feedback-channel
            # draw, with the obs counters batched per cohort.  The
            # message fields are valid by construction, so the frozen
            # dataclass ceremony (__setattr__ + validation) is skipped.
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
                if config.channel_phases is None:
                    fb_good, fb_bad_p = config.p_good, config.p_bad
                else:
                    fb_good, fb_bad_p = K.phase_params_at(
                        config.channel_phases, row.fb_drawn
                    )
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

    if track and (packets_total or losses_total):
        obs.counter("channel.packets").inc(packets_total)
        obs.counter("channel.losses").inc(losses_total)

    # ------------------------------------------------------------------
    # Phase 5: scalar tail (backlog, lost anchors, short buffers)
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
        obs.counter("kernel.collapse.timeline").inc(timeline_collapse)
        obs.counter("kernel.collapse.scalar").inc(len(scalar_pending))
        K._observe_window(all_results, len(rows))
