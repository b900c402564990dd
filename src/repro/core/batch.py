"""Batched Monte-Carlo session engine: R replications per pass.

The paper's headline numbers (Figure 8, the robustness sweeps) are
Monte-Carlo estimates over many independent channel realizations.
:func:`repro.core.protocol.run_session` simulates one realization at a
time, paying the full per-packet object churn (packets, transmissions,
channel bookkeeping) for every seed.  This module simulates ``R``
replications of the *same* stream and configuration simultaneously,
window-synchronously, by stepping a fleet of
:class:`repro.core.kernel.SessionRow` cells through
:func:`repro.core.kernel.step_window` — the columnar window-step
kernel shared with the serving fast path:

* the Gilbert loss flags of all replications are prefetched in
  ``(R x packets)`` blocks through one
  :func:`repro.accel.gilbert_states_batch` call per window (vectorized
  over replications under the NumPy backend);
* schedulers, window packetization (fragment counts and serialization
  times), dependency bitmasks and permutation plans are computed once
  and shared by every replication — a plan is keyed by its burst bounds,
  so replications whose feedback agrees reuse the same permutation;
* per-window CLF and per-layer bursts of all ``R`` rows come from the
  stacked :func:`repro.accel.batch_worst_clf` kernel;
* under the kernel's fused tier, rows whose window sees no loss (or no
  lost anchor) collapse onto a shared first-attempt timeline instead of
  replaying the scalar sender loop.

The control flow that *depends* on each replication's losses
(retransmission budgets, Equation-1 feedback folding, ACK fates) is
replayed per row with exactly the float-operation sequence of the
sequential engine, so :func:`run_sessions_batch` is pinned bit-for-bit
against ``R`` sequential :class:`~repro.core.protocol.ProtocolSession`
runs on identical seeds — same
:class:`~repro.core.protocol.SessionResult` dataclasses, same floats,
on either accel backend and either kernel tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import kernel
from repro.core.kernel import (
    CONTROL_PACKET_BYTES as _CONTROL_PACKET_BYTES,
    FEEDBACK_SEED_OFFSET as _FEEDBACK_SEED_OFFSET,
    PREFETCH_SLACK as _PREFETCH_SLACK,
    PREFETCH_WINDOWS as _PREFETCH_WINDOWS,
    RowWindow as _RowWindow,
    SessionRow as _Row,
    WindowInfo as _WindowInfo,
    WindowShape as _Shape,
    drain_acks as _drain_acks,
    loss_run_count as _loss_run_count,
    row_bounds as _row_bounds,
    run_row_sender as _run_row_sender,
    send_ack as _send_ack,
)
from repro.core.protocol import ProtocolConfig, SessionResult
from repro.errors import ProtocolError
from repro.media.stream import MediaStream
from repro.metrics.windows import (
    SeriesSummary,
    mean_confidence_interval,
    summarize,
)

__all__ = [
    "ReplicationSummary",
    "run_sessions_batch",
    "summarize_replications",
]

# Backward-compatible aliases: the engine internals now live in
# repro.core.kernel under public names.  Kept so downstream code (and
# the serve fast path's older imports) that reached for the underscore
# names keeps working.
_ = (
    _CONTROL_PACKET_BYTES,
    _FEEDBACK_SEED_OFFSET,
    _PREFETCH_SLACK,
    _PREFETCH_WINDOWS,
    _Row,
    _RowWindow,
    _Shape,
    _WindowInfo,
    _drain_acks,
    _loss_run_count,
    _row_bounds,
    _run_row_sender,
    _send_ack,
)
del _


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def run_sessions_batch(
    stream: MediaStream,
    config: Optional[ProtocolConfig] = None,
    *,
    seeds: Sequence[int],
    max_windows: Optional[int] = None,
) -> List[SessionResult]:
    """Simulate one session per seed, all replications in lockstep.

    Returns exactly ``[ProtocolSession(stream, replace(config, seed=s))
    .run(max_windows=max_windows) for s in seeds]`` — the same
    :class:`~repro.core.protocol.SessionResult` values bit for bit — but
    shares every replication-independent computation across rows and
    batches the channel sampling and continuity kernels, which is where
    the Monte-Carlo sweeps spend their time.
    """
    config = config or ProtocolConfig()
    if len(stream) == 0:
        raise ProtocolError("cannot stream an empty stream")
    seed_list = list(seeds)
    if not seed_list:
        return []
    windows = list(stream.windows(config.window_frames))
    if max_windows is not None:
        windows = windows[:max_windows]

    shapes: Dict[tuple, object] = {}
    infos = [_WindowInfo(window, config, stream.fps, shapes) for window in windows]
    rows = [_Row(config, seed, horizon=len(infos)) for seed in seed_list]
    control_serialization = _CONTROL_PACKET_BYTES * 8.0 / config.bandwidth_bps

    track = obs.enabled()
    if track:
        obs.counter("batch.sweeps").inc()
        obs.counter("batch.replications").inc(len(rows))

    for window_index, info in enumerate(infos):
        kernel.step_window(
            rows,
            info,
            config,
            stream.fps,
            window_index,
            control_serialization=control_serialization,
        )
        if track:
            obs.counter("batch.windows").inc()

    if track:
        streamed = sum(info.n for info in infos) / stream.fps
        obs.counter("protocol.virtual_seconds").inc(streamed * len(rows))
    return [row.result for row in rows]


@dataclass(frozen=True)
class ReplicationSummary:
    """Across-replication statistics of a Monte-Carlo session sweep.

    Each member summary treats one per-session statistic (its mean
    window CLF, its mean window ALF, its whole-stream CLF) as a sample
    of size ``replications``; the ``*_ci`` intervals are the normal
    95% confidence intervals for the corresponding means.
    """

    replications: int
    mean_clf: SeriesSummary
    mean_alf: SeriesSummary
    stream_clf: SeriesSummary
    mean_clf_ci: Tuple[float, float]
    mean_alf_ci: Tuple[float, float]
    stream_clf_ci: Tuple[float, float]

    def describe(self) -> str:
        low, high = self.mean_clf_ci
        return (
            f"{self.replications} replications: mean CLF "
            f"{self.mean_clf.mean:.3f} (95% CI {low:.3f}..{high:.3f}), "
            f"stream CLF {self.stream_clf.mean:.2f}"
        )


def summarize_replications(results: Sequence[SessionResult]) -> ReplicationSummary:
    """Mean/std/CI aggregation over a collection of session results.

    Raises :class:`~repro.errors.ConfigurationError` when ``results`` is
    empty (there is nothing to summarize).
    """
    mean_clfs = [result.mean_clf for result in results]
    mean_alfs = [result.series.alf_summary.mean for result in results]
    stream_clfs = [float(result.stream_clf) for result in results]
    return ReplicationSummary(
        replications=len(results),
        mean_clf=summarize(mean_clfs),
        mean_alf=summarize(mean_alfs),
        stream_clf=summarize(stream_clfs),
        mean_clf_ci=mean_confidence_interval(mean_clfs),
        mean_alf_ci=mean_confidence_interval(mean_alfs),
        stream_clf_ci=mean_confidence_interval(stream_clfs),
    )
