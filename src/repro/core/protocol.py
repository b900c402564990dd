"""The adaptive error-spreading transmission protocol — Section 4.

One :func:`run_session` simulates a complete client/server streaming
session over the UDP-like simulated channel:

* the stream is divided into sender-buffer windows of ``W`` GOPs;
* each window is decomposed into antichain layers (Figure 3) and
  transmitted layer by layer, critical (anchor) layers first, each layer
  internally scrambled by ``calculatePermutation``;
* lost critical frames are retransmitted while the cycle's transmission
  budget allows (one NACK round-trip after the original send);
* the client measures, per layer, the worst burst of consecutively-lost
  frames and returns it in a sequence-numbered UDP ACK once per window;
* the server folds feedback into per-layer exponential-average estimates
  (Equation 1, alpha = 0.5) and recomputes the non-critical permutations
  for the next window;
* stale (out-of-order) ACKs are ignored; lost ACKs simply contribute
  nothing.

Setting ``layered=False, scramble=False`` turns the engine into the
paper's baseline ("the usual MPEG transmission model"), which differs
*only* in the frame order within each window — the channel realization,
budget and retransmission policy stay identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.adaptation import DEFAULT_ALPHA, AdaptiveController
from repro.core.cpo import EFFORT_FAST
from repro.core.layered import LayeredPlan, LayeredScheduler
from repro.errors import ConfigurationError, ProtocolError
from repro.media.ldu import FrameType, Ldu
from repro.media.stream import MediaStream
from repro.metrics.continuity import ContinuityReport, consecutive_loss
from repro.metrics.windows import WindowSeries
from repro.network.channel import make_duplex
from repro.network.markov import GilbertPhase
from repro.network.feedback import Feedback, FeedbackCollector
from repro.network.packet import Packetizer
from repro.poset.builders import ldu_poset


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of one streaming session (defaults = the paper's Figure 8)."""

    gops_per_window: int = 2
    gop_size: int = 12
    bandwidth_bps: float = 1_200_000.0
    rtt: float = 0.023
    packet_size_bytes: int = 16384
    p_good: float = 0.92
    p_bad: float = 0.6
    alpha: float = DEFAULT_ALPHA
    layered: bool = True
    scramble: bool = True
    retransmit_anchors: bool = True
    lossy_feedback: bool = True
    closed_gops: bool = False
    effort: str = EFFORT_FAST
    #: "equation1" = the paper's exponential averaging of the observed
    #: worst burst; "quantile" = fit the Gilbert parameters from the
    #: feedback statistics and design for the epsilon-quantile run.
    burst_policy: str = "equation1"
    quantile_epsilon: float = 0.05
    #: Optional non-stationary channel: a tuple of
    #: :class:`~repro.network.markov.GilbertPhase` walked packet by
    #: packet (the final phase repeats forever).  When set, ``p_good``/
    #: ``p_bad`` are ignored by every engine; a single-phase schedule
    #: with matching parameters reproduces the stationary path bit for
    #: bit.  Kept as a tuple so the config stays hashable (the serving
    #: fast path groups sessions by config value).
    channel_phases: Optional[Tuple[GilbertPhase, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gops_per_window <= 0:
            raise ConfigurationError("gops_per_window must be positive")
        if self.gop_size <= 0:
            raise ConfigurationError("gop_size must be positive")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.rtt < 0:
            raise ConfigurationError("rtt must be non-negative")
        if self.packet_size_bytes <= 0:
            raise ConfigurationError("packet size must be positive")
        if self.burst_policy not in ("equation1", "quantile"):
            raise ConfigurationError(
                f"unknown burst policy {self.burst_policy!r}"
            )
        if not 0.0 < self.quantile_epsilon < 1.0:
            raise ConfigurationError("quantile_epsilon must be within (0, 1)")
        if self.channel_phases is not None:
            phases = tuple(self.channel_phases)
            if not phases:
                raise ConfigurationError("channel_phases must not be empty")
            for phase in phases:
                if not isinstance(phase, GilbertPhase):
                    raise ConfigurationError(
                        "channel_phases entries must be GilbertPhase, "
                        f"got {type(phase).__name__}"
                    )
            object.__setattr__(self, "channel_phases", phases)

    @property
    def window_frames(self) -> int:
        """LDUs per buffer window: N = W x GOP."""
        return self.gops_per_window * self.gop_size

    def reseeded(self, seed: int) -> "ProtocolConfig":
        """This config under another ``seed``.

        The fields were validated when this config was built, so the
        copy skips ``__init__``/``__post_init__`` (``replace`` would
        re-run both); equality and hash still read the dataclass fields.
        """
        clone = object.__new__(ProtocolConfig)
        state = clone.__dict__
        state.update(self.__dict__)
        state["seed"] = seed
        return clone

    @property
    def family(self) -> tuple:
        """Every field but ``seed``: configs that differ only in seed share it.

        Computed once per config and carried by :meth:`reseeded` copies.
        """
        family = self.__dict__.get("_family")
        if family is None:
            family = tuple(
                getattr(self, name) for name in _CONFIG_FIELDS if name != "seed"
            )
            self.__dict__["_family"] = family
        return family


_CONFIG_FIELDS = tuple(spec.name for spec in fields(ProtocolConfig))


@dataclass
class WindowResult:
    """Everything measured about one buffer window."""

    index: int
    frames: int
    transmission_order: Tuple[int, ...]
    sent: int = 0
    dropped_at_sender: int = 0
    #: Frames proactively dropped by a load-shedding policy (a subset of
    #: ``dropped_at_sender``); always 0 for plain sessions.
    shed: int = 0
    lost_in_network: int = 0
    retransmissions: int = 0
    recovered: int = 0
    late: int = 0
    received: Set[int] = field(default_factory=set)
    decodable: Set[int] = field(default_factory=set)
    layer_bursts: Dict[int, int] = field(default_factory=dict)
    layer_sizes: Dict[int, int] = field(default_factory=dict)
    arrival_times: Dict[int, float] = field(default_factory=dict)
    playback_start: float = 0.0
    #: (lost, runs, total) over first-attempt transmissions — the
    #: channel's sufficient statistics, echoed back in the window's ACK.
    first_attempt_stats: Tuple[int, int, int] = (0, 0, 0)
    clf: int = 0
    unit_losses: int = 0
    ack_delivered: bool = True

    @property
    def alf(self) -> float:
        return self.unit_losses / self.frames if self.frames else 0.0

    def arrival_timeline(self, fps: float):
        """The window's data-availability timeline for rate/drift metrics.

        Entry ``i`` is when frame ``i``'s data became available at the
        client (``None`` for frames that never became decodable).  Feed
        it to :func:`repro.metrics.rates.measure_drift` /
        :func:`~repro.metrics.rates.measure_rate`; negative drift (early
        arrival) is the buffer slack the start-up delay bought.
        """
        from repro.metrics.rates import AppearanceTimeline

        times = tuple(
            self.arrival_times.get(offset) if offset in self.decodable else None
            for offset in range(self.frames)
        )
        return AppearanceTimeline(
            appearance_times=times,
            fps=fps,
            start_time=self.playback_start,
        )


@dataclass
class SessionResult:
    """Outcome of a whole streaming session."""

    config: ProtocolConfig
    windows: List[WindowResult]
    series: WindowSeries
    acks_sent: int = 0
    acks_used: int = 0
    acks_lost: int = 0
    packets_offered: int = 0
    packets_lost: int = 0

    @property
    def mean_clf(self) -> float:
        return self.series.clf_summary.mean

    @property
    def clf_deviation(self) -> float:
        return self.series.clf_summary.deviation

    @property
    def overall_report(self) -> ContinuityReport:
        """Whole-stream continuity with window-straddling runs counted.

        Per-window CLF (the paper's Figure-8 metric) truncates loss runs
        at window boundaries; this report concatenates the per-window
        indicators so a burst covering the tail of one window and the
        head of the next is measured as one run.
        """
        indicator: List[int] = []
        for window in self.windows:
            indicator.extend(
                0 if offset in window.decodable else 1
                for offset in range(window.frames)
            )
        return ContinuityReport(
            slots=len(indicator),
            unit_losses=sum(indicator),
            clf=consecutive_loss(indicator),
        )

    @property
    def stream_clf(self) -> int:
        """Longest loss run over the whole stream (>= any window's CLF)."""
        return self.overall_report.clf

    def describe(self) -> str:
        s = self.series.clf_summary
        mode = "scrambled" if self.config.scramble else "in-order"
        return (
            f"{mode}: CLF mean {s.mean:.2f} dev {s.deviation:.2f} "
            f"over {len(self.windows)} windows"
        )


@dataclass
class _SentFrame:
    """Sender-side record of one frame's transmission within a window."""

    offset: int                # frame offset within the window
    ldu: Ldu
    completed_at: float        # when serialization finished
    delivered: bool            # all fragments arrived (this attempt)
    attempts: int = 1


class ProtocolSession:
    """Mutable engine running one stream through one configuration.

    Use :func:`run_session` unless you need step-by-step control.
    """

    def __init__(
        self,
        stream: MediaStream,
        config: ProtocolConfig,
        *,
        channels: Optional[Tuple[object, object]] = None,
    ) -> None:
        """``channels`` optionally injects a (forward, feedback) pair —
        any objects with the :class:`SimulatedChannel` send interface,
        e.g. :class:`repro.network.gateway.GatewayChannel` — replacing
        the default Gilbert-model duplex built from the config."""
        if len(stream) == 0:
            raise ProtocolError("cannot stream an empty stream")
        self.stream = stream
        self.config = config
        if channels is not None:
            self.forward, self.feedback_channel = channels
        else:
            self.forward, self.feedback_channel = make_duplex(
                config.bandwidth_bps,
                config.rtt,
                p_good=config.p_good,
                p_bad=config.p_bad,
                seed=config.seed,
                lossy_feedback=config.lossy_feedback,
                phases=config.channel_phases,
            )
        self.packetizer = Packetizer(config.packet_size_bytes)
        self.controller = AdaptiveController(alpha=config.alpha)
        from repro.network.estimation import GilbertEstimator

        self.channel_estimator = GilbertEstimator()
        self.collector = FeedbackCollector()
        self._schedulers: Dict[
            Tuple[int, Tuple[FrameType, ...]],
            Tuple[LayeredScheduler, LayeredScheduler],
        ] = {}
        self._ack_sequence = 0
        self._pending_acks: List[Tuple[float, Feedback]] = []
        self.result = SessionResult(
            config=config,
            windows=[],
            series=WindowSeries(label="scrambled" if config.scramble else "in-order"),
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _scheduler_for(self, window: Sequence[Ldu]) -> Tuple[LayeredScheduler, LayeredScheduler]:
        """(transmission scheduler, media scheduler) for a window.

        The transmission scheduler reflects the configured ordering mode
        (flat for the in-order baseline); the media scheduler always uses
        the true dependency poset, because decodability is a property of
        the encoding, not of the protocol under test.
        """
        types = tuple(ldu.frame_type for ldu in window)
        key = (len(window), types)
        cached = self._schedulers.get(key)
        if cached is None:
            media_poset = ldu_poset(window, closed_gops=self.config.closed_gops)
            media = LayeredScheduler(media_poset, effort=self.config.effort)
            if self.config.layered:
                transmission = media
            else:
                # Baseline: one flat layer, playback order.
                from repro.poset.builders import independent_poset

                transmission = LayeredScheduler(
                    independent_poset(len(window)), effort=self.config.effort
                )
            cached = (transmission, media)
            self._schedulers[key] = cached
        return cached

    def _plan_window(
        self, scheduler: LayeredScheduler, window_index: int
    ) -> LayeredPlan:
        bounds: Dict[int, int] = {}
        if self.config.scramble:
            quantile_bound: Optional[int] = None
            if self.config.burst_policy == "quantile":
                quantile_bound = self.channel_estimator.burst_quantile(
                    self.config.quantile_epsilon
                )
            for layer in scheduler.layers:
                if layer.critical or layer.size <= 1:
                    continue
                if quantile_bound is not None:
                    bounds[layer.index] = min(quantile_bound, layer.size)
                else:
                    bounds[layer.index] = self.controller.burst_bound(
                        layer.index, layer.size
                    )
        return scheduler.plan(bounds, scramble=self.config.scramble)

    def _shed_frames(
        self, window_index: int, window: Sequence[Ldu], plan: LayeredPlan
    ) -> frozenset:
        """Frame offsets to shed (drop at the sender) this window.

        The base engine never sheds — overloaded servers are the domain
        of :mod:`repro.serve`, whose sessions override this hook with a
        bandwidth-aware policy.  Shed frames count as
        ``dropped_at_sender`` (and ``shed``) and consume neither air
        time nor channel state, so an empty set leaves the session
        bit-for-bit identical to an engine without the hook.
        """
        return frozenset()

    # ------------------------------------------------------------------
    # One window
    # ------------------------------------------------------------------

    def run_window(self, window_index: int, window: Sequence[Ldu]) -> WindowResult:
        """Transmit, receive and measure one buffer window."""
        config = self.config
        n = len(window)
        cycle = n / self.stream.fps
        window_start = window_index * cycle
        window_end = window_start + cycle
        # Client playback of this window begins one cycle later (the
        # start-up delay of W GOPs) plus the propagation delay.
        playback_start = window_end + config.rtt / 2.0

        self._drain_acks(window_start)
        scheduler, media = self._scheduler_for(window)
        plan = self._plan_window(scheduler, window_index)
        result = WindowResult(
            index=window_index,
            frames=n,
            transmission_order=plan.order,
            layer_sizes={layer.index: layer.size for layer in plan.layers},
        )

        anchor_set = {
            offset for offset in range(n) if window[offset].frame_type.is_anchor
        }

        sent: Dict[int, _SentFrame] = {}
        retransmit_queue: List[_SentFrame] = []

        def link_free_at() -> float:
            # Frames of this window exist only from window_start onwards.
            return max(window_start, self.forward.busy_until)

        def budget_allows(ldu: Ldu, at: float) -> bool:
            serialization = (ldu.size_bytes * 8.0) / config.bandwidth_bps
            return max(at, link_free_at()) + serialization <= window_end

        def offer(offset: int, *, is_retransmission: bool, at: Optional[float] = None) -> _SentFrame:
            ldu = window[offset]
            packets = self.packetizer.packetize(
                ldu,
                window_index=window_index,
                is_retransmission=is_retransmission,
            )
            start = link_free_at() if at is None else max(at, link_free_at())
            transmissions = self.forward.send_all(packets, start)
            self.result.packets_offered += len(transmissions)
            lost = sum(1 for t in transmissions if t.lost)
            self.result.packets_lost += lost
            record = _SentFrame(
                offset=offset,
                ldu=ldu,
                completed_at=transmissions[-1].completed_at,
                delivered=(lost == 0),
            )
            return record

        def retransmit_one(record: _SentFrame, now: float) -> bool:
            """Retry one lost frame; returns False if time ran out for it."""
            due_at = record.completed_at + config.rtt  # NACK round trip
            start = max(now, due_at)
            if not budget_allows(record.ldu, start):
                return False
            attempt = offer(record.offset, is_retransmission=True, at=start)
            attempt.attempts = record.attempts + 1
            result.retransmissions += 1
            if attempt.delivered:
                result.recovered += 1
                sent[record.offset] = attempt
            else:
                retransmit_queue.append(attempt)
            return True

        def try_retransmissions(now: float) -> None:
            if not config.retransmit_anchors:
                return
            due = [
                record
                for record in retransmit_queue
                if record.completed_at + config.rtt <= now
            ]
            for record in due:
                retransmit_queue.remove(record)
                retransmit_one(record, now)

        shed = self._shed_frames(window_index, window, plan)

        first_attempt_indicator: List[int] = []
        for offset in plan.order:
            if offset in shed:
                # Load shedding: the frame is dropped at the sender
                # without consuming air time or channel state.
                result.dropped_at_sender += 1
                result.shed += 1
                continue
            ldu = window[offset]
            try_retransmissions(link_free_at())
            if not budget_allows(ldu, link_free_at()):
                result.dropped_at_sender += 1
                continue
            record = offer(offset, is_retransmission=False)
            result.sent += 1
            sent[offset] = record
            first_attempt_indicator.append(0 if record.delivered else 1)
            if not record.delivered:
                result.lost_in_network += 1
                if config.retransmit_anchors and offset in anchor_set:
                    retransmit_queue.append(record)
        # The idle tail of the cycle is retransmission time: keep retrying
        # lost anchors, one NACK round trip apart, while the cycle allows.
        if config.retransmit_anchors:
            while retransmit_queue:
                record = min(retransmit_queue, key=lambda r: r.completed_at)
                retransmit_queue.remove(record)
                if not retransmit_one(record, link_free_at()):
                    break

        # ------------------------------------------------------------------
        # Receiver side: arrivals, decodability, playback continuity.
        # ------------------------------------------------------------------
        received: Set[int] = set()
        for offset, record in sent.items():
            if not record.delivered:
                continue
            arrival = record.completed_at + config.rtt / 2.0
            slot_time = playback_start + offset / self.stream.fps
            if arrival <= slot_time:
                received.add(offset)
                result.arrival_times[offset] = arrival
            else:
                result.late += 1
        result.received = received
        result.playback_start = playback_start

        decodable = set(media.decodable(sorted(received)))
        result.decodable = decodable

        indicator = [0 if offset in decodable else 1 for offset in range(n)]
        result.unit_losses = sum(indicator)
        result.clf = consecutive_loss(indicator)

        # Per-layer observed bursts (in each layer's transmission order).
        for layer, perm in zip(plan.layers, plan.permutations):
            layer_sequence = [layer.members[frame] for frame in perm.order]
            losses = [1 if offset not in received else 0 for offset in layer_sequence]
            result.layer_bursts[layer.index] = consecutive_loss(losses)

        from repro.network.estimation import loss_runs

        result.first_attempt_stats = (
            sum(first_attempt_indicator),
            len(loss_runs(first_attempt_indicator)),
            len(first_attempt_indicator),
        )
        self._send_ack(window_index, window_end, result)
        self.result.windows.append(result)
        self.result.series.add_clf(result.clf, result.alf)
        if obs.enabled():
            obs.counter("protocol.windows").inc()
            obs.counter("protocol.frames_sent").inc(result.sent)
            obs.counter("protocol.frames_lost").inc(result.lost_in_network)
            obs.counter("protocol.retransmissions").inc(result.retransmissions)
            obs.counter("protocol.recovered").inc(result.recovered)
            obs.counter("protocol.late").inc(result.late)
            obs.counter("protocol.dropped_at_sender").inc(result.dropped_at_sender)
            obs.histogram("protocol.window_clf").observe(result.clf)
            obs.histogram("protocol.window_alf").observe(result.alf)
        return result

    # ------------------------------------------------------------------
    # Feedback path
    # ------------------------------------------------------------------

    def _send_ack(self, window_index: int, at_time: float, result: WindowResult) -> None:
        feedback = Feedback(
            sequence=self._ack_sequence,
            window_index=window_index,
            burst_estimates=dict(result.layer_bursts),
            loss_rates={
                layer: min(1.0, burst / max(1, result.frames))
                for layer, burst in result.layer_bursts.items()
            },
            loss_statistics=(
                result.first_attempt_stats[0],
                result.first_attempt_stats[1],
                result.first_attempt_stats[2],
            ),
        )
        self._ack_sequence += 1
        self.result.acks_sent += 1
        obs.counter("protocol.acks_sent").inc()
        packet = self.packetizer.control_packet()
        transmission = self.feedback_channel.send(packet, at_time)
        if transmission.lost:
            self.result.acks_lost += 1
            obs.counter("protocol.acks_lost").inc()
            result.ack_delivered = False
            return
        assert transmission.arrives_at is not None
        self._pending_acks.append((transmission.arrives_at, feedback))

    def _drain_acks(self, now: float) -> None:
        """Apply every ACK that has arrived by ``now`` (Equation 1)."""
        arrived = [item for item in self._pending_acks if item[0] <= now]
        self._pending_acks = [item for item in self._pending_acks if item[0] > now]
        for _, feedback in sorted(arrived, key=lambda item: item[0]):
            if not self.collector.offer(feedback):
                obs.counter("protocol.acks_stale").inc()
                continue  # stale, out-of-order ACK: ignored
            self.result.acks_used += 1
            obs.counter("protocol.acks_used").inc()
            window = self.result.windows[feedback.window_index]
            for layer_index, burst in feedback.burst_estimates.items():
                layer_size = window.layer_sizes.get(layer_index, window.frames)
                if layer_size > 1:
                    self.controller.observe(layer_index, layer_size, burst)
            if feedback.loss_statistics is not None:
                lost, runs, total = feedback.loss_statistics
                if total > 0:
                    self.channel_estimator.observe_counts(
                        lost=lost, total=total, runs=runs
                    )

    # ------------------------------------------------------------------

    def run(self, *, max_windows: Optional[int] = None) -> SessionResult:
        """Stream every full window (and the trailing partial one)."""
        n = self.config.window_frames
        windows = list(self.stream.windows(n))
        if max_windows is not None:
            windows = windows[:max_windows]
        for index, window in enumerate(windows):
            self.run_window(index, window)
        if obs.enabled():
            # One cycle of virtual time per window, plus the start-up delay.
            streamed = sum(len(window) for window in windows) / self.stream.fps
            obs.counter("protocol.virtual_seconds").inc(streamed)
        return self.result


def run_session(
    stream: MediaStream,
    config: Optional[ProtocolConfig] = None,
    *,
    max_windows: Optional[int] = None,
) -> SessionResult:
    """Simulate a full streaming session; see :class:`ProtocolConfig`.

    Routes through the columnar window-step kernel
    (:mod:`repro.core.kernel`, via a one-row
    :func:`repro.core.batch.run_sessions_batch` call) — bit-for-bit the
    result :class:`ProtocolSession` produces, at row-engine speed.  Use
    :class:`ProtocolSession` directly when injecting channels (the
    gateway path) or when the object-model reference engine is wanted.
    """
    from repro.core.batch import run_sessions_batch  # deferred: cycle

    resolved = config or ProtocolConfig()
    return run_sessions_batch(
        stream, resolved, seeds=[resolved.seed], max_windows=max_windows
    )[0]


def compare_schemes(
    stream: MediaStream,
    config: Optional[ProtocolConfig] = None,
    *,
    max_windows: Optional[int] = None,
) -> Tuple[SessionResult, SessionResult]:
    """(scrambled, unscrambled) sessions over identical channel seeds.

    This is the paper's Figure-8 experiment shape: the two arms differ
    only in the transmission order of each window.
    """
    base = config or ProtocolConfig()
    scrambled = run_session(
        stream, replace(base, layered=True, scramble=True), max_windows=max_windows
    )
    unscrambled = run_session(
        stream, replace(base, layered=False, scramble=False), max_windows=max_windows
    )
    return scrambled, unscrambled
