"""Admission control: refuse sessions the bottleneck cannot carry.

The per-viewer guarantee the service defends is continuity of the
*critical* layers — the anchor frames everything else decodes against.
A session is admitted only if, after adding it, the bandwidth
scheduler's allocation still gives **every** session (the newcomer and
everyone already playing) at least its critical-layer demand.  Anything
less and the layered drop order of PROTOCOL.md step 2 would start
shedding anchors, which no amount of error spreading recovers from.

Demands are estimated from the stream itself: the peak over buffer
windows of ``bits / cycle`` (full demand) and ``anchor bits / cycle``
(critical demand).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.media.stream import MediaStream
from repro.serve.bandwidth import SessionDemand

__all__ = [
    "ADMITTED_REASON",
    "AdmissionController",
    "AdmissionDecision",
    "estimate_demand",
]

#: LRU capacity of the demand cache.  Capacity sweeps re-admit the same
#: few generated streams for every replication and arm; 128 distinct
#: (stream, windowing) shapes is far beyond any sweep in the repo.
_DEMAND_CACHE_SIZE = 128

_demand_cache: "OrderedDict[tuple, Tuple[float, float]]" = OrderedDict()

#: Identity-keyed front cache.  Load generators intern LDU tuples — a
#: 256-viewer fleet is 256 distinct stream *objects* sharing a handful
#: of ``ldus`` tuples — so the value-keyed LRU above sees 256 distinct
#: keys and thrashes, while this front keyed on the ``ldus`` tuple's
#: identity (plus everything else the estimate reads) collapses the
#: whole fleet onto a few entries.  Each entry pins the tuple with a
#: strong reference, so its ``id`` cannot be recycled while the entry
#: lives; the ``is`` check on lookup makes the key airtight.
_demand_id_cache: "OrderedDict[tuple, Tuple[tuple, Tuple[float, float]]]" = (
    OrderedDict()
)


def estimate_demand(
    stream: MediaStream,
    config: ProtocolConfig,
    *,
    max_windows: Optional[int] = None,
) -> Tuple[float, float]:
    """(full, critical) bandwidth demand of one session, bits/second.

    Peak over the session's buffer windows: a window of ``n`` frames has
    one cycle of ``n / fps`` seconds of air time, so the window's demand
    is its encoded bits divided by the cycle.  The critical demand
    counts only anchor (I/P) frames — what must survive for the window
    to decode at all.

    Results are memoized in a small LRU keyed by the stream and its
    windowing (the only inputs the estimate reads) — the capacity sweep
    recomputes identical demands for every replication.
    """
    # Both keys carry the channel-phase schedule: two scenarios that
    # differ only in channel dynamics must never share a cached plan.
    id_key = (
        id(stream.ldus),
        stream.fps,
        config.window_frames,
        config.channel_phases,
        max_windows,
    )
    id_hit = _demand_id_cache.get(id_key)
    if id_hit is not None and id_hit[0] is stream.ldus:
        _demand_id_cache.move_to_end(id_key)
        if obs.enabled():
            obs.counter("serve.demand_cache.hits").inc()
        return id_hit[1]
    key = (stream, config.window_frames, config.channel_phases, max_windows)
    cached = _demand_cache.get(key)
    if cached is not None:
        _demand_cache.move_to_end(key)
        _demand_id_cache[id_key] = (stream.ldus, cached)
        if len(_demand_id_cache) > _DEMAND_CACHE_SIZE:
            _demand_id_cache.popitem(last=False)
        if obs.enabled():
            obs.counter("serve.demand_cache.hits").inc()
        return cached
    if obs.enabled():
        obs.counter("serve.demand_cache.misses").inc()
    windows = list(stream.windows(config.window_frames))
    if max_windows is not None:
        windows = windows[:max_windows]
    if not windows:
        raise ConfigurationError("cannot estimate demand of an empty stream")
    full = 0.0
    critical = 0.0
    for window in windows:
        cycle = len(window) / stream.fps
        total_bits = sum(ldu.size_bits for ldu in window)
        anchor_bits = sum(
            ldu.size_bits for ldu in window if ldu.frame_type.is_anchor
        )
        full = max(full, total_bits / cycle)
        critical = max(critical, anchor_bits / cycle)
    _demand_cache[key] = (full, critical)
    if len(_demand_cache) > _DEMAND_CACHE_SIZE:
        _demand_cache.popitem(last=False)
    _demand_id_cache[id_key] = (stream.ldus, (full, critical))
    if len(_demand_id_cache) > _DEMAND_CACHE_SIZE:
        _demand_id_cache.popitem(last=False)
    return full, critical


#: The one reason string every admitted session carries.  Pinned as a
#: constant so lean result transports (the hierarchical fan-out ships
#: only numeric columns home) can reconstruct admitted outcomes' reasons
#: without moving ``K`` identical strings across processes.
ADMITTED_REASON = "critical layers covered for all sessions"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission test.

    ``shares`` is the scheduler's allocation over the prospective active
    set (the active sessions, then the candidate).  An admitting service
    reuses it as its allocation instead of running the scheduler again;
    ``None`` leaves the service to allocate for itself.
    """

    admitted: bool
    reason: str
    share_bps: float  # the candidate's prospective share
    shares: Optional[Dict[str, float]] = field(
        default=None, compare=False, repr=False
    )


class AdmissionController:
    """Critical-layer admission test against a bandwidth scheduler.

    ``headroom`` inflates every critical demand by a fraction before the
    comparison, reserving slack for anchor retransmissions.
    """

    def __init__(self, scheduler, capacity_bps: float, *, headroom: float = 0.0) -> None:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        if headroom < 0:
            raise ConfigurationError("headroom must be non-negative")
        self.scheduler = scheduler
        self.capacity_bps = capacity_bps
        self.headroom = headroom

    def evaluate(
        self,
        active: Sequence[SessionDemand],
        candidate: SessionDemand,
    ) -> AdmissionDecision:
        """Would admitting ``candidate`` keep every critical layer afloat?"""
        prospective = list(active) + [candidate]
        shares = self.scheduler.allocate(prospective, self.capacity_bps)
        for demand in prospective:
            floor = demand.critical_bps * (1.0 + self.headroom)
            if shares[demand.session_id] < floor:
                whose = (
                    "its own"
                    if demand.session_id == candidate.session_id
                    else f"session {demand.session_id!r}'s"
                )
                return AdmissionDecision(
                    admitted=False,
                    reason=(
                        f"share {shares[demand.session_id]:.0f} bps below "
                        f"{whose} critical demand of {floor:.0f} bps"
                    ),
                    share_bps=shares[candidate.session_id],
                    shares=shares,
                )
        return AdmissionDecision(
            admitted=True,
            reason=ADMITTED_REASON,
            share_bps=shares[candidate.session_id],
            shares=shares,
        )
