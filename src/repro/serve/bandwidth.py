"""Pluggable bandwidth schedulers for the shared bottleneck.

The streaming service (:mod:`repro.serve.service`) multiplexes ``K``
concurrent sessions over one gateway of fixed capacity.  A *bandwidth
scheduler* decides, whenever the active set changes or a session starts
a new buffer window, how that capacity is split.  Two arms ship:

``fair``
    Plain equal split: every active session gets ``capacity / K``,
    regardless of demand.  With ``K = 1`` the session receives the full
    capacity — which is what makes the serve path bit-for-bit
    reproducible against the sequential engine (the differential parity
    tests in ``tests/serve``).

``priority``
    Strict priority classes.  Higher classes are satisfied first, up to
    their declared demand, by weighted water-filling; the lowest class
    absorbs whatever capacity remains (split by weight).  Sessions in a
    starved class receive a zero share and are left to the admission
    controller / shedding policy to deal with.

Both schedulers are deterministic: allocation depends only on the
demand set and capacity, never on iteration order of a hash map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "SessionDemand",
    "FairShareScheduler",
    "PriorityScheduler",
    "make_scheduler",
]


@dataclass(frozen=True)
class SessionDemand:
    """What one session asks of the bottleneck.

    ``demand_bps`` is the bandwidth that carries the whole stream at
    full quality; ``critical_bps`` the part that carries just the
    critical (anchor) layers — the floor below which admission control
    refuses to push a session.
    """

    session_id: str
    demand_bps: float
    critical_bps: float
    weight: float = 1.0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.demand_bps < 0 or self.critical_bps < 0:
            raise ConfigurationError("demands must be non-negative")
        if self.critical_bps > self.demand_bps:
            raise ConfigurationError("critical demand cannot exceed full demand")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")


class FairShareScheduler:
    """Equal split of the capacity among all active sessions."""

    name = "fair"

    def allocate(
        self, demands: Sequence[SessionDemand], capacity_bps: float
    ) -> Dict[str, float]:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        if not demands:
            return {}
        share = capacity_bps / len(demands)
        return {demand.session_id: share for demand in demands}


def _water_fill(
    members: List[SessionDemand], capacity: float
) -> Dict[str, float]:
    """Weighted max-min allocation capped at each member's demand.

    Repeatedly splits the remaining capacity by weight; members whose
    demand is met drop out and free their surplus for the rest.  Each
    round partitions the active members in one pass, so a round costs
    time linear in the members still active.
    """
    shares = {member.session_id: 0.0 for member in members}
    active = sorted(members, key=lambda m: m.session_id)
    while active and capacity > 1e-9:
        total_weight = sum(member.weight for member in active)
        quantum = capacity / total_weight
        satisfied: List[SessionDemand] = []
        pending: List[SessionDemand] = []
        for member in active:
            if member.demand_bps <= quantum * member.weight:
                satisfied.append(member)
            else:
                pending.append(member)
        if not satisfied:
            for member in active:
                shares[member.session_id] = quantum * member.weight
            return shares
        for member in satisfied:
            shares[member.session_id] = member.demand_bps
            capacity -= member.demand_bps
        active = pending
    return shares


class PriorityScheduler:
    """Strict priority classes, weighted water-filling within a class."""

    name = "priority"

    def allocate(
        self, demands: Sequence[SessionDemand], capacity_bps: float
    ) -> Dict[str, float]:
        if capacity_bps <= 0:
            raise ConfigurationError("capacity must be positive")
        if not demands:
            return {}
        shares: Dict[str, float] = {demand.session_id: 0.0 for demand in demands}
        # One pass buckets the demands by class; members keep input order.
        by_class: Dict[int, List[SessionDemand]] = {}
        for demand in demands:
            by_class.setdefault(demand.priority, []).append(demand)
        classes = sorted(by_class, reverse=True)
        remaining = capacity_bps
        for position, cls in enumerate(classes):
            members = by_class[cls]
            if remaining <= 0:
                break
            if position + 1 == len(classes):
                # Lowest class absorbs the leftovers by weight: capacity
                # is never parked while somebody could be streaming.
                total_weight = sum(member.weight for member in members)
                for member in members:
                    shares[member.session_id] = (
                        remaining * member.weight / total_weight
                    )
                remaining = 0.0
            else:
                allocated = _water_fill(members, remaining)
                shares.update(allocated)
                remaining -= sum(allocated.values())
        return shares


_SCHEDULERS = {
    FairShareScheduler.name: FairShareScheduler,
    PriorityScheduler.name: PriorityScheduler,
}


def make_scheduler(name: str):
    """Instantiate a scheduler by CLI name (``fair`` or ``priority``)."""
    try:
        return _SCHEDULERS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown bandwidth scheduler {name!r}; available: {sorted(_SCHEDULERS)}"
        ) from None
