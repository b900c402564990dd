"""Tests for the bottleneck bandwidth schedulers (repro.serve.bandwidth)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve.bandwidth import (
    FairShareScheduler,
    PriorityScheduler,
    SessionDemand,
    make_scheduler,
)


def demand(sid, full=1_200_000.0, critical=None, weight=1.0, priority=0):
    return SessionDemand(
        session_id=sid,
        demand_bps=full,
        critical_bps=full / 2 if critical is None else critical,
        weight=weight,
        priority=priority,
    )


class TestFairShare:
    def test_equal_split(self):
        shares = FairShareScheduler().allocate(
            [demand("a"), demand("b"), demand("c")], 3_000_000.0
        )
        assert shares == {"a": 1_000_000.0, "b": 1_000_000.0, "c": 1_000_000.0}

    def test_single_session_gets_everything(self):
        shares = FairShareScheduler().allocate([demand("a")], 2_400_000.0)
        assert shares == {"a": 2_400_000.0}

    def test_empty_active_set(self):
        assert FairShareScheduler().allocate([], 1_000_000.0) == {}

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FairShareScheduler().allocate([demand("a")], 0.0)


class TestPriority:
    def test_higher_class_satisfied_first(self):
        demands = [
            demand("hi", full=900_000.0, priority=1),
            demand("lo", full=900_000.0, priority=0),
        ]
        shares = PriorityScheduler().allocate(demands, 1_200_000.0)
        assert shares["hi"] == 900_000.0  # met in full
        assert shares["lo"] == pytest.approx(300_000.0)  # the leftovers

    def test_lowest_class_absorbs_surplus(self):
        """Capacity beyond every higher class's demand is never parked."""
        demands = [
            demand("hi", full=400_000.0, priority=1),
            demand("lo", full=100_000.0, priority=0),
        ]
        shares = PriorityScheduler().allocate(demands, 2_000_000.0)
        assert shares["hi"] == 400_000.0
        assert shares["lo"] == pytest.approx(1_600_000.0)

    def test_starved_class_gets_zero(self):
        demands = [
            demand("a", full=1_000_000.0, priority=2),
            demand("b", full=1_000_000.0, priority=1),
            demand("c", full=1_000_000.0, priority=0),
        ]
        shares = PriorityScheduler().allocate(demands, 1_000_000.0)
        assert shares["a"] == 1_000_000.0
        assert shares["b"] == 0.0
        assert shares["c"] == 0.0

    def test_weighted_water_filling_within_class(self):
        demands = [
            demand("w1", full=2_000_000.0, weight=1.0, priority=1),
            demand("w3", full=2_000_000.0, weight=3.0, priority=1),
            demand("lo", full=500_000.0, priority=0),
        ]
        shares = PriorityScheduler().allocate(demands, 1_000_000.0)
        assert shares["w1"] == pytest.approx(250_000.0)
        assert shares["w3"] == pytest.approx(750_000.0)
        assert shares["lo"] == 0.0

    def test_water_fill_frees_surplus_of_met_members(self):
        demands = [
            demand("small", full=100_000.0, priority=1),
            demand("big", full=5_000_000.0, priority=1),
            demand("lo", full=500_000.0, priority=0),
        ]
        shares = PriorityScheduler().allocate(demands, 1_000_000.0)
        assert shares["small"] == 100_000.0
        assert shares["big"] == pytest.approx(900_000.0)

    def test_deterministic_under_input_order(self):
        demands = [
            demand("a", full=700_000.0, priority=1),
            demand("b", full=900_000.0, weight=2.0, priority=1),
            demand("c", full=400_000.0, priority=0),
        ]
        forward = PriorityScheduler().allocate(demands, 1_500_000.0)
        backward = PriorityScheduler().allocate(demands[::-1], 1_500_000.0)
        assert forward == backward

    def test_single_class_splits_whole_capacity_by_weight(self):
        demands = [demand("a"), demand("b", weight=2.0)]
        shares = PriorityScheduler().allocate(demands, 900_000.0)
        assert shares["a"] == pytest.approx(300_000.0)
        assert shares["b"] == pytest.approx(600_000.0)


def _quadratic_water_fill(
    members: List[SessionDemand], capacity: float
) -> Dict[str, float]:
    """The original water-fill, kept verbatim as the parity oracle: it drops
    satisfied members with a list-membership test, quadratic per round."""
    shares = {member.session_id: 0.0 for member in members}
    active = sorted(members, key=lambda m: m.session_id)
    while active and capacity > 1e-9:
        total_weight = sum(member.weight for member in active)
        quantum = capacity / total_weight
        satisfied = [
            member for member in active if member.demand_bps <= quantum * member.weight
        ]
        if not satisfied:
            for member in active:
                shares[member.session_id] = quantum * member.weight
            return shares
        for member in satisfied:
            shares[member.session_id] = member.demand_bps
            capacity -= member.demand_bps
        active = [member for member in active if member not in satisfied]
    return shares


def _oracle_priority_allocate(
    demands: Sequence[SessionDemand], capacity_bps: float
) -> Dict[str, float]:
    """The original ``PriorityScheduler.allocate``: one scan per class."""
    if capacity_bps <= 0:
        raise ConfigurationError("capacity must be positive")
    if not demands:
        return {}
    shares: Dict[str, float] = {demand.session_id: 0.0 for demand in demands}
    classes = sorted({demand.priority for demand in demands}, reverse=True)
    remaining = capacity_bps
    for position, cls in enumerate(classes):
        members = [demand for demand in demands if demand.priority == cls]
        if remaining <= 0:
            break
        if position + 1 == len(classes):
            total_weight = sum(member.weight for member in members)
            for member in members:
                shares[member.session_id] = (
                    remaining * member.weight / total_weight
                )
            remaining = 0.0
        else:
            allocated = _quadratic_water_fill(members, remaining)
            shares.update(allocated)
            remaining -= sum(allocated.values())
    return shares


#: A few demand levels many sessions share, so rounds satisfy ties at once.
_TIED_DEMANDS = (0.0, 250_000.0, 1_200_000.0, 1_200_000.0 / 3)


@st.composite
def _demand_sets(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(_TIED_DEMANDS),
                    st.floats(0.0, 5_000_000.0, allow_nan=False),
                ),
                st.sampled_from((0.5, 1.0, 2.0, 3.0)),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=300,
        )
    )
    # Session ids in a shuffled order: the water-fill sorts by id while
    # the allocation keeps the input order.
    ranks = draw(st.permutations(range(len(rows))))
    demands = [
        SessionDemand(
            session_id=f"s{rank:03d}",
            demand_bps=full,
            critical_bps=full / 2,
            weight=weight,
            priority=priority,
        )
        for rank, (full, weight, priority) in zip(ranks, rows)
    ]
    total = sum(demand.demand_bps for demand in demands)
    # From starved (a sliver of the total demand) to everyone satisfied.
    fraction = draw(
        st.one_of(st.sampled_from((1e-6, 0.5, 1.0, 2.0)), st.floats(1e-3, 2.0))
    )
    capacity = total * fraction if total > 0 else 1_000_000.0
    return demands, max(capacity, 1.0)


class TestPriorityParity:
    """The linear-time scheduler is the quadratic one, value for value."""

    @settings(max_examples=150, deadline=None)
    @given(_demand_sets())
    def test_matches_quadratic_oracle(self, case):
        demands, capacity = case
        got = PriorityScheduler().allocate(demands, capacity)
        want = _oracle_priority_allocate(demands, capacity)
        assert got == want
        assert list(got) == list(want)

    def test_large_tied_class_matches_oracle(self):
        """A flash-crowd shape: many tied premium viewers over one class."""
        demands = [
            demand(f"v{index:03d}", weight=2.0 if index % 4 else 1.0,
                   priority=1 if index % 4 else 0)
            for index in range(300)
        ]
        for capacity in (1e5, 1.2e8, 2.7e8, 4e8):
            got = PriorityScheduler().allocate(demands, capacity)
            want = _oracle_priority_allocate(demands, capacity)
            assert got == want
            assert list(got) == list(want)


class TestSessionDemand:
    def test_critical_cannot_exceed_full(self):
        with pytest.raises(ConfigurationError):
            SessionDemand("x", demand_bps=1.0, critical_bps=2.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionDemand("x", demand_bps=-1.0, critical_bps=0.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionDemand("x", demand_bps=1.0, critical_bps=0.0, weight=0.0)


class TestFactory:
    def test_by_name(self):
        assert isinstance(make_scheduler("fair"), FairShareScheduler)
        assert isinstance(make_scheduler("priority"), PriorityScheduler)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("round-robin")
