"""Tests for the analytical CLF models (repro.core.analysis)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    ClfDistribution,
    exact_inorder_clf_distribution,
    forecast_spreading,
    monte_carlo_clf_distribution,
)
from repro.core.cpo import calculate_permutation
from repro.core.permutation import Permutation
from repro.errors import ConfigurationError


class TestDistributionType:
    def test_mean_and_deviation(self):
        dist = ClfDistribution(window=2, pmf=(0.25, 0.5, 0.25))
        assert dist.mean == pytest.approx(1.0)
        assert dist.deviation == pytest.approx(math.sqrt(0.5))

    def test_cdf_and_tail(self):
        dist = ClfDistribution(window=2, pmf=(0.25, 0.5, 0.25))
        assert dist.probability_at_most(1) == pytest.approx(0.75)
        assert dist.tail(1) == pytest.approx(0.25)
        assert dist.probability_at_most(-5) == 0.0
        assert dist.probability_at_most(99) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClfDistribution(window=2, pmf=(1.0,))
        with pytest.raises(ConfigurationError):
            ClfDistribution(window=1, pmf=(0.7, 0.7))


class TestExactInorder:
    def test_lossless_channel(self):
        dist = exact_inorder_clf_distribution(10, 1.0, 0.0)
        assert dist.pmf[0] == pytest.approx(1.0)
        assert dist.mean == 0.0

    def test_dead_channel(self):
        dist = exact_inorder_clf_distribution(5, 0.0, 1.0)
        assert dist.pmf[5] == pytest.approx(1.0)

    def test_single_packet(self):
        dist = exact_inorder_clf_distribution(1, 0.9, 0.5)
        assert dist.pmf[0] == pytest.approx(0.9)
        assert dist.pmf[1] == pytest.approx(0.1)

    def test_two_packets_by_hand(self):
        p_good, p_bad = 0.8, 0.6
        dist = exact_inorder_clf_distribution(2, p_good, p_bad)
        # outcomes: GG (.8*.8), GB (.8*.2), BG (.2*.4), BB (.2*.6)
        assert dist.pmf[0] == pytest.approx(0.64)
        assert dist.pmf[1] == pytest.approx(0.8 * 0.2 + 0.2 * 0.4)
        assert dist.pmf[2] == pytest.approx(0.2 * 0.6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exact_inorder_clf_distribution(0, 0.9, 0.5)
        with pytest.raises(ConfigurationError):
            exact_inorder_clf_distribution(5, 1.5, 0.5)

    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_pmf_is_distribution(self, n, p_good, p_bad):
        dist = exact_inorder_clf_distribution(n, p_good, p_bad)
        assert all(p >= -1e-12 for p in dist.pmf)
        assert sum(dist.pmf) == pytest.approx(1.0)


class TestMonteCarloAgreement:
    def test_identity_matches_exact(self):
        n, p_good, p_bad = 12, 0.9, 0.6
        exact = exact_inorder_clf_distribution(n, p_good, p_bad)
        sampled = monte_carlo_clf_distribution(
            Permutation.identity(n),
            p_good,
            p_bad,
            windows=30_000,
            continue_chain=False,
        )
        assert sampled.mean == pytest.approx(exact.mean, abs=0.05)
        for value in range(n + 1):
            assert sampled.pmf[value] == pytest.approx(exact.pmf[value], abs=0.02)

    def test_deterministic_with_seed(self):
        perm = calculate_permutation(12, 6)
        a = monte_carlo_clf_distribution(perm, 0.9, 0.6, windows=2000, seed=4)
        b = monte_carlo_clf_distribution(perm, 0.9, 0.6, windows=2000, seed=4)
        assert a.pmf == b.pmf

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            monte_carlo_clf_distribution(Permutation(()), 0.9, 0.6)
        with pytest.raises(ConfigurationError):
            monte_carlo_clf_distribution(
                Permutation.identity(4), 0.9, 0.6, windows=0
            )


def _enumerated_clf_pmf(order, p_good, p_bad):
    """Exact per-window CLF pmf of a window sent in slot order ``order``.

    An oracle that shares no code with the library: every first-attempt
    loss pattern of the window's ``len(order)`` slots is enumerated with
    its exact probability under the Gilbert chain (it starts GOOD, and a
    packet's outcome is the state after its transition, BAD = lost).
    Each pattern is un-permuted (slot ``t`` carries frame ``order[t]``)
    and scored by its longest run of consecutive lost frames.
    """
    n = len(order)
    # (lost slots, chain is BAD after the last slot, probability)
    patterns = [((), False, 1.0)]
    for slot in range(n):
        grown = []
        for lost, bad, probability in patterns:
            to_bad = p_bad if bad else 1.0 - p_good
            grown.append((lost + (slot,), True, probability * to_bad))
            grown.append((lost, False, probability * (1.0 - to_bad)))
        patterns = grown
    pmf = [0.0] * (n + 1)
    for lost, _, probability in patterns:
        longest = run = 0
        previous = None
        for frame in sorted(order[slot] for slot in lost):
            run = run + 1 if previous == frame - 1 else 1
            longest = max(longest, run)
            previous = frame
        pmf[longest] += probability
    return pmf


class TestEnumeratedPermutedClf:
    """The 2^N enumeration, pinned to the DP and to Monte Carlo."""

    def test_two_frames_by_hand(self):
        p_good, p_bad = 0.8, 0.6
        # Sending the pair reversed changes no run length.
        assert _enumerated_clf_pmf((1, 0), p_good, p_bad) == pytest.approx(
            [0.64, 0.8 * 0.2 + 0.2 * 0.4, 0.2 * 0.6]
        )

    def test_identity_order_is_the_exact_inorder_dp(self):
        n, p_good, p_bad = 12, 0.9, 0.6
        exact = exact_inorder_clf_distribution(n, p_good, p_bad)
        enumerated = _enumerated_clf_pmf(tuple(range(n)), p_good, p_bad)
        assert max(abs(a - b) for a, b in zip(enumerated, exact.pmf)) < 1e-12

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_identity_order_any_channel(self, n, p_good, p_bad):
        exact = exact_inorder_clf_distribution(n, p_good, p_bad)
        enumerated = _enumerated_clf_pmf(tuple(range(n)), p_good, p_bad)
        assert enumerated == pytest.approx(list(exact.pmf), abs=1e-12)

    def test_k_cpo_order_matches_monte_carlo(self):
        perm = calculate_permutation(12, 3)
        p_good, p_bad = 0.9, 0.6
        enumerated = _enumerated_clf_pmf(perm.order, p_good, p_bad)
        sampled = monte_carlo_clf_distribution(
            perm, p_good, p_bad, windows=40_000, seed=1, continue_chain=False
        )
        assert sum(enumerated) == pytest.approx(1.0)
        assert max(abs(a - b) for a, b in zip(enumerated, sampled.pmf)) < 0.01
        # The permutation spreads bursts: its exact pmf is not the
        # in-order one, so the Monte-Carlo match is not a vacuous one.
        inorder = exact_inorder_clf_distribution(12, p_good, p_bad)
        assert max(abs(a - b) for a, b in zip(enumerated, inorder.pmf)) > 0.05


class TestForecast:
    def test_spreading_predicted_to_help(self):
        perm = calculate_permutation(24, 12)
        forecast = forecast_spreading(perm, 0.92, 0.6, windows=8000, seed=1)
        assert forecast.mean_improvement > 0.2
        assert forecast.acceptability_gain(2) > 0.0

    def test_forecast_matches_paper_channel_shape(self):
        """At the Figure-8 channel, in-order windows regularly exceed the
        threshold while the CPO window almost never does."""
        perm = calculate_permutation(24, 12)
        forecast = forecast_spreading(perm, 0.92, 0.6, windows=8000, seed=2)
        # In-order windows exceed the threshold ~45% of the time; the CPO
        # cuts that to a third (residual mass = bursts beyond the design
        # bound of 12 and multiple bursts per window).
        assert forecast.inorder.tail(2) > 0.3
        assert forecast.permuted.tail(2) < forecast.inorder.tail(2) / 2.5
