"""Adaptive loss estimation — Equation 1 of the paper.

The server tracks, per layer, an estimate of the bursty loss bound within
a window.  After each window the client feeds back the observed worst
burst; the server smooths it with exponential averaging::

    estimate_k = alpha * observed_{k-1} + (1 - alpha) * estimate_{k-1}

with ``alpha = 0.5`` ("we consider the current network loss and the
average past network loss to be equally important").  Before any feedback
arrives, the server "assumes the average case" — an initial estimate of
half the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError

#: The paper's smoothing weight.
DEFAULT_ALPHA = 0.5


@dataclass
class LossEstimator:
    """Exponentially-averaged burst-length estimator for one layer.

    Parameters
    ----------
    window:
        Size of the layer's transmission window in LDUs (bounds the
        estimate).
    alpha:
        Weight of the newest observation.
    initial:
        Starting estimate; defaults to half the window (the paper's
        "average case" before feedback exists).
    """

    window: int
    alpha: float = DEFAULT_ALPHA
    initial: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError("alpha must be within [0, 1]")
        if self.initial is None:
            self._estimate = self.window / 2.0
        else:
            if self.initial < 0:
                raise ConfigurationError("initial estimate must be non-negative")
            self._estimate = min(float(self.initial), float(self.window))
        self.observations = 0

    @property
    def estimate(self) -> float:
        """Current smoothed burst estimate (fractional)."""
        return self._estimate

    @property
    def burst_bound(self) -> int:
        """The integer bound handed to ``calculate_permutation`` (>= 1)."""
        return max(1, min(self.window, math.ceil(self._estimate)))

    def update(self, observed_burst: int) -> float:
        """Fold in the newest observed worst burst; returns the new estimate."""
        if observed_burst < 0:
            raise ConfigurationError("observed burst must be non-negative")
        clamped = min(observed_burst, self.window)
        self._estimate = self.alpha * clamped + (1.0 - self.alpha) * self._estimate
        self.observations += 1
        return self._estimate


class AdaptiveController:
    """Per-layer estimators plus permutation-bound bookkeeping.

    One instance lives in the server; layers are keyed by index.  Missing
    feedback (lost ACKs, stale sequence numbers) simply leaves the
    estimators untouched, matching the protocol's "its feedback
    information has not been used" behaviour.
    """

    def __init__(self, *, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError("alpha must be within [0, 1]")
        self.alpha = alpha
        self._estimators: Dict[int, LossEstimator] = {}
        #: Set by the kernel's array program while it owns this
        #: controller's state in columnar form: a zero-argument callback
        #: that writes the columns back into ``_estimators`` (and clears
        #: itself).
        #: Every public read/write path syncs first, so external
        #: observers — the scenario harness's b-hat series, the serve
        #: shed policy — always see current estimates whichever
        #: implementation of the kernel step ran.
        self._sync = None

    def estimator_for(self, layer: int, window: int) -> LossEstimator:
        """The estimator of ``layer``, created on first use."""
        if self._sync is not None:
            self._sync()
        existing = self._estimators.get(layer)
        if existing is None or existing.window != window:
            existing = LossEstimator(window=window, alpha=self.alpha)
            self._estimators[layer] = existing
        return existing

    def observe(self, layer: int, window: int, observed_burst: int) -> None:
        # Inlined estimator_for + update: this runs once per layer per
        # ACK, and the call chain dominated the feedback path.
        if self._sync is not None:
            self._sync()
        estimator = self._estimators.get(layer)
        if estimator is None or estimator.window != window:
            estimator = LossEstimator(window=window, alpha=self.alpha)
            self._estimators[layer] = estimator
        if observed_burst < 0:
            raise ConfigurationError("observed burst must be non-negative")
        clamped = observed_burst if observed_burst < window else window
        alpha = estimator.alpha
        estimator._estimate = (
            alpha * clamped + (1.0 - alpha) * estimator._estimate
        )
        estimator.observations += 1

    def burst_bound(self, layer: int, window: int) -> int:
        return self.estimator_for(layer, window).burst_bound

    @property
    def layers(self) -> Dict[int, LossEstimator]:
        if self._sync is not None:
            self._sync()
        return dict(self._estimators)
