"""Seeded load generator: deterministic fleets of session requests.

Everything is drawn from one ``random.Random(seed)`` stream, so a load
spec maps to exactly one fleet — the CLI demo, the capacity sweep and
the tests all replay identical traffic for identical seeds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List

from repro.core.protocol import ProtocolConfig
from repro.errors import ConfigurationError
from repro.media.gop import GOP_12
from repro.media.stream import VideoStream, make_video_stream
from repro.serve.service import SessionRequest

__all__ = ["LoadSpec", "generate_requests"]

#: Seed spacing between sessions' channel processes, far from the
#: feedback-channel offset used by ``make_duplex``.
_SESSION_SEED_STRIDE = 7919

#: Generated streams are deterministic in (pattern, gop_count, name), so
#: fleets regenerated for parity comparisons, replications and sharded
#: runs can share the immutable stream objects — which keeps memoized
#: hashes and identity-based dictionary hits (demand cache, fast-path
#: batch grouping) warm across fleets.
_STREAM_CACHE_SIZE = 256

_stream_cache: "OrderedDict[tuple, VideoStream]" = OrderedDict()


def _load_stream(gop_count: int, name: str) -> VideoStream:
    key = (gop_count, name)
    stream = _stream_cache.get(key)
    if stream is None:
        # All same-length generated streams share one LDU tuple object:
        # equality checks between their windows then hit CPython's
        # identity fast path instead of field-by-field dataclass
        # comparisons when the fast path groups windows by content.
        base_key = (gop_count, None)
        base = _stream_cache.get(base_key)
        if base is None:
            base = make_video_stream(GOP_12, gop_count=gop_count, name="")
            _stream_cache[base_key] = base
        stream = base.renamed(name)
        _stream_cache[key] = stream
        while len(_stream_cache) > _STREAM_CACHE_SIZE:
            _stream_cache.popitem(last=False)
    else:
        _stream_cache.move_to_end(key)
    return stream


@dataclass(frozen=True)
class LoadSpec:
    """Parameters of one generated fleet."""

    sessions: int = 4
    seed: int = 0
    #: Mean exponential inter-arrival gap, seconds (0 = all at once).
    mean_interarrival: float = 0.25
    #: GOPs per generated stream (each GOP-12, 24 fps).
    gop_count: int = 8
    #: Buffer windows each session streams (None = whole stream).
    max_windows: int = 4
    #: Fraction of sessions marked high priority (weight 2, class 1).
    high_priority_fraction: float = 0.25
    config: ProtocolConfig = ProtocolConfig()

    def __post_init__(self) -> None:
        if self.sessions <= 0:
            raise ConfigurationError("sessions must be positive")
        if self.mean_interarrival < 0:
            raise ConfigurationError("mean inter-arrival must be non-negative")
        if not 0.0 <= self.high_priority_fraction <= 1.0:
            raise ConfigurationError(
                "high-priority fraction must be within [0, 1]"
            )


def generate_requests(spec: LoadSpec) -> List[SessionRequest]:
    """The deterministic fleet of ``spec.sessions`` session requests."""
    import random

    rng = random.Random(spec.seed)
    requests: List[SessionRequest] = []
    arrival = 0.0
    for index in range(spec.sessions):
        if index > 0 and spec.mean_interarrival > 0:
            arrival += rng.expovariate(1.0 / spec.mean_interarrival)
        high = rng.random() < spec.high_priority_fraction
        stream = _load_stream(spec.gop_count, f"load-{spec.seed}-{index}")
        config = replace(
            spec.config,
            seed=spec.seed * 1_000_003 + index * _SESSION_SEED_STRIDE,
        )
        requests.append(
            SessionRequest(
                session_id=f"s{index:02d}",
                stream=stream,
                config=config,
                arrival_time=arrival,
                weight=2.0 if high else 1.0,
                priority=1 if high else 0,
                max_windows=spec.max_windows,
            )
        )
    return requests
