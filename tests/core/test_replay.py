"""The array program's lost-anchor replay against ``run_row_sender``.

``core.native.step._replay`` replays the sender loop of many rows at
once, as a scan over rows.  Every row it commits must be exactly what
:func:`repro.core.kernel.run_row_sender` does to a copy of the same row:
the same attempts in the same order, the same completion times float for
float, the same counts, flag position and link-busy time.  A row whose
replay would read past its flags must come back untouched, exactly when
``run_row_sender`` would have refilled.

The windows here are synthetic (hand-set fragment times, budgets and
loss flags), so each case reaches the sender's corner directly: retries
that interleave with first attempts, a frame dropped mid-loop by the
budget, the idle tail's break, two queue entries tied on completion time,
and a shedding row that loses an anchor.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

pytest.importorskip("numpy")

from repro import accel, obs  # noqa: E402
from repro.core import kernel  # noqa: E402
from repro.core.batch import run_sessions_batch  # noqa: E402
from repro.core.native import step  # noqa: E402
from repro.core.protocol import ProtocolConfig  # noqa: E402
from repro.media.gop import GopPattern  # noqa: E402
from repro.media.stream import make_video_stream  # noqa: E402
from repro.network.markov import GilbertPhase  # noqa: E402


def _info(frag_times, frame_ser, anchors):
    """A window's packetization facts, as the sender reads them."""
    frag_times = tuple(tuple(times) for times in frag_times)
    frag_counts = tuple(len(times) for times in frag_times)
    return SimpleNamespace(
        n=len(frag_times),
        frag_counts=frag_counts,
        frag_times=frag_times,
        frame_ser=tuple(frame_ser),
        anchors=frozenset(anchors),
        first_attempt_packets=sum(frag_counts),
    )


class _Case:
    """One row's window: timings, order, shed set, flags, link state."""

    def __init__(
        self,
        info,
        order,
        flags,
        *,
        rtt,
        window_start=0.0,
        window_end,
        shed=frozenset(),
        fwd_busy=0.0,
    ) -> None:
        self.info = info
        self.plan = SimpleNamespace(order=tuple(order), layers=())
        self.flags = list(flags)
        self.config = ProtocolConfig(rtt=rtt)
        self.window_start = window_start
        self.window_end = window_end
        self.shed = frozenset(shed)
        self.fwd_busy = fwd_busy

    def row(self) -> kernel.SessionRow:
        row = kernel.SessionRow(self.config, 0)
        row.flags = list(self.flags)
        row.fwd_busy = self.fwd_busy
        return row

    def entry(self):
        sched = kernel._Schedule(
            self.info, self.plan, self.window_start, self.window_end, self.shed
        )
        return (self.row(), self.plan, (), sched, self.shed)

    def reference(self):
        """``run_row_sender`` on a fresh row: (row window, row after)."""
        row = self.row()
        window = kernel.run_row_sender(
            row,
            self.info,
            self.config,
            0,
            self.window_start,
            self.window_end,
            plan=self.plan,
            layer_sequences=(),
            shed=self.shed,
        )
        return window, row


def _replay_all(cases):
    """Replay every case in one scan; assert each matches the reference.

    All cases share the first case's window facts (one scan is one
    window step).  Returns the reference row windows.
    """
    info = cases[0].info
    config = cases[0].config
    window_start = cases[0].window_start
    window_end = cases[0].window_end
    entries = [case.entry() for case in cases]
    attempts, leftovers = step._replay(
        entries, info, config, window_start, window_end
    )
    left = {id(entry[0]) for entry in leftovers}
    committed = [entry for entry in entries if id(entry[0]) not in left]
    assert attempts is not None or not committed
    rtt_half = config.rtt / 2.0
    windows = []
    position = 0
    for case, entry in zip(cases, entries):
        window, row = case.reference()
        windows.append(window)
        refilled = row.fwd_drawn > 0
        if id(entry[0]) in left:
            assert refilled
            # Untouched: the scalar tail replays it from the same state.
            assert entry[0].pos == 0 and entry[0].flags == case.flags
            continue
        assert not refilled
        assert attempts.entries[position] is entry
        result = window.result
        assert attempts.tallies[position] == (
            result.sent,
            result.dropped_at_sender,
            result.retransmissions,
            result.recovered,
        )
        assert attempts.spans[position] == row.pos
        assert attempts.lost_totals[position] == row.result.packets_lost
        assert attempts.busy[position] == row.fwd_busy
        sent = result.sent
        got = [
            (
                int(attempts.offsets[position, column]),
                float(attempts.arrivals[position, column]),
                bool(attempts.delivered[position, column]),
                int(attempts.first_lost[position, column]),
            )
            for column in range(sent)
        ]
        want = [
            (offset, completed + rtt_half, delivered, lost)
            for (offset, (completed, delivered)), lost in zip(
                window.sent.items(), window.first_attempt
            )
        ]
        assert got == want
        assert not attempts.delivered[position, sent:].any()
        assert not attempts.first_lost[position, sent:].any()
        position += 1
    return windows


def _single(case):
    return _replay_all([case])[0]


# ----------------------------------------------------------------------
# Each corner of the sender loop, reached on purpose
# ----------------------------------------------------------------------

T = 0.125  # one frame's air time: exact in binary, so times are exact


def test_retries_interleave_with_first_attempts():
    # Frame 0 (the anchor) is lost; its retry falls due after frame 1
    # and goes out before frame 2.
    info = _info([(T,)] * 4, [T] * 4, anchors={0})
    case = _Case(info, range(4), [True] + [False] * 40, rtt=T, window_end=1.0)
    window = _single(case)
    assert window.result.retransmissions == 1 and window.result.recovered == 1
    assert window.sent[0] == (3 * T, True)
    assert window.sent[3] == (5 * T, True)


def test_budget_drops_a_frame_mid_loop():
    # Frame 1 misses the budget; the smaller frames after it still fit.
    info = _info([(T,), (0.5, 0.5), (T,), (T,)], [T, 1.0, T, T], anchors={0})
    case = _Case(info, range(4), [True] + [False] * 40, rtt=T, window_end=1.0)
    window = _single(case)
    assert 1 not in window.sent and window.result.dropped_at_sender == 1
    assert {2, 3} <= set(window.sent) and window.result.recovered == 1


def test_idle_tail_breaks_at_the_first_retry_over_budget():
    # Both anchors and every retry are lost; the tail's first retry that
    # misses the budget ends the window with an entry still queued.
    info = _info([(0.25,)] * 3, [0.25] * 3, anchors={0, 1})
    case = _Case(info, range(3), [True] * 40, rtt=0.0625, window_end=1.0)
    window = _single(case)
    assert window.result.retransmissions == 1
    assert window.result.recovered == 0
    assert window.sent[0] == (0.25, False) and window.sent[1] == (0.5, False)


def test_tail_tie_on_completion_time_retries_the_earlier_entry():
    # Frame 1 takes no air time, so both lost anchors complete at 0.25;
    # the earlier entry (frame 0) must be retried first, onto the one
    # clean flag.
    info = _info([(0.25,), (0.0,)], [0.25, 0.0], anchors={0, 1})
    case = _Case(
        info, range(2), [True, True, False] + [True] * 30, rtt=T, window_end=1.0
    )
    window = _single(case)
    assert window.sent[0][1] is True and window.sent[1][1] is False


def test_shedding_row_that_loses_an_anchor():
    info = _info([(T,)] * 6, [T] * 6, anchors={0, 3})
    case = _Case(
        info,
        [0, 1, 2, 3, 4, 5],
        [True, False, True, False, False, False] + [False] * 30,
        rtt=T,
        window_end=1.0,
        shed={1, 4},
    )
    window = _single(case)
    assert window.result.shed == 2 and window.result.dropped_at_sender == 2
    assert window.result.retransmissions >= 1


def test_backlogged_link_and_late_window_start():
    info = _info([(T,)] * 4, [T] * 4, anchors={0, 2})
    case = _Case(
        info,
        [2, 0, 1, 3],
        [False, True, True, False] + [False] * 30,
        rtt=T,
        window_start=2.0,
        window_end=3.0,
        fwd_busy=1.75,
    )
    _single(case)


def test_replay_past_the_flags_is_left_untouched():
    # Three lost retries of a two-packet anchor outrun an 8-flag buffer.
    info = _info([(T, T), (T,), (T,)], [2 * T, T, T], anchors={0})
    short = _Case(info, range(3), [True] * 8, rtt=0.0, window_end=2.0)
    long = _Case(info, range(3), [True, False] * 20, rtt=0.0, window_end=2.0)
    _replay_all([short, long])


# ----------------------------------------------------------------------
# A seeded battery over random windows, many rows per scan
# ----------------------------------------------------------------------


def _random_window(rng):
    n = rng.randint(3, 14)
    unit = rng.choice([0.01, 0.03125, 0.05])
    frag_times = [
        tuple(
            rng.choice([0.0, unit, unit * 1.5, unit * 0.3])
            for _ in range(rng.choice([1, 1, 2, 3]))
        )
        for _ in range(n)
    ]
    frame_ser = [sum(times) * rng.choice([1.0, 1.0, 0.9, 1.1]) for times in frag_times]
    anchors = rng.sample(range(n), rng.randint(1, max(1, n // 3)))
    window_start = rng.choice([0.0, 1.0, 2.5])
    window_end = window_start + sum(frame_ser) * rng.uniform(0.5, 2.5) + 1e-6
    rtt = rng.choice([0.0, unit * 0.5, unit, unit * 3])
    return _info(frag_times, frame_ser, anchors), window_start, window_end, rtt


def _random_case(rng, info, window_start, window_end, rtt):
    n = info.n
    packets = info.first_attempt_packets
    p_loss = rng.choice([0.1, 0.3, 0.6])
    # At most the flags the scan reads, so a leftover is exactly a refill.
    length = (
        packets + kernel.PREFETCH_SLACK
        if rng.random() < 0.8
        else rng.randint(packets // 2, packets + 8)
    )
    return _Case(
        info,
        rng.sample(range(n), n),
        [rng.random() < p_loss for _ in range(length)],
        rtt=rtt,
        window_start=window_start,
        window_end=window_end,
        shed=frozenset(
            offset
            for offset in range(n)
            if offset not in info.anchors and rng.random() < 0.2
        ),
        fwd_busy=rng.choice([0.0, window_start, max(0.0, window_start - 0.05)]),
    )


def _features(case, window) -> set:
    """Which corners of the sender loop ``window`` went through."""
    found = set()
    entries = list(zip(window.sent.items(), window.first_attempt))
    recovered = [c for (_, (c, delivered)), lost in entries if lost and delivered]
    first_only = [c for (_, (c, _)), lost in entries if not lost]
    if any(r < c for r in recovered for c in first_only):
        found.add("interleave")
    dropped = [
        k
        for k, offset in enumerate(case.plan.order)
        if offset not in window.sent and offset not in case.shed
    ]
    last_sent = max(
        (k for k, offset in enumerate(case.plan.order) if offset in window.sent),
        default=-1,
    )
    if dropped and dropped[0] < last_sent:
        found.add("budget_mid_loop")
    if any(
        lost and not delivered and offset in case.info.anchors
        for (offset, (_, delivered)), lost in entries
    ):
        found.add("retry_missed_budget")
    if case.shed and any(
        lost and offset in case.info.anchors for (offset, _), lost in entries
    ):
        found.add("shed_and_lost_anchor")
    return found


@pytest.mark.parametrize("seed", range(6))
def test_seeded_battery_matches_run_row_sender(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(12):
        window = _random_window(rng)
        cases = [_random_case(rng, *window) for _ in range(rng.randint(1, 24))]
        for case, result in zip(cases, _replay_all(cases)):
            seen |= _features(case, result)
    assert seen == {
        "interleave",
        "budget_mid_loop",
        "retry_missed_budget",
        "shed_and_lost_anchor",
    }


# ----------------------------------------------------------------------
# Whole fleets: the array program with every cohort replayed
# ----------------------------------------------------------------------

FLEET_CONFIGS = {
    "retry-heavy": ProtocolConfig(gop_size=4, p_good=0.6, p_bad=0.8, rtt=0.002),
    "phased": ProtocolConfig(
        gop_size=4,
        channel_phases=(GilbertPhase(60, 0.95, 0.3), GilbertPhase(10**9, 0.7, 0.8)),
    ),
    "quantile": ProtocolConfig(gop_size=4, p_good=0.8, burst_policy="quantile"),
    "fragmented": ProtocolConfig(gop_size=4, p_good=0.85, packet_size_bytes=2048),
    # A fast link, a sticky bad state and a short round trip: the idle
    # tail retries an anchor dozens of times, past the prefetched flags.
    "refilling": ProtocolConfig(
        gop_size=4, p_good=0.6, p_bad=0.95, rtt=0.002, bandwidth_bps=12_000_000.0
    ),
}


@pytest.mark.parametrize("name", sorted(FLEET_CONFIGS))
def test_replayed_fleets_match_the_reference_tier(name, monkeypatch):
    """Batches whose every lost-anchor cohort is replayed, refills and all.

    ``run_sessions_batch`` caps each row's prefetch at the windows it
    has left, so late windows also send rows past their flags back to
    ``run_row_sender``.
    """
    config = FLEET_CONFIGS[name]
    stream = make_video_stream(GopPattern.parse("IBBP"), gop_count=12)
    seeds = list(range(16))
    tier = kernel.tier_name()
    backend = accel.backend_name()
    try:
        kernel.set_tier(kernel.REFERENCE)
        expected = run_sessions_batch(stream, config, seeds=seeds, max_windows=6)
        accel.set_backend("numpy")
        kernel.set_tier(kernel.FUSED)
        monkeypatch.setattr(step, "_REPLAY_MIN_ROWS", 1)
        registry = obs.enable()
        obs.reset()
        try:
            got = run_sessions_batch(stream, config, seeds=seeds, max_windows=6)
            counters = registry.snapshot()["counters"]
        finally:
            obs.disable()
    finally:
        kernel.set_tier(tier)
        accel.set_backend(backend)
    assert got == expected
    assert counters["kernel.collapse.replay"] > 0
    if name == "refilling":
        assert counters["kernel.collapse.scalar"] > 0
        assert counters["batch.refills"] > 0
