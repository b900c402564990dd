"""FleetState / FleetView over arena segments at planner scale (K >= 10^4).

``test_kernel.py`` pins the shared-memory round trip on a three-row
fleet; the hierarchical fan-out's result arena carries columns at tens
of thousands of rows through the same ``FleetView`` over a
``kernel.new_segment(kind="arena")`` segment, so this suite pins that
path at that scale — exact float64 round-trips, the column order the
zero-copy views rely on, and a Hypothesis property over the
admitted/departed row masks the serving layer actually stores in these
columns.
"""

from __future__ import annotations

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernel

K = 10_000


class TestLargeFleetRoundTrip:
    def test_round_trip_is_exact_at_ten_thousand_rows(self, arena_round_trip):
        columns = {
            name: [
                # Awkward float64 values: negatives, tiny magnitudes,
                # and fractions with no short decimal form.
                (index * 0.1 + offset) * (-1.0 if index % 7 == 0 else 1.0) / 3.0
                for index in range(K)
            ]
            for offset, name in enumerate(kernel.ROW_COLUMNS)
        }
        state = kernel.FleetState(columns)
        copied = arena_round_trip(state)
        assert copied == state
        for name in kernel.ROW_COLUMNS:
            assert copied.column(name) == columns[name]

    def test_column_order_is_pinned(self):
        # The zero-copy views address columns by position in this exact
        # order; reordering it silently corrupts every mapped fleet.
        assert kernel.ROW_COLUMNS == (
            "fwd_busy",
            "fb_busy",
            "pos",
            "fwd_bad",
            "fb_bad",
            "fwd_drawn",
            "fb_drawn",
            "ack_seq",
        )
        state = kernel.FleetState(
            {name: [float(i)] for i, name in enumerate(kernel.ROW_COLUMNS)}
        )
        assert state.names == kernel.ROW_COLUMNS

    def test_view_strides_match_state_layout(self):
        rows = 4096
        columns = {
            name: [float(offset * rows + index) for index in range(rows)]
            for offset, name in enumerate(kernel.ROW_COLUMNS)
        }
        names = kernel.ROW_COLUMNS
        segment = kernel.new_segment(8 * len(names) * rows, kind="arena")
        try:
            # Column-major at a stride of ``rows`` doubles: column k's
            # first cell sits at double offset k * rows of the buffer.
            flat = memoryview(segment.buf).cast("d")
            for offset, name in enumerate(names):
                flat[offset * rows:(offset + 1) * rows] = array("d", columns[name])
            flat.release()
            with kernel.FleetView(segment.buf, names, rows) as view:
                for name in names:
                    column = view.column(name)
                    assert column[0] == columns[name][0]
                    assert column[rows - 1] == columns[name][rows - 1]
                copied = {name: list(view.column(name)) for name in names}
        finally:
            segment.close()
            segment.unlink()
        assert copied == columns


@st.composite
def masked_fleets(draw):
    """A fleet's admitted/departed masks plus value columns, SoA style."""
    rows = draw(st.integers(min_value=1, max_value=512))
    mask_bits = st.lists(
        st.booleans(), min_size=rows, max_size=rows
    )
    admitted = draw(mask_bits)
    departed = draw(mask_bits)
    values = draw(
        st.lists(
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                min_value=-1e12,
                max_value=1e12,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    return {
        "admitted": [1.0 if bit else 0.0 for bit in admitted],
        "departed": [1.0 if bit else 0.0 for bit in departed],
        "share_bps": values,
    }


class TestMaskProperty:
    @given(columns=masked_fleets())
    @settings(max_examples=50, deadline=None)
    def test_masks_survive_the_shared_copy(self, columns, arena_round_trip):
        state = kernel.FleetState(columns)
        copied = arena_round_trip(state)
        assert copied == state
        # Masks must stay exactly 0.0/1.0 — a transport that nudged one
        # would silently flip a session's admitted/departed status.
        for name in ("admitted", "departed"):
            assert set(copied.column(name)) <= {0.0, 1.0}
            assert copied.column(name) == columns[name]
        assert all(
            math.isfinite(value) for value in copied.column("share_bps")
        )
        assert copied.column("share_bps") == columns["share_bps"]
