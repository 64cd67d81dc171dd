"""Float-decided cell location against the always-exact loops it replaced.

``exact.locate`` decides the cell of a point p/q among Fraction breakpoints
by the correctly rounded float of p/q against the float hints, and compares
exactly only when the point's float equals a hint.  The references below
are the earlier loops, which fixed up the float bisection by exact
comparisons in both directions on every call: ``ref_locate`` on a Fraction
point, ``ref_cell`` on p/q by integer cross-products.  The inputs stress the
ties: breakpoints closer than the float spacing, so that several share a
hint, some with the float 1.0; points on a breakpoint and within 2^-70 of
one; points whose float rounds to 1.0; 0 and 1; and p/q not reduced.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.exact import locate

F = Fraction
TINY = F(1, 2**70)


# ---------------------------------------------------------------------------
# references


def ref_locate(bps, hints, x):
    """Float bisect hint, then exact fixup up and down."""
    i = bisect_right(hints, float(x)) - 1
    if i < 0:
        i = 0
    last = len(bps) - 2
    if i > last:
        i = last
    while i < last and bps[i + 1] <= x:
        i += 1
    while i > 0 and bps[i] > x:
        i -= 1
    return i


def ref_cell(cuts, hints, p, q):
    """Float bisect hint, then exact integer fixup up and down."""
    last = len(cuts) - 2
    i = bisect_right(hints, p / q) - 1
    while i < last and cuts[i + 1][0] * q <= p * cuts[i + 1][1]:
        i += 1
    while i > 0 and cuts[i][0] * q > p * cuts[i][1]:
        i -= 1
    return i


# ---------------------------------------------------------------------------
# inputs


@st.composite
def clustered_breakpoints(draw) -> list[Fraction]:
    """0 = b0 < ... < bm = 1 in clusters narrower than the float spacing.

    Each cluster is a centre c (k/2^60, a small-denominator rational, or a
    point whose float is 1.0) plus offsets j/2^70, so its members share one
    float hint or straddle two.
    """
    centres = draw(
        st.lists(
            st.one_of(
                st.integers(1, 2**60 - 1).map(lambda k: F(k, 2**60)),
                st.tuples(st.integers(1, 40), st.integers(2, 41))
                .filter(lambda t: t[0] < t[1])
                .map(lambda t: F(*t)),
                st.just(1 - F(4, 2**70)),
            ),
            min_size=0,
            max_size=4,
        )
    )
    inner = {
        c + j * TINY
        for c in centres
        for j in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True))
    }
    return [F(0), *sorted(b for b in inner if 0 < b < 1), F(1)]


@st.composite
def located_points(draw, bps) -> Fraction:
    """0, a breakpoint, within 2^-70 of one, a float-1.0 point or anywhere."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return F(0)
    if kind == 1:
        return 1 - draw(st.integers(1, 2**10)) * TINY
    if kind == 4:
        return F(draw(st.integers(0, 2**64 - 1)), 2**64)
    b = draw(st.sampled_from(bps[:-1]))
    if kind == 2:
        return b
    # a point strictly inside (b - 2^-70, b + 2^-70), kept in [0, 1)
    x = b + draw(st.integers(-2**10 + 1, 2**10 - 1)) * TINY / 2**10
    return x if 0 <= x < 1 else b


def check_cell(bps, i, x):
    assert bps[i] <= x < bps[i + 1]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_locate_matches_exact_reference(data):
    bps = data.draw(clustered_breakpoints())
    hints = [float(b) for b in bps[:-1]]
    for _ in range(8):
        x = data.draw(located_points(bps))
        i = locate(bps, hints, x.numerator, x.denominator)
        assert i == ref_locate(bps, [*hints, 1.0], x)
        check_cell(bps, i, x)
    # x = 1 is in the last piece
    assert locate(bps, hints, 1, 1) == ref_locate(bps, [*hints, 1.0], F(1)) == len(bps) - 2


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_cell_matches_exact_reference(data):
    bps = data.draw(clustered_breakpoints())
    cuts = [(b.numerator, b.denominator) for b in bps]
    hints = [float(b) for b in bps[:-1]]
    for x in [*(data.draw(located_points(bps)) for _ in range(8)), F(1)]:
        # p/q need not be reduced
        m = data.draw(st.sampled_from([1, 3, 2**40]))
        p, q = x.numerator * m, x.denominator * m
        i = locate(bps, hints, p, q)
        assert i == ref_cell(cuts, hints, p, q)
        if x < 1:
            check_cell(bps, i, x)
        else:
            assert i == len(bps) - 2


def test_tied_hints_are_decided_exactly():
    # three breakpoints and the point between each pair share one float
    c = F(1, 3)
    bps = [F(0), c - TINY, c, c + TINY, F(1)]
    hints = [float(b) for b in bps[:-1]]
    assert hints[1] == hints[2] == hints[3]
    for x, want in [
        (c - 2 * TINY, 0), (c - TINY, 1), (c - TINY / 2, 1),
        (c, 2), (c + TINY / 2, 2), (c + TINY, 3), (c + 2 * TINY, 3),
    ]:
        assert float(x) == hints[2]
        assert locate(bps, hints, x.numerator, x.denominator) == want
