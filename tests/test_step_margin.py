"""Item v(b) of ``verify_shredding`` on integers, against the set route.

Each cycle step asks whether g(cl W) lies in the next open arc, and by how
much.  ``shredder._step_margin`` reads the lift range of g over the closed
arc (``PLCircleMap.lift_range``) and decides it against the open arc by
integer cross products.  The route it replaced built two one-arc interval
sets and asked ``IntervalSet.min_gap_to_boundary`` of the image set; it is
kept here as the reference, and the margins must be equal, or None from
both.  The inputs stress what the set route decided through its seam
rules: arcs of length 0 and 1, arcs that wrap past 0, ends 2^-70 off a
breakpoint or off an image end, images that span a turn or more, and image
ends exactly on the next arc's ends.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from circledyn.exact import ONE, ZERO, Arc, IntervalSet, mod1
from circledyn.expanding import expanding_map
from circledyn.plmaps import PLCircleMap
from circledyn.shredder import _step_margin, shred, verify_shredding

F = Fraction
TINY = F(1, 2**70)


def set_route(g: PLCircleMap, w: Arc, nxt: Arc) -> Fraction | None:
    """The margin as ``verify_shredding`` took it before: the image set of
    the closed arc within the set of the next open arc."""
    return IntervalSet.from_arcs((nxt,), closed=False).min_gap_to_boundary(
        g.image_of_set(IntervalSet.from_arcs((w,), closed=True))
    )


def walk_range(g: PLCircleMap, w: Arc) -> tuple[Fraction, Fraction]:
    """The least and greatest lift value over [s, s + l], read off the
    whole lift walk."""
    lifts = g._walk(w.start, w.start + w.length)[1]
    return min(lifts), max(lifts)


# ---------------------------------------------------------------------------
# inputs


@st.composite
def pl_maps(draw) -> PLCircleMap:
    """A PL map of degree -1 to 3 on a 1/64 grid, one breakpoint perhaps
    2^-70 off it, with flat pieces and pieces that rise or fall by up to
    two turns."""
    degree = draw(st.integers(-1, 3))
    xs = sorted(draw(st.sets(st.integers(1, 63), max_size=6)))
    bps = [ZERO, *(F(x, 64) for x in xs), ONE]
    if xs and draw(st.booleans()):
        bps[draw(st.integers(1, len(xs)))] += draw(st.sampled_from([TINY, -TINY]))
    v0 = F(draw(st.integers(-32, 32)), 32)
    vals = [v0]
    for b in bps[1:-1]:
        if draw(st.booleans()):
            vals.append(vals[-1])
        else:
            vals.append(v0 + degree * b + F(draw(st.integers(-64, 64)), 32))
    vals.append(v0 + degree)
    return PLCircleMap(bps, vals)


@st.composite
def arcs(draw, g: PLCircleMap) -> Arc:
    """An arc that starts on a breakpoint or on a 1/128 grid, perhaps 2^-70
    off, of length 0, 1, a grid length, or the length that ends it on a
    breakpoint, perhaps 2^-70 short; long arcs cross several breakpoints
    and may wrap past 0."""
    starts = st.sampled_from(g.breakpoints[:-1]) | st.integers(0, 127).map(
        lambda k: F(k, 128)
    )
    s = mod1(draw(starts) + draw(st.sampled_from([ZERO, ZERO, TINY, -TINY])))
    kind = draw(st.sampled_from(["zero", "one", "grid", "to breakpoint"]))
    if kind == "zero":
        length = ZERO
    elif kind == "one":
        length = ONE
    elif kind == "grid":
        length = F(draw(st.integers(1, 128)), 128)
    else:
        end = draw(st.sampled_from(g.breakpoints)) + draw(st.integers(0, 1))
        length = min(max(end - s, ZERO), ONE)
    if length and draw(st.booleans()):
        length -= TINY
    return Arc(s, length)


@st.composite
def next_arcs(draw, g: PLCircleMap, w: Arc) -> Arc:
    """An arc drawn on its own, or one around the image of w whose ends lie
    on the image's ends, 2^-70 past them or 1/128 past them."""
    if draw(st.booleans()):
        return draw(arcs(g))
    lo, hi = walk_range(g, w)
    before, after = (
        draw(st.sampled_from([ZERO, TINY, F(1, 128), -TINY])) for _ in range(2)
    )
    start = mod1(lo - before)
    length = hi - lo + before + after
    return Arc(start, min(max(length, ZERO), ONE))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=1500, deadline=None)
@given(st.data())
def test_step_margin_is_the_set_route(data):
    g = data.draw(pl_maps(), label="g")
    w = data.draw(arcs(g), label="w")
    nxt = data.draw(next_arcs(g, w), label="next")
    want = set_route(g, w, nxt)
    assert _step_margin(g, w, nxt) == want
    lo, hi = walk_range(g, w)
    event("covered" if want is not None else "turn" if hi - lo >= 1 else "escapes")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_lift_range_is_the_range_of_the_walk(data):
    g = data.draw(pl_maps(), label="g")
    w = data.draw(arcs(g), label="w")
    n_lo, d_lo, n_hi, d_hi = g.lift_range(w)
    assert d_lo > 0 and d_hi > 0
    assert (F(n_lo, d_lo), F(n_hi, d_hi)) == walk_range(g, w)


# ---------------------------------------------------------------------------
# cases


IDENTITY = PLCircleMap([ZERO, ONE], [ZERO, ONE])
# rises from 0 to 1/2 on [0, 1/2], flat at 1/2 on [1/2, 3/4], then to 1
RAMP = PLCircleMap([ZERO, F(1, 2), F(3, 4), ONE], [ZERO, F(1, 2), F(1, 2), ONE])


@pytest.mark.parametrize(
    "g, w, nxt, margin",
    [
        # the image [1/4, 1/2] against the next arc's ends
        (IDENTITY, Arc(F(1, 4), F(1, 4)), Arc(F(1, 8), F(3, 8)), None),
        (IDENTITY, Arc(F(1, 4), F(1, 4)), Arc(F(1, 8), F(3, 8) + TINY), TINY),
        (IDENTITY, Arc(F(1, 4), F(1, 4)), Arc(F(1, 4), F(1, 2)), None),
        (IDENTITY, Arc(F(1, 4), F(1, 4)), Arc(F(1, 4) - TINY, F(1, 2)), TINY),
        (IDENTITY, Arc(F(1, 4), F(1, 4)), Arc(F(1, 8), F(1, 2)), F(1, 8)),
        # an image across 0 ~ 1 in an arc across it, and in one that is not
        (IDENTITY, Arc(F(7, 8), F(1, 4)), Arc(F(3, 4), F(1, 2)), F(1, 8)),
        (IDENTITY, Arc(F(7, 8), F(1, 4)), Arc(F(1, 2), F(1, 2)), None),
        # a point image: on the open arc's start, inside, at 0 ~ 1
        (RAMP, Arc(F(1, 2), F(1, 4)), Arc(F(1, 2), F(1, 4)), None),
        (RAMP, Arc(F(1, 2), F(1, 4)), Arc(F(1, 4), F(1, 2)), F(1, 4)),
        (RAMP, Arc(ZERO, ZERO), Arc(F(3, 4), F(1, 2)), F(1, 4)),
        # the next arc of length 0 holds nothing, and of length 1 all but
        # its start; an image of a whole turn never fits
        (RAMP, Arc(F(1, 2), F(1, 4)), Arc(F(1, 2), ZERO), None),
        (RAMP, Arc(F(1, 2), F(1, 4)), Arc(ZERO, ONE), F(1, 2)),
        (IDENTITY, Arc(ZERO, ONE), Arc(TINY, ONE), None),
    ],
)
def test_step_margin_cases(g, w, nxt, margin):
    assert set_route(g, w, nxt) == margin
    assert _step_margin(g, w, nxt) == margin


def test_a_shredded_map_reads_every_cycle_step_off_one_piece(monkeypatch):
    # each cycle arc of a shred is a subcell interior, one plateau from
    # breakpoint to breakpoint, so item v(b) never walks the lift
    g, report = shred(expanding_map(2), F(1, 5))

    def walk(*args):
        raise AssertionError("item v(b) walked the lift")

    monkeypatch.setattr(PLCircleMap, "_walk", walk)
    assert verify_shredding(g, report).all_passed
