"""Property tests for the index-aligned PL map queries.

``PLCircleMap.c0_distance`` (a merge walk over the two breakpoint tuples),
the constructor (one slope per raw piece) and ``image_of_set`` (interior
lift values read by index) are compared with the plain evaluate-everywhere
versions they replaced, which are kept here as references, with the
Fraction slope formula the constructor used before it worked on integer
numerators and denominators.  Both the constructor's order check and the
merge walk order breakpoints by their floats and compare exactly only on a
float tie, so their inputs include breakpoints closer than float spacing.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circledyn import formats
from circledyn.errors import InvalidInput
from circledyn.exact import HALF, ONE, ZERO, IntervalSet, Iv, circle_dist, mod1
from circledyn.plmaps import Observable, PLCircleMap, _pl_graph

from conftest import reference_slopes

F = Fraction


@st.composite
def raw_lifts(draw, bps=None) -> tuple[list[Fraction], list[Fraction]]:
    """Breakpoints and lift values of degree -2..3, with collinear runs,
    plateaus and lift values several turns apart."""
    if bps is None:
        den = draw(st.sampled_from([6, 12, 35]))
        inner = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=7))
        bps = [F(0)] + [F(x, den) for x in sorted(inner)] + [F(1)]
    vals = [F(draw(st.integers(-60, 60)), 12)]
    for k in range(1, len(bps)):
        kind = draw(st.integers(0, 3))
        if kind == 0 and k >= 2:
            # continue the previous piece's slope
            slope = (vals[-1] - vals[-2]) / (bps[k - 1] - bps[k - 2])
            vals.append(vals[-1] + slope * (bps[k] - bps[k - 1]))
        elif kind == 1:
            vals.append(vals[-1])
        else:
            vals.append(F(draw(st.integers(-60, 60)), 12))
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return bps, vals


@st.composite
def pl_maps(draw, bps=None) -> PLCircleMap:
    return PLCircleMap(*draw(raw_lifts(bps)))


@st.composite
def map_pairs(draw) -> tuple[PLCircleMap, PLCircleMap]:
    """Two maps whose breakpoints are shared, nested, disjoint or unrelated."""
    f = draw(pl_maps())
    how = draw(st.sampled_from(["shared", "subset", "disjoint", "any"]))
    if how == "shared":
        return f, draw(pl_maps(list(f.breakpoints)))
    if how == "subset":
        inner = [b for b in f.breakpoints[1:-1] if draw(st.booleans())]
        return f, draw(pl_maps([F(0), *inner, F(1)]))
    if how == "disjoint":
        # interior breakpoints with denominator 37 miss those of f
        inner = draw(st.lists(st.integers(1, 36), unique=True, max_size=7))
        return f, draw(pl_maps([F(0)] + [F(x, 37) for x in sorted(inner)] + [F(1)]))
    return f, draw(pl_maps())


def reference_c0(f: PLCircleMap, g: PLCircleMap) -> Fraction:
    """Sorted union of the breakpoints, both lifts evaluated at each."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    deltas = [f.lift_evaluate(b) - g.lift_evaluate(b) for b in bps]
    best = ZERO
    for i in range(len(bps) - 1):
        u, v = deltas[i], deltas[i + 1]
        lo, hi = (u, v) if u <= v else (v, u)
        m_lo = math.ceil(2 * lo)
        m_hi = math.floor(2 * hi)
        has_odd = m_lo <= m_hi and (m_lo % 2 == 1 or m_lo + 1 <= m_hi)
        cand = HALF if has_odd else max(circle_dist(u, ZERO), circle_dist(v, ZERO))
        if cand > best:
            best = cand
        if best == HALF:
            return HALF
    return best


def reference_strip(bps, vals):
    """The constructor's old collinear stripping: slope from the last kept
    point against the slope of the next raw piece."""
    vals = [v - math.floor(vals[0]) for v in vals]
    keep_b, keep_v = [bps[0]], [vals[0]]
    for i in range(1, len(bps) - 1):
        sl = (vals[i] - keep_v[-1]) / (bps[i] - keep_b[-1])
        sr = (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
        if sl != sr:
            keep_b.append(bps[i])
            keep_v.append(vals[i])
    keep_b.append(bps[-1])
    keep_v.append(vals[-1])
    slopes = tuple(
        (keep_v[i + 1] - keep_v[i]) / (keep_b[i + 1] - keep_b[i])
        for i in range(len(keep_b) - 1)
    )
    return tuple(keep_b), tuple(keep_v), slopes


@st.composite
def tied_points(draw) -> list[Fraction]:
    """Sorted points of (0, 1) closer than float spacing: clusters
    k/2^60 + j/2^70 that share the float of k/2^60, points 1 - j/2^70 whose
    float is 1.0, and a few ordinary points k/12."""
    pts = set()
    # k = m * 2^8 with m < 2^52 makes k/2^60 a float in [1/4, 1), and
    # j/2^70 <= 2^-61 stays below half its spacing
    for m in draw(st.lists(st.integers(2**50, 2**52 - 1), max_size=3)):
        k = m << 8
        js = draw(st.lists(st.integers(0, 2**9), min_size=1, max_size=4))
        cluster = {F(k, 2**60) + F(j, 2**70) for j in js}
        assert {float(x) for x in cluster} == {k / 2**60}
        pts.update(cluster)
    near_one = {1 - F(j, 2**70) for j in draw(st.lists(st.integers(1, 2**9), max_size=3))}
    assert all(float(x) == 1.0 for x in near_one)
    pts.update(near_one)
    pts.update(F(k, 12) for k in draw(st.lists(st.integers(1, 11), max_size=2)))
    return sorted(pts)


@st.composite
def tied_lifts(draw) -> tuple[list[Fraction], list[Fraction]]:
    return draw(raw_lifts([F(0), *draw(tied_points()), F(1)]))


@st.composite
def tied_map_pairs(draw) -> tuple[PLCircleMap, PLCircleMap]:
    """Two small bumps of one map, each on its own subset of tied points.

    Each bump is at most 3/13, so every difference stays below 1/2 and the
    distance rests on which exact points the two maps share."""
    base = draw(pl_maps())
    pool = draw(tied_points())
    bump = st.integers(-3, 3).map(lambda k: F(k, 13))

    def bumped() -> PLCircleMap:
        inner = sorted(
            set(base.breakpoints[1:-1]) | {p for p in pool if draw(st.booleans())}
        )
        bps = [F(0), *inner, F(1)]
        vals = [base.lift_evaluate(b) + draw(bump) for b in bps]
        vals[-1] = vals[0] + base.degree
        return PLCircleMap(bps, vals)

    return bumped(), bumped()


def _wrap(lo, loc, hi, hic) -> IntervalSet:
    # a span of exactly one turn misses its shared end unless one end is closed
    if hi - lo > ONE or (hi - lo == ONE and (loc or hic)):
        return IntervalSet([Iv(ZERO, True, ONE, True)])
    shift = math.floor(lo)
    lo, hi = lo - shift, hi - shift
    if hi <= ONE:
        return IntervalSet([Iv(lo, loc, hi, hic)])
    return IntervalSet([Iv(lo, loc, ONE, True), Iv(ZERO, True, hi - ONE, hic)])


def reference_image(f: PLCircleMap, iv: Iv) -> IntervalSet:
    """Cut at every breakpoint inside iv and evaluate the lift at each cut."""
    inner = [b for b in f.breakpoints if iv.lo < b < iv.hi]
    cuts = [iv.lo] + inner + [iv.hi]
    out = []
    for j in range(len(cuts) - 1):
        a, b = cuts[j], cuts[j + 1]
        fa, fb = f.lift_evaluate(a), f.lift_evaluate(b)
        a_closed = iv.lo_closed if a == iv.lo else True
        b_closed = iv.hi_closed if b == iv.hi else True
        if fa == fb:
            out.append(IntervalSet.point(mod1(fa)))
        elif fa < fb:
            out.append(_wrap(fa, a_closed, fb, b_closed))
        else:
            out.append(_wrap(fb, b_closed, fa, a_closed))
    if iv.lo == iv.hi:
        out.append(IntervalSet.point(f.evaluate(iv.lo)))
    return IntervalSet.union_all(out)


@st.composite
def map_and_intervals(draw) -> tuple[PLCircleMap, list[Iv]]:
    """A map and intervals whose ends are 0, 1, breakpoints or rationals."""
    f = draw(pl_maps())
    ends = st.one_of(
        st.sampled_from([F(0), F(1)]),
        st.sampled_from(f.breakpoints),
        st.integers(0, 70).map(lambda k: F(k, 70)),
    )
    ivs = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = sorted((draw(ends), draw(ends)))
        if a == b or draw(st.integers(0, 4)) == 0:
            ivs.append(Iv(a, True, a, True))
        else:
            ivs.append(Iv(a, draw(st.booleans()), b, draw(st.booleans())))
    return f, ivs


@settings(max_examples=500, deadline=None)
@given(map_pairs())
def test_c0_distance_matches_reference(pair):
    f, g = pair
    assert f.c0_distance(g) == reference_c0(f, g)
    assert g.c0_distance(f) == reference_c0(g, f)


@settings(max_examples=300, deadline=None)
@given(map_pairs(), pl_maps())
def test_c0_distance_is_a_metric(pair, h):
    f, g = pair
    assert f.c0_distance(f) == 0
    assert f.c0_distance(g) == g.c0_distance(f)
    assert f.c0_distance(h) <= f.c0_distance(g) + g.c0_distance(h)


@settings(max_examples=300, deadline=None)
@given(tied_map_pairs())
def test_c0_distance_on_tied_floats_matches_reference(pair):
    f, g = pair
    assert f.c0_distance(g) == reference_c0(f, g)
    assert g.c0_distance(f) == reference_c0(g, f)


@settings(max_examples=500, deadline=None)
@given(st.one_of(raw_lifts(), tied_lifts()))
def test_constructor_matches_old_stripping(raw):
    bps, vals = raw
    f = PLCircleMap(bps, vals)
    keep_b, keep_v, slopes = reference_strip(bps, vals)
    assert (f.breakpoints, f.lift_values) == (keep_b, keep_v)
    assert tuple(F(b, d) for _, b, d in f._forms) == slopes
    _, _, forms, hints, bends = _pl_graph(bps, vals)
    slopes = reference_slopes(bps, vals)
    assert [F(b, d) for _, b, d in forms] == slopes
    assert hints == [float(b) for b in bps[:-1]]
    assert bends == [i for i in range(1, len(slopes)) if slopes[i - 1] != slopes[i]]


@st.composite
def wide_lifts(draw) -> tuple[list[Fraction], list[Fraction]]:
    """``raw_lifts`` or ``tied_lifts`` with every value shifted by one
    rational of denominator 2^60 + 33 or 1, which keeps the plateaus and
    collinear runs."""
    bps, vals = draw(st.one_of(raw_lifts(), tied_lifts()))
    den = draw(st.sampled_from([1, 2**60 + 33]))
    shift = F(draw(st.integers(-3 * den, 3 * den)), den)
    return bps, [v + shift for v in vals]


def assert_forms(bps, vals, forms):
    """Each form (A, B, D) is reduced, has D > 0 and is the line through
    its piece's two end points."""
    assert len(forms) == len(bps) - 1
    for (a, b, d), x0, x1, y0, y1 in zip(forms, bps, bps[1:], vals, vals[1:]):
        assert d > 0 and math.gcd(a, b, d) == 1
        assert (a + b * x0) / d == y0 and (a + b * x1) / d == y1


@settings(max_examples=500, deadline=None)
@given(wide_lifts())
def test_each_form_is_the_reduced_line_through_its_ends(raw):
    bps, vals = raw
    f = PLCircleMap(bps, vals)
    assert_forms(f.breakpoints, f.lift_values, f._forms)
    # the same graph closed up as an observable, whose pieces are not merged
    phi = Observable(bps, [*vals[:-1], vals[0]])
    assert_forms(phi.breakpoints, phi.values, phi._forms)


@settings(max_examples=300, deadline=None)
@given(tied_lifts(), st.data())
def test_equal_or_descending_breakpoints_are_invalid(raw, data):
    bps, vals = raw
    i = data.draw(st.integers(1, len(bps) - 2)) if len(bps) > 2 else None
    if i is None:
        bad = [F(0), F(0), F(1)]
    elif data.draw(st.booleans()) or i == len(bps) - 2:
        bad = bps[: i + 1] + bps[i:]  # bps[i] twice
    else:
        bad = bps[:i] + [bps[i + 1], bps[i]] + bps[i + 2 :]  # a descent
    with pytest.raises(InvalidInput, match="strictly increasing"):
        PLCircleMap(bad, vals[:1] * (len(bad) - 1) + vals[-1:])


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_lifts(), tied_lifts()))
@example(([F(0), F(1, 3), F(1)], [F(-7, 3), F(5, 2), F(-4, 3)]))
def test_map_record_round_trip(raw):
    f = PLCircleMap(*raw)
    rec = formats.map_to_record(f)
    back = formats.map_from_record(rec)
    assert back == f
    assert formats.dumps(formats.map_to_record(back)) == formats.dumps(rec)


@settings(max_examples=500, deadline=None)
@given(map_and_intervals())
def test_image_of_iv_matches_reference(case):
    f, ivs = case
    for iv in ivs:
        assert f.image_of_set(IntervalSet([iv])).ivs == reference_image(f, iv).ivs
    s = IntervalSet(ivs)
    expected = IntervalSet.union_all(reference_image(f, iv) for iv in s.ivs)
    assert f.image_of_set(s).ivs == expected.ivs


def test_image_of_iv_at_the_ends_of_the_circle():
    # degree 2, a breakpoint at 1/2: the ends 0 and 1 and the point 1 itself
    f = PLCircleMap([F(0), F(1, 2), F(1)], [F(1, 4), F(3, 4), F(9, 4)])
    assert f.image_of_set(IntervalSet.point(F(1))).ivs == (Iv(F(1, 4), True, F(1, 4), True),)
    full = f.image_of_set(IntervalSet([Iv(F(0), True, F(1), True)]))
    assert full == IntervalSet([Iv(F(0), True, F(1), True)])
    # (1/2, 3/4) lifts to (3/4, 3/2), which wraps past 1
    wrap = f.image_of_set(IntervalSet([Iv(F(1, 2), False, F(3, 4), False)]))
    assert wrap.ivs == (Iv(F(0), True, F(1, 2), False), Iv(F(3, 4), False, F(1), True))


def test_image_of_an_open_turn_misses_one_point():
    # an open interval whose lift spans exactly one turn covers the circle
    # except the point its two ends share
    image = PLCircleMap.rotation(F(1, 3)).image_of_set(
        IntervalSet([Iv(F(0), False, F(1), False)])
    )
    assert image.ivs == (Iv(F(0), True, F(1, 3), False), Iv(F(1, 3), False, F(1), True))
    assert not image.contains_point(F(1, 3))
    assert image.contains_point(F(0)) and image.contains_point(F(2, 3))
    # the missing point is 0 ~ 1
    doubling = PLCircleMap([F(0), F(1)], [F(0), F(2)])
    for f, s in (
        (PLCircleMap.identity(), IntervalSet([Iv(F(0), False, F(1), False)])),
        (doubling, IntervalSet([Iv(F(0), False, F(1, 2), False)])),
        (doubling, IntervalSet([Iv(F(1, 2), False, F(1), False)])),
    ):
        image = f.image_of_set(s)
        assert image == IntervalSet([Iv(F(0), False, F(1), False)])
        assert not image.contains_point(F(0)) and not image.contains_point(F(1))
    # a closed end holds the shared point: the whole circle
    half_open = IntervalSet([Iv(F(1, 4), True, F(3, 4), False)])
    assert doubling.image_of_set(half_open) == IntervalSet([Iv(F(0), True, F(1), True)])


def test_image_of_set_outside_unit_interval_is_invalid():
    f = PLCircleMap.identity()
    with pytest.raises(InvalidInput):
        f.image_of_set(IntervalSet([Iv(F(1, 2), True, F(3, 2), True)]))
