"""Property tests for the bisecting set queries.

``PLCircleMap.preimage_of_set`` is compared with the plain pieces x intervals
loop it replaced, and with pointwise membership, on small maps and on large
ones whose float index keys tie; the ``IntervalSet`` queries are compared
with brute-force scans on the circle, where 0 and 1 are the same point.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import plmaps
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.exact import Arc, IntervalSet, Iv, circle_dist, mod1
from circledyn.plmaps import PLCircleMap

F = Fraction


@st.composite
def pl_maps(draw) -> PLCircleMap:
    """PL maps of degree -2..3 with plateaus, negative slopes and pieces
    whose lift range spans several turns."""
    den = draw(st.sampled_from([6, 12, 30]))
    inner = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=6))
    bps = [F(0)] + [F(x, den) for x in sorted(inner)] + [F(1)]
    vals = [F(draw(st.integers(-3 * den, 3 * den)), den)]
    for _ in bps[1:]:
        if draw(st.integers(0, 3)) == 0:
            vals.append(vals[-1])
        else:
            vals.append(F(draw(st.integers(-3 * den, 3 * den)), den))
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return PLCircleMap(bps, vals)


@st.composite
def interval_sets(draw) -> IntervalSet:
    """Sets inside [0, 1] with mixed endpoint flags and single points."""
    den = draw(st.sampled_from([4, 6, 12]))
    ivs = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, den))
        if draw(st.integers(0, 3)) == 0:
            ivs.append(Iv(F(a, den), True, F(a, den), True))
            continue
        b = draw(st.integers(0, den))
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            ivs.append(Iv(F(lo, den), True, F(lo, den), True))
        else:
            ivs.append(
                Iv(F(lo, den), draw(st.booleans()), F(hi, den), draw(st.booleans()))
            )
    return IntervalSet(ivs)


def reference_preimage(f: PLCircleMap, s: IntervalSet) -> IntervalSet:
    """Every piece against every interval and every shift in range."""
    out: list[IntervalSet] = []
    bps = f.breakpoints
    for i in range(len(bps) - 1):
        a, b = bps[i], bps[i + 1]
        fa, fb = f.lift_values[i], f.lift_values[i + 1]
        slope = (fb - fa) / (b - a)
        lo_v, hi_v = (fa, fb) if fa <= fb else (fb, fa)
        for iv in s.ivs:
            for k in range(math.floor(lo_v - iv.hi), math.ceil(hi_v - iv.lo) + 1):
                u, v = iv.lo + k, iv.hi + k
                if v < lo_v or u > hi_v:
                    continue
                if slope == 0:
                    if iv.contains(fa - k):
                        out.append(IntervalSet([Iv(a, True, b, True)]))
                    continue
                t1 = a + (u - fa) / slope
                t2 = a + (v - fa) / slope
                if slope > 0:
                    plo, ploc, phi, phic = t1, iv.lo_closed, t2, iv.hi_closed
                else:
                    plo, ploc, phi, phic = t2, iv.hi_closed, t1, iv.lo_closed
                if plo < a:
                    plo, ploc = a, True
                if phi > b:
                    phi, phic = b, True
                if plo > phi or (plo == phi and not (ploc and phic)):
                    continue
                out.append(IntervalSet([Iv(plo, ploc, phi, phic)]))
    return IntervalSet.union_all(out)


TINY = F(1, 2**70)


@st.composite
def large_maps(draw) -> PLCircleMap:
    """Maps of 50-400 pieces with denominators near 2**40, plateaus, one
    piece whose lift spans at least three turns, and a few lift values
    within 2**-70 of another one, so that float keys tie."""
    rnd = draw(st.randoms(use_true_random=False))
    pieces = draw(st.integers(50, 400))
    den = 2**40 + rnd.randrange(-999, 1000)
    xs = sorted(rnd.sample(range(1, den), pieces - 1))
    bps = [F(0)] + [F(x, den) for x in xs] + [F(1)]
    vals = []
    for _ in bps:
        if vals and rnd.randrange(8) == 0:
            vals.append(vals[-1])
        elif vals and rnd.randrange(8) == 0:
            vals.append(rnd.choice(vals) + rnd.randrange(-3, 4) * TINY)
        else:
            d = 2**40 + rnd.randrange(-999, 1000)
            vals.append(F(rnd.randrange(-2 * d, 3 * d), d))
    wide = rnd.randrange(pieces - 1)
    vals[wide + 1] = vals[wide] + rnd.choice([-1, 1]) * (3 + F(rnd.randrange(den), den))
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return PLCircleMap(bps, vals)


@st.composite
def tied_sets(draw, f: PLCircleMap) -> IntervalSet:
    """Sets inside [0, 1] whose ends sit on shifted lift values of f, within
    2**-70 of one, or within 2**-70 of each other."""
    rnd = draw(st.randoms(use_true_random=False))
    ends = []
    for _ in range(2 * draw(st.integers(1, 8))):
        pick = rnd.randrange(3)
        if pick == 0:
            x = mod1(rnd.choice(f.lift_values))
        elif pick == 1:
            x = mod1(rnd.choice(f.lift_values)) + rnd.randrange(-2, 3) * TINY
        else:
            x = F(rnd.randrange(2**40 + 1), 2**40)
        ends.append(min(max(x, F(0)), F(1)))
        if rnd.randrange(4) == 0:
            ends.append(min(ends[-1] + rnd.randrange(1, 3) * TINY, F(1)))
    ends.sort()
    ivs = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        if lo == hi or rnd.randrange(5) == 0:
            ivs.append(Iv(lo, True, lo, True))
        else:
            ivs.append(Iv(lo, rnd.randrange(2) == 0, hi, rnd.randrange(2) == 0))
    return IntervalSet(ivs)


def on_line(s: IntervalSet, x: Fraction) -> bool:
    return any(iv.contains(x) for iv in s.ivs)


def on_circle(s: IntervalSet, x: Fraction) -> bool:
    x = mod1(x)
    return on_line(s, x) or (x == 0 and on_line(s, F(1)))


def probes(*sets: IntervalSet, extra=()) -> list[Fraction]:
    """0, 1, every endpoint, and the midpoint of every gap between them."""
    cuts = {F(0), F(1), *extra}
    for s in sets:
        for iv in s.ivs:
            cuts.update((iv.lo, iv.hi))
    cuts = sorted(cuts)
    mids = [(cuts[i] + cuts[i + 1]) / 2 for i in range(len(cuts) - 1)]
    return sorted(cuts + mids)


def scan_covers(s: IntervalSet, t: IntervalSet) -> bool:
    """Whether every probe of t lies in s on the circle."""
    return all(on_circle(s, x) for x in probes(s, t) if on_line(t, x))


@settings(max_examples=400, deadline=None)
@given(pl_maps(), interval_sets())
def test_preimage_matches_reference_loop(f, s):
    assert f.preimage_of_set(s).ivs == reference_preimage(f, s).ivs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_preimage_of_large_maps_matches_reference_loop(data):
    f = data.draw(large_maps())
    vals = f.lift_values
    assert max(abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)) >= 3
    for _ in range(3):
        s = data.draw(tied_sets(f))
        assert f.preimage_of_set(s).ivs == reference_preimage(f, s).ivs


@pytest.mark.parametrize(
    "iv",
    [
        Iv(F(-1, 4), True, F(1, 2), True),
        Iv(F(1, 2), True, F(5, 4), False),
        Iv(F(2), True, F(2), True),
        Iv(-TINY, False, F(0), True),
    ],
)
def test_preimage_of_a_set_outside_the_unit_interval_is_invalid(iv):
    f = PLCircleMap([F(0), F(1, 3), F(1)], [F(1, 5), F(2), F(11, 5)])
    with pytest.raises(InvalidInput, match="needs a set inside"):
        f.preimage_of_set(IntervalSet([Iv(F(1, 8), True, F(1, 8), True), iv]))


def test_the_preimage_index_is_capped_before_it_is_listed():
    # 0, 1/2, 1 -> 0, D, D: D + 2 entries for the rising piece and 2 for the
    # plateau, D + 2 of them beyond one per piece
    d = 2 * 10**6
    f = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(d), F(d)])
    with pytest.raises(
        ResourceCap,
        match=f"^the preimage index of 2 pieces needs {d + 4} entries, {d + 2} "
        f"beyond one per piece, above the breakpoint cap 1000000$",
    ):
        f.preimage_of_set(IntervalSet.point(F(1, 3)))


@pytest.mark.parametrize("height, capped", [(8, False), (9, True)])
def test_the_preimage_index_cap_counts_the_entries_beyond_one_per_piece(
    monkeypatch, height, capped
):
    monkeypatch.setattr(plmaps, "DEFAULT_BREAKPOINT_CAP", 10)
    f = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(height), F(height)])
    s = IntervalSet([Iv(F(1, 4), False, F(1, 2), True)])
    if capped:
        with pytest.raises(ResourceCap, match="11 beyond one per piece, above the breakpoint cap 10$"):
            f.preimage_of_set(s)
    else:
        assert f.preimage_of_set(s).ivs == reference_preimage(f, s).ivs


@pytest.mark.parametrize(
    "f, hits",
    [
        # x -> 5x: the point 1/6 has five preimages
        (PLCircleMap([F(0), F(1)], [F(0), F(5)]), 5),
        # two rising pieces meet at 1/3 -> 1/6: each hits the breakpoint, and
        # the two hits merge into one point
        (PLCircleMap([F(0), F(1, 3), F(1)], [F(0), F(1, 6), F(1)]), 2),
    ],
)
def test_the_preimage_cap_counts_the_hits_before_they_merge(f, hits):
    s = IntervalSet.point(F(1, 6))
    assert f.preimage_of_set(s, hits) == f.preimage_of_set(s)
    with pytest.raises(
        ResourceCap,
        match=f"^the preimage of 1 intervals reached {hits} intervals before "
        f"merging, above the interval cap {hits - 1}$",
    ):
        f.preimage_of_set(s, hits - 1)


@pytest.mark.parametrize("cap, capped", [(9, True), (10, False)])
def test_sure_hits_pass_the_cap_before_the_index_is_listed(cap, capped):
    # x -> 5x covers five whole turns, so each interval has five sure hits
    f = PLCircleMap([F(0), F(1)], [F(0), F(5)])
    s = IntervalSet([Iv(F(1, 6), True, F(1, 6), True), Iv(F(1, 3), False, F(1, 2), False)])
    if capped:
        with pytest.raises(
            ResourceCap,
            match="^the preimage of 2 intervals reached 10 intervals before "
            "merging, above the interval cap 9$",
        ):
            f.preimage_of_set(s, cap)
        assert f._preimages is None
    else:
        assert f.preimage_of_set(s, cap) == reference_preimage(f, s)


def test_the_fixed_points_of_a_steep_map_stop_before_the_preimage_index():
    # 0, 1/2, 1 -> 0, D, D: the rising piece of the displacement covers
    # D - 1 whole turns, each a sure hit for the point 0, so the hit cap is
    # passed before its index of about D entries is listed
    d = 999_998
    f = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(d), F(d)])
    message = (
        "^the preimage of 1 intervals reached 100001 intervals before "
        "merging, above the interval cap 100000$"
    )
    with pytest.raises(ResourceCap, match=message):
        f.fixed_point_components()
    displacement = PLCircleMap(f.breakpoints, [F(0), d - F(1, 2), F(d - 1)])
    with pytest.raises(ResourceCap, match=message):
        displacement.preimage_of_set(IntervalSet.point(F(0)))
    assert displacement._preimages is None


@settings(max_examples=400, deadline=None)
@given(pl_maps(), interval_sets())
def test_preimage_membership_pointwise(f, s):
    pre = f.preimage_of_set(s)
    for x in probes(pre, extra=f.breakpoints):
        assert on_line(pre, x) == on_circle(s, f.evaluate(x)), x


@settings(max_examples=400, deadline=None)
@given(interval_sets())
def test_contains_point_matches_scan(s):
    for x in probes(s, extra=[F(k, 24) for k in range(25)]):
        assert s.contains_point(x) == on_circle(s, x), x


@settings(max_examples=400, deadline=None)
@given(interval_sets(), interval_sets())
def test_covers_matches_scan(s, t):
    assert s.covers(t) == scan_covers(s, t)


def circle_boundary(s: IntervalSet) -> list[Fraction]:
    """Endpoints of s (mod 1) that s does not hold together with both sides."""
    cuts = sorted({mod1(e) for iv in s.ivs for e in (iv.lo, iv.hi)})
    out = []
    for i, c in enumerate(cuts):
        before = cuts[i - 1] if i else cuts[-1] - 1
        after = cuts[i + 1] if i + 1 < len(cuts) else cuts[0] + 1
        sides = ((before + c) / 2, c, (c + after) / 2)
        if not all(on_circle(s, x) for x in sides):
            out.append(c)
    return out


@settings(max_examples=400, deadline=None)
@given(interval_sets(), interval_sets())
def test_min_gap_matches_scan(s, t):
    # None exactly when s does not cover t; else the least circle distance
    # from an end of t to the boundary of s
    if not t.ivs:
        with pytest.raises(ValueError):
            s.min_gap_to_boundary(t)
        return
    gap = s.min_gap_to_boundary(t)
    if not scan_covers(s, t):
        assert gap is None
        return
    boundary = circle_boundary(s)
    if not boundary:
        # s is the whole circle
        assert gap >= 1
        return
    assert gap == min(
        circle_dist(e, b) for iv in t.ivs for e in (iv.lo, iv.hi) for b in boundary
    )


def test_covers_identifies_one_with_zero():
    # [1/2, 1] lies in [1/2, 1) together with the point 0 ~ 1
    s = IntervalSet([Iv(F(1, 2), True, F(1), False), Iv(F(0), True, F(0), True)])
    assert s.covers(IntervalSet([Iv(F(1, 2), True, F(1), True)]))
    assert s.covers(IntervalSet.point(F(1)))
    assert not s.covers(IntervalSet([Iv(F(1, 4), True, F(1), True)]))
    # and the other way round: [0, 1/4] with 0 supplied by the point 1
    s = IntervalSet([Iv(F(0), False, F(1, 4), True), Iv(F(1), True, F(1), True)])
    assert s.covers(IntervalSet([Iv(F(0), True, F(1, 4), True)]))


def test_min_gap_runs_across_the_seam():
    # (3/4, 1] u [0, 1/4) holds 0 ~ 1 in its interior; the nearest
    # boundary points to [15/16, 1/16] are 3/4 and 1/4
    wrap = IntervalSet.from_arcs([Arc(F(3, 4), F(1, 2))], closed=False)
    inner = IntervalSet.from_arcs([Arc(F(15, 16), F(1, 8))], closed=True)
    assert wrap.covers(inner)
    assert wrap.min_gap_to_boundary(inner) == F(3, 16)
    # a near end across the seam bounds the gap of a part that ends at 1
    s = IntervalSet([Iv(F(1, 2), False, F(1), True), Iv(F(0), True, F(1, 100), False)])
    assert s.min_gap_to_boundary(IntervalSet([Iv(F(3, 4), True, F(1), True)])) == F(1, 100)
