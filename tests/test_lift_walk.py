"""Property tests for the one lift walk of ``plmaps``.

``compose``, ``from_lift_points``, ``ConsistentFamily.c0_distance_to`` and
the ``Observable`` arc and interval queries all read a PL graph over an
interval through ``_lift_walk``.  The versions they replaced (the compose
loop over every level of the outer map, the periodic ``raw`` evaluator, the
per-cell test of every lifted breakpoint and the linear scans over all
breakpoints) are kept here as references, and the results must be equal.
The exact algebraic identities of composition and inversion are checked
too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import ResourceCap
from circledyn.exact import ONE, ZERO, Arc, as_fraction, mod1
from circledyn import plmaps
from circledyn.expanding import expanding_map, wicked_perturb
from circledyn.partitions import family_from_homeo
from circledyn.plmaps import (
    DEFAULT_BREAKPOINT_CAP,
    Observable,
    PLCircleMap,
)

from conftest import reference_slopes
from test_family_views import pl_homeos, ref_c0, wicked_cases
from test_pl_queries import pl_maps, raw_lifts

F = Fraction


# ---------------------------------------------------------------------------
# references


def ref_walk(bps, evaluate, lo: Fraction, hi: Fraction):
    """Every lifted breakpoint tested against (lo, hi), evaluated at each cut."""
    inner = sorted(
        b + k
        for b in bps[:-1]
        for k in range(math.floor(lo) - 1, math.ceil(hi) + 1)
        if lo < b + k < hi
    )
    cuts = [lo, *inner, hi]
    return cuts, [evaluate(t) for t in cuts]


def ref_compose(f: PLCircleMap, g: PLCircleMap, cap: int = DEFAULT_BREAKPOINT_CAP):
    """Every level of f against every piece of g, then two evaluations per cut."""
    cuts = set(g.breakpoints)
    levels = [mod1(b) for b in f.breakpoints[:-1]]
    slopes = reference_slopes(g.breakpoints, g.lift_values)
    for i in range(len(g.breakpoints) - 1):
        a, b = g.breakpoints[i], g.breakpoints[i + 1]
        s = slopes[i]
        if s == 0:
            continue
        ga, gb = g.lift_values[i], g.lift_values[i + 1]
        lo, hi = (ga, gb) if ga < gb else (gb, ga)
        for c in levels:
            for k in range(math.ceil(lo - c), math.floor(hi - c) + 1):
                t = a + (c + k - ga) / s
                if a < t < b:
                    cuts.add(t)
        if len(cuts) > cap:
            raise ResourceCap(
                f"composition reached {len(cuts)} breakpoints after "
                f"{i + 1} of {len(g.breakpoints) - 1} inner pieces, "
                f"above the breakpoint cap {cap}"
            )
    bps = sorted(cuts)
    return PLCircleMap(bps, [f.lift_evaluate(g.lift_evaluate(b)) for b in bps])


def ref_from_lift_points(points) -> PLCircleMap:
    """The input graph evaluated, by periodicity, at each of its breakpoints
    taken mod 1."""
    ts = [as_fraction(t) for t, _ in points]
    ws = [as_fraction(w) for _, w in points]
    degree = int(ws[-1] - ws[0])

    def raw(t: Fraction) -> Fraction:
        k = 0
        while t < ts[0]:
            t += ONE
            k -= 1
        while t >= ts[-1]:
            t -= ONE
            k += 1
        i = min(bisect_right(ts, t) - 1, len(ts) - 2)
        s = (ws[i + 1] - ws[i]) / (ts[i + 1] - ts[i])
        return ws[i] + s * (t - ts[i]) + k * degree

    bps = sorted({ZERO, ONE, *(mod1(t) for t in ts[:-1])})
    return PLCircleMap(bps, [raw(b) for b in bps])


def ref_range_on_arc(phi: Observable, arc: Arc):
    cands = []
    for lo, hi in arc.intervals() or [(arc.start, arc.start)]:
        cands += [phi.evaluate(lo), phi.evaluate(hi)]
        cands += [v for b, v in zip(phi.breakpoints, phi.values) if lo < b < hi]
    return min(cands), max(cands)


def ref_integral(phi: Observable, lo: Fraction, hi: Fraction) -> Fraction:
    if lo >= hi:
        return ZERO
    cuts = [lo] + [b for b in phi.breakpoints if lo < b < hi] + [hi]
    return sum(
        ((b - a) * (phi.evaluate(a) + phi.evaluate(b)) / 2 for a, b in zip(cuts, cuts[1:])),
        start=ZERO,
    )


# ---------------------------------------------------------------------------
# strategies


@st.composite
def lift_ranges(draw, bps) -> tuple[Fraction, Fraction]:
    """lo <= hi over up to six turns, ends at integers, at lifted
    breakpoints or anywhere."""

    def end() -> Fraction:
        k = draw(st.integers(-3, 3))
        kind = draw(st.sampled_from(["integer", "breakpoint", "any"]))
        if kind == "integer":
            return F(k)
        if kind == "breakpoint":
            return draw(st.sampled_from(bps)) + k
        return F(draw(st.integers(-210, 210)), 70)

    a, b = end(), end()
    return (a, b) if a <= b else (b, a)


@st.composite
def observables(draw) -> Observable:
    bps, vals = draw(raw_lifts())
    vals[-1] = vals[0]
    return Observable(bps, vals)


@st.composite
def arcs(draw, bps) -> Arc:
    """Arcs from 0, from a breakpoint or from anywhere; empty, short,
    wrapping past 0 or the full circle."""
    start = draw(st.sampled_from([ZERO, *bps[:-1], F(draw(st.integers(0, 69)), 70)]))
    length = draw(st.sampled_from([ZERO, ONE, F(draw(st.integers(1, 70)), 70)]))
    return Arc(start, length)


@st.composite
def homeos(draw) -> PLCircleMap:
    """PL homeomorphisms of degree 1 and -1."""
    h = draw(pl_homeos())
    if draw(st.booleans()):
        return PLCircleMap(h.breakpoints, [-v for v in h.lift_values])
    return h


# ---------------------------------------------------------------------------
# the walk and its readers against the references


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walk_matches_reference(data):
    f = data.draw(pl_maps())
    lo, hi = data.draw(lift_ranges(list(f.breakpoints)))
    assert f._walk(lo, hi) == ref_walk(f.breakpoints, f.lift_evaluate, lo, hi)
    phi = data.draw(observables())
    lo, hi = data.draw(lift_ranges(list(phi.breakpoints)))
    assert phi._walk(lo, hi) == ref_walk(phi.breakpoints, phi.evaluate, lo, hi)


@settings(max_examples=300, deadline=None)
@given(pl_maps(), pl_maps(), st.sampled_from([None, 2, 3, 5, 8, 13, 40]))
def test_compose_matches_reference(f, g, cap):
    try:
        want = ref_compose(f, g, DEFAULT_BREAKPOINT_CAP if cap is None else cap)
    except ResourceCap as exc:
        # the same count and message, raised at the same inner piece
        with pytest.raises(ResourceCap) as got:
            f.compose(g, max_breakpoints=cap)
        assert str(got.value) == str(exc)
        return
    got = f.compose(g, max_breakpoints=cap)
    assert got == want and got.degree == want.degree


def test_compose_cap_fires_before_a_long_piece_is_listed(monkeypatch):
    # the one inner piece of E_200000 spans 200 000 turns of the outer lift;
    # its cut count comes from the two located ends, so no cut is listed
    def no_walk(*args):
        raise AssertionError("a cut was listed before the cap fired")

    monkeypatch.setattr(plmaps, "_lift_walk", no_walk)
    with pytest.raises(ResourceCap) as exc:
        PLCircleMap.identity().compose(expanding_map(200_000), max_breakpoints=10)
    assert str(exc.value) == (
        "composition reached 200001 breakpoints after 1 of 1 inner pieces, "
        "above the breakpoint cap 10"
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_lift_points_matches_reference(data):
    f = data.draw(pl_maps())
    # the graph of f read from t0 = b + k, for a breakpoint or any point b
    t0 = data.draw(st.sampled_from([*f.breakpoints, F(data.draw(st.integers(0, 69)), 70)]))
    t0 += data.draw(st.integers(-2, 2))
    cuts, lifts = f._walk(t0, t0 + 1)
    points = list(zip(cuts, lifts))
    assert PLCircleMap.from_lift_points(points) == ref_from_lift_points(points) == f
    # and any points, over any period, of degree -2..3
    bps, vals = data.draw(raw_lifts())
    points = [(b + t0, v) for b, v in zip(bps, vals)]
    assert PLCircleMap.from_lift_points(points) == ref_from_lift_points(points)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_c0_distance_to_matches_reference(data):
    if data.draw(st.booleans()):
        ell, depth = data.draw(st.sampled_from([(2, 1), (2, 3), (3, 2)]))
        fam = family_from_homeo(data.draw(pl_homeos()), ell, depth)
    else:
        h, ell, target, eps, n = data.draw(wicked_cases())
        fam = wicked_perturb(h, ell, target, eps, n)
    g = data.draw(pl_maps())
    assert fam.c0_distance_to(g) == ref_c0(fam.ell, fam.depth, fam.tables, g)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_observable_queries_match_reference(data):
    phi = data.draw(observables())
    arc = data.draw(arcs(list(phi.breakpoints)))
    assert phi.range_on_arc(arc) == ref_range_on_arc(phi, arc)
    lo, hi = sorted(
        data.draw(st.sampled_from([*phi.breakpoints, F(data.draw(st.integers(0, 70)), 70)]))
        for _ in range(2)
    )
    assert phi.integral_on_interval(lo, hi) == ref_integral(phi, lo, hi)


# ---------------------------------------------------------------------------
# algebraic identities


@settings(max_examples=60, deadline=None)
@given(pl_maps(), pl_maps(), pl_maps())
def test_compose_is_associative(f, g, h):
    assert f.compose(g.compose(h)) == f.compose(g).compose(h)


@settings(max_examples=200, deadline=None)
@given(homeos())
def test_inverse_composes_to_identity(f):
    assert f.invert().compose(f) == PLCircleMap.identity()
    assert f.compose(f.invert()) == PLCircleMap.identity()
