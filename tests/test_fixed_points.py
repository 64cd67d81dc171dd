"""Property tests for the fixed-point solver of ``plmaps``.

``PLCircleMap.fixed_point_components`` reads the components as the preimage
of 0 under the displacement map d(x) = F(x) - x.  The solver it replaced (a
crossing scan per integer level, its merge, its own 0 ~ 1 gluing and a sign
walk across flat stretches) is kept here as the reference, and the lists
must be equal: the same components, transversality tags and order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import ResourceCap
from circledyn.exact import ONE, ZERO, Arc, mod1
from circledyn.expanding import expanding_map
from circledyn.plmaps import PLCircleMap, PeriodicComponent

from conftest import random_pl_homeo
from test_family_views import pl_homeos

F = Fraction


# ---------------------------------------------------------------------------
# reference


def ref_psi_sign_beyond(f: PLCircleMap, pos: Fraction, k: Fraction, direction: int) -> int:
    """Sign of F(x) - x - k immediately left (-1) or right (+1) of pos.

    Walks across flat-zero stretches, wrapping around the circle with the
    level shifted by degree - 1 per wrap.  Returns 0 when the displacement
    vanishes identically around the whole circle.
    """
    bps = f.breakpoints
    psi = [v - b for v, b in zip(f.lift_values, f.breakpoints)]
    shift = f.degree - 1
    level = Fraction(k)
    cur = pos
    traveled = ZERO
    while traveled <= ONE:
        if direction > 0:
            if cur >= ONE:
                cur -= ONE
                level -= shift
            i = bisect_right(bps, cur) - 1
            if i == len(bps) - 1:
                i -= 1
            a, b = bps[i], bps[i + 1]
            ua, ub = psi[i] - level, psi[i + 1] - level
            vcur = ua + (ub - ua) * (cur - a) / (b - a)
            if vcur != 0:
                return 1 if vcur > 0 else -1
            if ub != 0:
                return 1 if ub > 0 else -1
            traveled += b - cur
            cur = b
        else:
            if cur <= ZERO:
                cur += ONE
                level += shift
            i = bisect_right(bps, cur) - 1
            if i >= 1 and bps[i] == cur:
                i -= 1
            if i == len(bps) - 1:
                i -= 1
            a, b = bps[i], bps[i + 1]
            ua, ub = psi[i] - level, psi[i + 1] - level
            vcur = ua + (ub - ua) * (cur - a) / (b - a)
            if vcur != 0:
                return 1 if vcur > 0 else -1
            if ua != 0:
                return 1 if ua > 0 else -1
            traveled += cur - a
            cur = a
    return 0


def ref_fixed_point_components(f: PLCircleMap) -> list[PeriodicComponent]:
    """Crossing scan of F(x) - x = k for every integer level k, merged per
    level, then the components at 1 and at 0 glued."""
    bps = f.breakpoints
    psi = [v - b for v, b in zip(f.lift_values, f.breakpoints)]
    lo_psi = min(psi)
    hi_psi = max(psi)
    # merged solution components of F(x) - x = k on [0, 1], per level k
    raw: list[tuple[Fraction, Fraction, int]] = []
    for k in range(math.ceil(lo_psi), math.floor(hi_psi) + 1):
        comps: list[tuple[Fraction, Fraction]] = []
        for i in range(len(bps) - 1):
            a, b = bps[i], bps[i + 1]
            ua, ub = psi[i] - k, psi[i + 1] - k
            if ua == 0 and ub == 0:
                comps.append((a, b))
            elif ua == 0:
                comps.append((a, a))
            elif ub == 0:
                comps.append((b, b))
            elif (ua < 0 < ub) or (ub < 0 < ua):
                t = a + (-ua) * (b - a) / (ub - ua)
                comps.append((t, t))
        comps.sort()
        merged: list[list[Fraction]] = []
        for lo, hi in comps:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        raw.extend((lo, hi, k) for lo, hi in merged)

    if not raw:
        return []

    total = sum((hi - lo for lo, hi, _ in raw), start=ZERO)
    if total == ONE:
        return [PeriodicComponent(Arc.full(), transversal=False)]

    # Solutions at x=1 (level k) and x=0 (level k - (degree-1)) are the
    # same circle point and always occur together; glue them.
    shift = f.degree - 1
    end_comp = next((c for c in raw if c[1] == ONE), None)
    start_comp = None
    if end_comp is not None:
        start_comp = next(
            (c for c in raw if c[0] == ZERO and c[2] == end_comp[2] - shift),
            None,
        )
    out: list[PeriodicComponent] = []
    for lo, hi, k in raw:
        if end_comp is not None and (lo, hi, k) == end_comp:
            continue
        if start_comp is not None and (lo, hi, k) == start_comp:
            elo, _ehi, ek = end_comp
            length = (ONE - elo) + hi
            if length == 0:
                left = ref_psi_sign_beyond(f, ONE, Fraction(ek), -1)
                right = ref_psi_sign_beyond(f, ZERO, Fraction(k), +1)
                out.append(
                    PeriodicComponent(ZERO, transversal=(left * right < 0))
                )
            else:
                out.append(
                    PeriodicComponent(
                        Arc.make(mod1(elo), length), transversal=False
                    )
                )
            continue
        if lo == hi:
            left = ref_psi_sign_beyond(f, lo, Fraction(k), -1)
            right = ref_psi_sign_beyond(f, hi, Fraction(k), +1)
            out.append(PeriodicComponent(lo, transversal=(left * right < 0)))
        else:
            out.append(
                PeriodicComponent(Arc.make(mod1(lo), hi - lo), transversal=False)
            )
    return out


# ---------------------------------------------------------------------------
# strategies


@st.composite
def displaced_maps(draw) -> PLCircleMap:
    """Maps of degree -2..3 drawn through their displacement d = F - x.

    Integer displacements at breakpoints give crossings and touches there,
    repeated integers give plateaus on the diagonal, and the seam kinds put
    a crossing or touch at 0 ~ 1 or a fixed arc through it.
    """
    den = draw(st.sampled_from([4, 6, 8, 12]))
    inner = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=6))
    bps = [F(0)] + [F(x, den) for x in sorted(inner)] + [F(1)]
    degree = draw(st.integers(-2, 3))
    ds: list[Fraction] = []
    for _ in bps[:-1]:
        kind = draw(st.integers(0, 3))
        if kind == 0 and ds:
            ds.append(ds[-1])
        elif kind == 1:
            ds.append(F(draw(st.integers(-2, 2))))
        else:
            ds.append(F(draw(st.integers(-24, 24)), 8))
    seam = draw(st.sampled_from(["free", "point", "arc"]))
    if seam != "free":
        ds[0] = F(draw(st.integers(-2, 2)))
    if seam == "arc" and len(ds) > 1:
        ds[1] = ds[0]
    ds.append(ds[0] + degree - 1)
    if seam == "arc" and len(ds) > 2:
        ds[-2] = ds[-1]
    return PLCircleMap(bps, [b + d for b, d in zip(bps, ds)])


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=400, deadline=None)
@given(st.one_of(displaced_maps(), pl_homeos()))
def test_fixed_points_match_reference(f: PLCircleMap):
    for g in (f, f.compose(f)):
        assert g.fixed_point_components() == ref_fixed_point_components(g)


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_conjugates_of_expanding_maps_match_reference(ell, rng):
    for _ in range(3):
        h = random_pl_homeo(rng)
        f = h.invert().compose(expanding_map(ell).compose(h))
        comps = f.fixed_point_components()
        assert comps == ref_fixed_point_components(f)
        assert len(comps) == abs(ell - 1)


def test_fixed_points_of_a_steep_map_stop_at_the_preimage_cap():
    # 0, 1/2, 1 -> 0, D, D: the displacement map meets 0 about D times, just
    # under the preimage index cap; the preimage's default interval cap stops
    # the listing long before D intervals are built
    d = 999_998
    f = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(d), F(d)])
    with pytest.raises(ResourceCap, match="above the interval cap 100000$"):
        f.fixed_point_components()
