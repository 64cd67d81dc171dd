"""One rotation search per homeomorphism, checked against the older paths.

``basin_decomposition`` and ``classify`` read the periodic set, the gap
dynamics and the attracting orbits from the one power h^q that the rotation
search detected with.  The older code ran the search twice, composed h^q
again to solve f^q(x) = x, searched the divisors of q for minimal periods
(``periodic_points`` and its identity-on-arc test) and composed h^q a fourth
time for the gaps.  Those functions are kept here as references, and the
results must be equal.  The rotation search itself is a Stern–Brocot
descent; the per-q search it replaced is the reference here.  Where the
reference detects r/q the results are equal; where it does not, both
brackets hold the rotation number, so they meet.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest

from circledyn.classifier import (
    BasinDecomposition,
    PhysicalMeasure,
    RotationNumber,
    WProtocol,
    _rotation_search,
    basin_decomposition,
    classify,
    rotation_number,
)
from circledyn.errors import InvalidInput
from circledyn.exact import ONE, ZERO, Arc, IntervalSet, mod1
from circledyn.measures import dirac_periodic
from circledyn.plmaps import PLCircleMap, PeriodicComponent

from conftest import random_pl_homeo, random_transversal_homeo
from test_classifier import attracting_homeo, period_two_homeo

F = Fraction

SMALL = WProtocol(grid_size=20, horizons=(10, 100))


# ---------------------------------------------------------------------------
# references: the search, the periodic-point solver and the decomposition
# as they were before the one search


def power(f: PLCircleMap, n: int) -> PLCircleMap:
    """f^n by n compositions, f^0 the identity."""
    result = PLCircleMap.identity()
    for _ in range(n):
        result = f.compose(result)
    return result


def ref_rotation_number(h: PLCircleMap, max_period: int = 16) -> RotationNumber:
    if not h.is_homeomorphism or h.degree != 1:
        raise InvalidInput("rotation number requires an orientation-preserving homeomorphism")
    hq = PLCircleMap.identity()
    lift_zero = ZERO
    for q in range(1, max_period + 1):
        hq = h.compose(hq)
        lift_zero = h.lift_evaluate(lift_zero)
        winding = lift_zero - hq.lift_values[0]
        if winding.denominator != 1:
            raise InvalidInput("lift bookkeeping failed")
        disp = [v - b + winding for v, b in zip(hq.lift_values, hq.breakpoints)]
        lo, hi = min(disp), max(disp)
        r_lo = -((-lo.numerator) // lo.denominator)  # ceil
        r_hi = hi.numerator // hi.denominator  # floor
        if r_lo <= r_hi:
            return RotationNumber(Fraction(r_lo, q), q, None)
    big_q = 8 * max_period
    t = ZERO
    for _ in range(big_q):
        t = h.lift_evaluate(t)
    return RotationNumber(
        None, None, ((t - 1) / big_q, (t + 1) / big_q)
    )


def ref_identity_on_arc(g: PLCircleMap, arc: Arc) -> bool:
    for lo, hi in arc.intervals():
        cuts, lifts = g._walk(lo, hi)
        moved = {v - t for t, v in zip(cuts, lifts)}
        if len(moved) > 1 or moved.pop().denominator != 1:
            return False
    return True


def ref_periodic_points(f: PLCircleMap, period: int) -> list[PeriodicComponent]:
    if period < 1:
        raise InvalidInput("period must be >= 1")
    g = power(f, period)
    comps = g.fixed_point_components()
    out = []
    for c in comps:
        if c.is_point:
            p = c.point
            minimal = period
            y = p
            for d in range(1, period + 1):
                y = f.evaluate(y)
                if y == p:
                    minimal = d
                    break
        else:
            minimal = period
            for d in range(1, period):
                if period % d:
                    continue
                gd = power(f, d)
                if ref_identity_on_arc(gd, c.arc):
                    minimal = d
                    break
        out.append(replace(c, minimal_period=minimal))
    return out


def ref_basin_decomposition(
    h: PLCircleMap, max_period: int = 16
) -> BasinDecomposition:
    rot = ref_rotation_number(h, max_period)
    if rot.value is None:
        raise InvalidInput(
            f"rotation number not rational within period {max_period}; "
            f"bracket {rot.bracket}"
        )
    period = rot.period
    comps = tuple(ref_periodic_points(h, period))

    per_set = IntervalSet.union_all(
        IntervalSet.point(c.point)
        if c.is_point
        else IntervalSet.from_arcs([c.arc], closed=True)
        for c in comps
    )
    per_measure = per_set.measure()

    hq = power(h, period)

    def displacement_level(x: Fraction) -> Fraction:
        return hq.lift_evaluate(x) - x

    gaps: list[tuple[Fraction, Fraction]] = []
    ivs = per_set.ivs
    if not ivs:
        raise InvalidInput(
            "homeomorphism with rational rotation number must have periodic points"
        )
    if per_measure != ONE:
        for idx in range(len(ivs)):
            cur_hi = ivs[idx].hi
            if idx + 1 < len(ivs):
                nxt_lo = ivs[idx + 1].lo
            else:
                nxt_lo = ivs[0].lo + ONE
            length = nxt_lo - cur_hi
            if length > 0:
                gaps.append((mod1(cur_hi), length))

    complementary: list[tuple[Arc, str]] = []
    basins: dict[Fraction, list[Arc]] = {}
    rep_period: dict[Fraction, int] = {}
    for start, length in gaps:
        k_level = displacement_level(start)
        if k_level.denominator != 1:
            raise InvalidInput("gap endpoint is not exactly periodic")
        mid = mod1(start + length / 2)
        sign_val = displacement_level(mid) - k_level
        arc = Arc(start, length)
        if sign_val > 0:
            side = "right"
            att = arc.end
        elif sign_val < 0:
            side = "left"
            att = start
        else:
            raise InvalidInput("interior of a complementary interval contains periodic points")
        complementary.append((arc, side))
        orbit = [att]
        y = h.evaluate(att)
        while y != att:
            orbit.append(y)
            y = h.evaluate(y)
        rep = min(orbit)
        basins.setdefault(rep, []).append(arc)
        rep_period[rep] = len(orbit)

    physical = []
    for rep in sorted(basins):
        arcs = tuple(basins[rep])
        total = sum((a.length for a in arcs), start=ZERO)
        mu = dirac_periodic(h, rep, rep_period[rep])
        physical.append(
            PhysicalMeasure(
                measure=mu,
                orbit_representative=rep,
                period=rep_period[rep],
                basin_arcs=arcs,
                basin_measure=total,
            )
        )

    decomposition = BasinDecomposition(
        rotation=rot.value,
        period=period,
        periodic_components=comps,
        complementary=tuple(complementary),
        physical_measures=tuple(physical),
        periodic_set_measure=per_measure,
    )
    if decomposition.basin_total + per_measure != ONE:
        raise InvalidInput(
            "basin measures and periodic set do not partition the circle"
        )
    return decomposition


# ---------------------------------------------------------------------------
# the maps


def rotations() -> list[PLCircleMap]:
    return [
        PLCircleMap.rotation(F(p, q))
        for q in range(1, 17)
        for p in range(q)
        if gcd(p, q) == 1
    ]


def conjugated_rotations() -> list[PLCircleMap]:
    """h^-1 R_{1/q} h: h^q is the identity, one full-circle arc of period q."""
    rng = random.Random(11)
    out = []
    for q in (2, 3, 5, 8, 12, 16):
        h = random_pl_homeo(rng)
        out.append(h.invert().compose(PLCircleMap.rotation(F(1, q)).compose(h)))
    return out


def transversal_homeos() -> list[PLCircleMap]:
    rng = random.Random(12)
    return [
        random_transversal_homeo(rng, pairs=rng.randrange(1, 4)) for _ in range(50)
    ]


def pl_homeos() -> list[PLCircleMap]:
    rng = random.Random(13)
    return [random_pl_homeo(rng) for _ in range(100)]


MAPS = {
    "rotations": rotations,
    "conjugated-rotations": conjugated_rotations,
    "transversal": transversal_homeos,
    "pl-homeos": pl_homeos,
    "examples": lambda: [attracting_homeo(), period_two_homeo()],
}


def reversed_homeos() -> list[PLCircleMap]:
    """Orientation-reversing homeomorphisms, classified through f∘f."""
    return [
        PLCircleMap(h.breakpoints, [-v for v in h.lift_values])
        for h in pl_homeos()[:30]
    ]


# ---------------------------------------------------------------------------
# equality with the references


def assert_farey_bracket(bracket, max_period: int) -> None:
    """Farey neighbours a/b < c/d of order max_period: bc - ad = 1 and
    b, d <= max_period < b + d."""
    (a, b), (c, d) = (x.as_integer_ratio() for x in bracket)
    assert b <= max_period and d <= max_period < b + d
    assert b * c - a * d == 1


def meet(bracket, other) -> bool:
    return max(bracket[0], other[0]) < min(bracket[1], other[1])


@pytest.mark.parametrize("family", sorted(MAPS))
def test_rotation_number_matches_reference(family):
    for h in MAPS[family]():
        for max_period in (1, 5, 16):
            expected = ref_rotation_number(h, max_period)
            rot, hq = _rotation_search(h, max_period)
            if expected.value is None:
                assert (rot.value, rot.period, hq) == (None, None, None)
                assert_farey_bracket(rot.bracket, max_period)
                assert meet(rot.bracket, expected.bracket)
            else:
                assert rot == expected
                assert hq == power(h, rot.period)


def test_reference_maps_include_undetected_brackets():
    assert any(ref_rotation_number(h).value is None for h in pl_homeos())


@pytest.mark.parametrize("q", range(17, 41))
def test_undetected_bracket_is_farey_pair(q):
    for p in range(q):
        if gcd(p, q) == 1:
            rot = rotation_number(PLCircleMap.rotation(F(p, q)), 16)
            assert rot.value is None
            assert_farey_bracket(rot.bracket, 16)
            assert rot.bracket[0] < F(p, q) < rot.bracket[1]


@pytest.mark.parametrize("family", sorted(MAPS))
def test_basin_decomposition_matches_reference(family):
    for h in MAPS[family]():
        for max_period in (1, 5, 16):
            try:
                expected = ref_basin_decomposition(h, max_period)
            except InvalidInput as exc:
                message = str(exc)
                if ref_rotation_number(h, max_period).value is None:
                    # the bracket in the message is the new search's
                    message = (
                        f"rotation number not rational within period {max_period}; "
                        f"bracket {rotation_number(h, max_period).bracket}"
                    )
                with pytest.raises(InvalidInput) as got:
                    basin_decomposition(h, max_period)
                assert str(got.value) == message
                continue
            assert basin_decomposition(h, max_period) == expected


def test_conjugated_rotations_give_one_full_arc():
    for h in conjugated_rotations():
        bd = basin_decomposition(h)
        (comp,) = bd.periodic_components
        assert comp.arc.length == 1
        assert comp.minimal_period == bd.period > 1


@pytest.mark.parametrize("family", [*sorted(MAPS), "reversed"])
def test_classify_evidence_matches_reference(family):
    maps = reversed_homeos() if family == "reversed" else MAPS[family]()
    for f, max_period in product(maps, (1, 5, 16)):
        h = f if f.degree == 1 else f.compose(f)
        diag = classify(f, replace(SMALL, max_period=max_period))
        rot = ref_rotation_number(h, max_period)
        if rot.value is None:
            bracket = rotation_number(h, max_period).bracket
            assert_farey_bracket(bracket, max_period)
            assert meet(bracket, rot.bracket)
            for verdict in diag.labels.values():
                assert verdict.status == "inconclusive"
                assert verdict.evidence["rotation_bracket"] == bracket
            continue
        bd = ref_basin_decomposition(h, max_period)
        ev = diag.labels["wonderful"].evidence
        assert (ev["rotation_number"], ev["period"]) == (bd.rotation, bd.period)
        assert ev["basin_coverage"] == bd.basin_total
        assert ev["periodic_set_measure"] == bd.periodic_set_measure
        assert ev["physical_measure_count"] == len(bd.physical_measures)
        assert ev["basins"] == [
            (pm.orbit_representative, pm.basin_measure) for pm in bd.physical_measures
        ]
        assert diag.derived_from_square == (f.degree == -1)


# ---------------------------------------------------------------------------
# one power of h


@pytest.fixture
def compose_calls(monkeypatch):
    calls = []
    compose = PLCircleMap.compose

    def counted(self, inner):
        calls.append(1)
        return compose(self, inner)

    monkeypatch.setattr(PLCircleMap, "compose", counted)
    return calls


def stern_brocot_path(rho: Fraction) -> list[Fraction]:
    """The mediants a descent from floor(rho) < rho < floor(rho) + 1 tests,
    ending at rho; empty for an integer."""
    if rho.denominator == 1:
        return []
    (a, b), (c, d) = (floor(rho), 1), (floor(rho) + 1, 1)
    path = [F(a + c, b + d)]
    while path[-1] != rho:
        if path[-1] < rho:
            a, b = a + c, b + d
        else:
            c, d = a + c, b + d
        path.append(F(a + c, b + d))
    return path


def test_one_power_of_h(compose_calls):
    maps = [
        *conjugated_rotations(),
        *transversal_homeos()[:10],
        period_two_homeo(),
        PLCircleMap.rotation(F(5, 16)),
    ]
    for h in maps:
        steps = len(stern_brocot_path(rotation_number(h).value))
        compose_calls.clear()
        basin_decomposition(h)
        assert len(compose_calls) == steps
        compose_calls.clear()
        classify(h, SMALL)
        assert len(compose_calls) == steps


@pytest.mark.parametrize(
    "rho, steps",
    [*((F(1, q), q - 1) for q in (2, 3, 5, 8, 12, 16)), (F(3, 8), 4), (F(5, 13), 5)],
)
def test_compositions_follow_the_stern_brocot_path(compose_calls, rho, steps):
    h = random_pl_homeo(random.Random(rho.denominator))
    conj = h.invert().compose(PLCircleMap.rotation(rho).compose(h))
    compose_calls.clear()
    rot = rotation_number(conj)
    assert (rot.value, rot.period) == (rho, rho.denominator)
    assert len(compose_calls) == steps == len(stern_brocot_path(rho))
