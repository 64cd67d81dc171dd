from dataclasses import fields
from fractions import Fraction
from math import gcd
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import orbits
from circledyn.errors import InvalidInput
from circledyn.expanding import expanding_map
from circledyn.orbits import _Closing, orbit_averages
from circledyn.plmaps import Observable, PLCircleMap

from test_locate import ref_cell

F = Fraction


def _brute_force(f, x, battery, horizons):
    """Averages summed by phi.evaluate over f.orbit, and the first repeat.

    Returns the averages, then the steps walked, preperiod, period, limits
    and cycle minimum of an orbit that repeats within max(horizons) steps.
    """
    n = max(horizons)
    orbit = f.orbit(x, n + 1)
    averages = [
        {
            h: sum((phi.evaluate(y) for y in orbit[:h]), start=F(0)) / h
            for h in horizons
        }
        for phi in battery
    ]
    first = {}
    for k, y in enumerate(orbit):
        if y in first:
            cycle = orbit[first[y]:k]
            limits = [
                sum((phi.evaluate(z) for z in cycle), start=F(0)) / len(cycle)
                for phi in battery
            ]
            return averages, k, first[y], len(cycle), limits, min(cycle)
        first[y] = k
    return averages, n, None, None, None, None


NON_TENT = Observable(
    [F(0), F(1, 3), F(5, 7), F(1)], [F(1, 2), F(-2), F(3, 4), F(1, 2)]
)


@pytest.mark.parametrize(
    "battery",
    [
        [Observable.tent(F(j, 8)) for j in range(8)],
        [NON_TENT, Observable.constant(F(7, 3)), Observable.tent(F(1, 5))],
    ],
    ids=["tents", "non-tent"],
)
def test_engine_matches_brute_force(rng, battery):
    f = expanding_map(2)
    points = [F(rng.randrange(1, 720720), 720720) for _ in range(5)]
    # 3/28 -> 3/14 -> 3/7 -> 6/7 -> 5/7 -> 3/7: preperiod 2, period 3,
    # with horizons on both sides of the cycle's closing
    cases = [(x, (37, 200)) for x in points] + [(F(3, 28), (1, 4, 5, 6, 1000))]
    for x, horizons in cases:
        res = orbit_averages(f, x, battery, horizons)
        averages, steps, preperiod, period, limits, cycle_min = _brute_force(
            f, x, battery, horizons
        )
        assert res.averages == averages
        assert not res.inconclusive and res.steps_computed == steps
        assert res.eventually_periodic == (period is not None)
        assert (res.preperiod, res.period) == (preperiod, period)
        assert res.limits == limits
        assert res.cycle_min == cycle_min
    assert (res.preperiod, res.period, res.cycle_min) == (2, 3, F(3, 7))


def test_cycle_detection_closed_form():
    rot = PLCircleMap.rotation(F(1, 3))
    phi = Observable.tent(F(0))
    res = orbit_averages(rot, F(1, 12), [phi], [10, 99, 10**6])
    assert res.eventually_periodic
    assert res.period == 3 and res.preperiod == 0
    expected = sum(
        (phi.evaluate(x) for x in rot.orbit(F(1, 12), 3)), start=F(0)
    ) / 3
    assert res.limits[0] == expected
    # the million-step average comes from the closed form, exactly
    direct_99 = sum(
        (phi.evaluate(x) for x in rot.orbit(F(1, 12), 99)), start=F(0)
    ) / 99
    assert res.averages[0][99] == direct_99
    assert res.averages[0][10**6] - expected != 0 or 10**6 % 3 == 0


def test_preperiodic_orbit():
    f = expanding_map(2)
    # 3/8 -> 3/4 -> 1/2 -> 0 -> 0: preperiod 3, period 1
    phi = Observable.tent(F(1, 2))
    res = orbit_averages(f, F(3, 8), [phi], [5, 50])
    assert res.eventually_periodic
    assert res.preperiod == 3 and res.period == 1
    assert res.cycle_min == 0
    assert res.limits[0] == phi.evaluate(F(0))
    assert res.gap(0) == 0


def test_denominator_guard_marks_inconclusive():
    # contracting homeo with slope 1/3 pieces: denominators grow 3^k
    h = PLCircleMap(
        [F(0), F(1, 2), F(1)], [F(0), F(1, 6), F(1)]
    )
    phi = Observable.tent(F(0))
    res = orbit_averages(h, F(1, 7), [phi], [100000], denominator_bit_cap=64)
    assert res.inconclusive
    assert res.steps_computed == 39
    assert res.averages == [{}]


def test_horizons_validated():
    with pytest.raises(InvalidInput):
        orbit_averages(expanding_map(2), F(0), [Observable.tent(F(0))], [])


# ---------------------------------------------------------------------------
# the integer kernel against the walk and closing it replaced


def ref_walk(f, x, n_max, denominator_bit_cap):
    """Per step: the piece's Fraction parts as integers, b_i subtracted first."""
    cuts = [(b.numerator, b.denominator) for b in f.breakpoints]
    pieces = [
        (s.numerator, s.denominator, v.numerator, v.denominator)
        for s, v in zip(f._slopes, f.lift_values)
    ]
    hints = f._hints
    seen = {}
    p, q = x.numerator, x.denominator
    step = 0
    while step < n_max:
        key = (p, q)
        if key in seen:
            break
        seen[key] = step
        if q.bit_length() > denominator_bit_cap:
            return seen, step, key, True
        step += 1
        i = ref_cell(cuts, hints, p, q)
        bn, bd = cuts[i]
        sn, sd, vn, vd = pieces[i]
        tn = p * bd - bn * q
        td = q * bd
        yd = vd * sd * td
        yn = (vn * sd * td + vd * sn * tn) % yd
        g = gcd(yn, yd)
        p, q = yn // g, yd // g
    return seen, step, (p, q), False


def ref_sums(self, points):
    """One Fraction per (observable, denominator q)."""
    cuts = [(b.numerator, b.denominator) for b in self.cuts]
    hints = self.hints
    n_cells = len(cuts) - 1
    stats = {}
    for p, q in points:
        c = ref_cell(cuts, hints, p, q)
        row = stats.get(q)
        if row is None:
            row = stats[q] = [0] * (2 * n_cells)
        row[c] += 1
        row[n_cells + c] += p
    out = []
    for A, S in self.coeffs:
        total = F(0)
        for q, row in stats.items():
            visits, psums = row[:n_cells], row[n_cells:]
            num = q * sum(map(mul, A, visits)) + sum(map(mul, S, psums))
            total += F(num, q * self.scale)
        out.append(total)
    return out


def reference_averages(f, x, battery, horizons, cap):
    with mock.patch.object(orbits, "_walk", ref_walk), mock.patch.object(
        _Closing, "sums", ref_sums
    ):
        return orbit_averages(f, x, battery, horizons, denominator_bit_cap=cap)


def assert_same(res, ref):
    for field in fields(ref):
        assert getattr(res, field.name) == getattr(ref, field.name), field.name
    # and the averages in the same key order
    assert [list(a) for a in res.averages] == [list(a) for a in ref.averages]


BIG = 2**60 + 33  # lift values with ~60-bit denominators


@st.composite
def kernel_maps(draw) -> PLCircleMap:
    """Degree -2..3, plateaus, non-homeomorphisms, small or ~60-bit
    denominators."""
    den = draw(st.sampled_from([6, 12, 35, BIG]))
    inner = draw(st.lists(st.integers(1, min(den, 200) - 1), unique=True, max_size=6))
    bps = [F(0)] + [F(k, min(den, 200)) for k in sorted(inner)] + [F(1)]
    vals = [F(draw(st.integers(0, den - 1)), den)]
    for _ in bps[1:]:
        if draw(st.integers(0, 3)) == 0:
            vals.append(vals[-1])  # a plateau
        else:
            vals.append(F(draw(st.integers(-3 * den, 3 * den)), den))
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return PLCircleMap(bps, vals)


@st.composite
def batteries(draw) -> list[Observable]:
    """Tents and random observables; possibly none."""
    out = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            out.append(Observable.tent(F(draw(st.integers(0, 11)), 12)))
        else:
            inner = draw(st.lists(st.integers(1, 9), unique=True, max_size=4))
            bps = [F(0)] + [F(k, 10) for k in sorted(inner)] + [F(1)]
            vals = [F(draw(st.integers(-20, 20)), 7) for _ in bps]
            vals[-1] = vals[0]
            out.append(Observable(bps, vals))
    return out


@settings(max_examples=300, deadline=None)
@given(kernel_maps(), batteries(), st.data())
def test_kernel_matches_reference_engine(f, battery, data):
    if data.draw(st.booleans()):
        x = data.draw(st.sampled_from(f.breakpoints[:-1]))
    else:
        x = F(data.draw(st.integers(0, 999)), 1000)
    cap = data.draw(st.sampled_from([24, 64, 4096]))
    ref = reference_averages(f, x, battery, [200], cap)
    horizons = data.draw(st.lists(st.integers(1, 220), min_size=1, max_size=3))
    if ref.eventually_periodic:
        # both sides of the cycle's closing, and far beyond it
        closes = ref.preperiod + ref.period
        horizons += [max(closes - 1, 1), closes, closes + 1, 10**6]
    ref = reference_averages(f, x, battery, horizons, cap)
    assert_same(orbit_averages(f, x, battery, horizons, denominator_bit_cap=cap), ref)


def test_kernel_cap_and_cached_table():
    # contracting homeo: denominators grow 3^k until the cap
    h = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(1, 6), F(1)])
    battery = [Observable.tent(F(0)), NON_TENT]
    assert h._steps is None
    first = orbit_averages(h, F(1, 7), battery, [10, 100000], denominator_bit_cap=64)
    table = h._steps
    assert first.inconclusive and table is not None
    assert_same(first, reference_averages(h, F(1, 7), battery, [10, 100000], 64))
    # a second query on the same map reads the same table
    second = orbit_averages(h, F(2, 9), battery, [5, 50])
    assert h._steps is table
    assert_same(second, reference_averages(h, F(2, 9), battery, [5, 50], 4096))


def test_closing_of_no_points_and_no_observables():
    # lcm() of no denominators is 1
    assert _Closing([NON_TENT, Observable.tent(F(1, 3))]).sums([]) == [0, 0]
    assert _Closing([]).sums([(1, 3), (2, 5)]) == []
    # a purely periodic orbit closes over an empty preperiod
    rot = PLCircleMap.rotation(F(1, 3))
    res = orbit_averages(rot, F(1, 12), [], [2, 10])
    assert (res.preperiod, res.period, res.averages) == (0, 3, [])
    assert_same(res, reference_averages(rot, F(1, 12), [], [2, 10], 4096))
