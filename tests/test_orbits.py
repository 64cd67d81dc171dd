from fractions import Fraction

import pytest

from circledyn.errors import InvalidInput
from circledyn.expanding import expanding_map
from circledyn.orbits import birkhoff_average, orbit_averages
from circledyn.plmaps import Observable, PLCircleMap

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
    direct_99 = birkhoff_average(rot, F(1, 12), phi, 99)
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
