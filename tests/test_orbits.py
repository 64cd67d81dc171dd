from dataclasses import fields
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import InvalidInput
from circledyn.expanding import expanding_map
from circledyn.orbits import OrbitAverages, _Closing, orbit_averages
from circledyn.plmaps import Observable, PLCircleMap

from conftest import reference_forms, reference_slopes
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
        for s, v in zip(reference_slopes(f.breakpoints, f.lift_values), f.lift_values)
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


def ref_sums(battery, points):
    """Per observable: the value of each point p/q on the observable's own
    piece, found by ``ref_cell``, as one Fraction per denominator q."""
    out = []
    for phi in battery:
        cuts = [(b.numerator, b.denominator) for b in phi.breakpoints]
        slopes = reference_slopes(phi.breakpoints, phi.values)
        total = F(0)
        by_q = {}
        for p, q in points:
            by_q.setdefault(q, []).append((ref_cell(cuts, phi._hints, p, q), p))
        for q, hits in by_q.items():
            # v_i + s_i*(p/q - b_i), summed over the hits, times q
            num = sum(
                (q * (phi.values[i] - slopes[i] * phi.breakpoints[i])
                 + slopes[i] * p for i, p in hits),
                start=F(0),
            )
            total += num / q
        out.append(total)
    return out


def reference_averages(f, x, battery, horizons, cap):
    """``OrbitAverages`` from ``ref_walk`` and ``ref_sums``: the sum to a
    horizon past the walk is the preperiod and partial cycle plus whole
    cycles."""
    hs = tuple(sorted(set(horizons)))
    seen, steps, last, capped = ref_walk(f, x, hs[-1], cap)
    orbit = list(seen)[:steps]
    start = None if capped else seen.get(last)
    period = None if start is None else steps - start
    limits = cycle_min = cycle = None
    if period is not None:
        cycle = ref_sums(battery, orbit[start:])
        limits = [c / period for c in cycle]
        cycle_min = min(F(p, q) for p, q in orbit[start:])
    averages = [{} for _ in battery]
    for n in hs:
        if n <= steps:
            total = ref_sums(battery, orbit[:n])
        elif period is not None:
            whole, rem = divmod(n - start, period)
            head = ref_sums(battery, orbit[: start + rem])
            total = [h + whole * c for h, c in zip(head, cycle)]
        else:
            continue
        for avg, t in zip(averages, total):
            avg[n] = t / n
    return OrbitAverages(
        hs, averages, period is not None, start, period, limits, capped, steps,
        cycle_min=cycle_min,
    )


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
    assert h._refined is None
    first = orbit_averages(h, F(1, 7), battery, [10, 100000], denominator_bit_cap=64)
    table = h._refined
    assert first.inconclusive and table is not None
    assert_same(first, reference_averages(h, F(1, 7), battery, [10, 100000], 64))
    # a second query with the same battery cuts reads the same table
    second = orbit_averages(h, F(2, 9), [Observable.tent(F(0)), NON_TENT], [5, 50])
    assert h._refined is table
    assert_same(second, reference_averages(h, F(2, 9), battery, [5, 50], 4096))
    # other cuts replace it
    orbit_averages(h, F(2, 9), [Observable.tent(F(1, 8))], [5])
    assert h._refined is not table and h._refined[0] == (F(0), F(1, 8), F(5, 8), F(1))


def test_closing_of_no_points_and_no_observables():
    # lcm() of no denominators is 1
    assert _Closing([NON_TENT, Observable.tent(F(1, 3))]).sums([], []) == [0, 0]
    assert _Closing([]).sums([(1, 3), (2, 5)], [0, 0]) == []
    # a purely periodic orbit closes over an empty preperiod
    rot = PLCircleMap.rotation(F(1, 3))
    res = orbit_averages(rot, F(1, 12), [], [2, 10])
    assert (res.preperiod, res.period, res.averages) == (0, 3, [])
    assert_same(res, reference_averages(rot, F(1, 12), [], [2, 10], 4096))


# ---------------------------------------------------------------------------
# the step table refined by the battery's cuts


def check_refined(f, battery, starts, horizons):
    """The refined table row by row against ``ref_cell``, and the averages
    from each start against the reference engine."""
    closing = _Closing(battery)
    keys, hints, rows = closing.table(f)
    assert keys == sorted(set(f.breakpoints[:-1]) | set(closing.cuts[:-1]))
    assert hints == [float(k) for k in keys]
    bps = [(b.numerator, b.denominator) for b in f.breakpoints]
    cuts = [(c.numerator, c.denominator) for c in closing.cuts]
    forms = reference_forms(f.breakpoints, f.lift_values)
    for k, row in zip(keys, rows):
        p, q = k.numerator, k.denominator
        piece = ref_cell(bps, f._hints, p, q)
        assert row == (*forms[piece], ref_cell(cuts, closing.hints, p, q)), k
    for x in starts:
        res = orbit_averages(f, x, battery, horizons)
        assert_same(res, reference_averages(f, x, battery, horizons, 4096))


def test_refined_cut_on_a_breakpoint():
    # the tent's peak and antipode are breakpoints of the map as well
    f = PLCircleMap([F(0), F(1, 4), F(3, 4), F(1)], [F(0), F(3, 4), F(1, 2), F(2)])
    battery = [Observable.tent(F(1, 4)), NON_TENT]
    closing = _Closing(battery)
    assert closing.table(f)[0] == [
        F(0), F(1, 4), F(1, 3), F(5, 7), F(3, 4)
    ]
    check_refined(f, battery, [F(0), F(1, 4), F(3, 4), F(1, 3), F(2, 9)], (1, 5, 60))


def test_refined_cut_and_breakpoint_sharing_a_float():
    b = F(round(0.4 * 2**60), 2**60)
    c = b + F(1, 2**70)
    assert float(b) == float(c)
    # the map bends at b and the observable at c, so a point between them
    # or just below b is told apart from them only by the exact tie walk
    f = PLCircleMap([F(0), b, F(1)], [F(1, 3), F(1, 3) + 3 * b, F(7, 3)])
    phi = Observable([F(0), c, F(1)], [F(0), F(1), F(0)])
    below = b - F(1, 2**72)
    assert float(below) == float(b)
    starts = [b, c, below, (b + c) / 2, F(0)]
    check_refined(f, [phi], starts, (1, 2, 30))
    for x in starts:
        first = orbit_averages(f, x, [phi], (1,)).averages[0][1]
        assert first == phi.evaluate(x), x


def test_orbit_points_on_cuts():
    # 1/8 -> 1/4 -> 1/2 -> 0 -> 0 and 3/8 -> 3/4 -> 1/2 under doubling:
    # every point is a peak or an antipode of a tent
    battery = [Observable.tent(F(j, 8)) for j in range(8)]
    check_refined(expanding_map(2), battery, [F(1, 8), F(3, 8), F(5, 8)], (1, 3, 7, 100))
    # 1/7 -> 2/7 -> 4/7 -> 1/7 on the cuts of a non-tent observable
    phi = Observable([F(0), F(1, 7), F(2, 7), F(4, 7), F(1)], [F(0), F(3), F(-1), F(5, 2), F(0)])
    check_refined(expanding_map(2), [phi], [F(1, 7), F(2, 7)], (1, 2, 3, 10, 10**6))


def test_empty_battery_refines_nothing():
    f = PLCircleMap([F(0), F(1, 5), F(2, 3), F(1)], [F(1, 2), F(1, 3), F(9, 4), F(7, 2)])
    closing = _Closing([])
    keys, _, rows = closing.table(f)
    assert keys == list(f.breakpoints[:-1]) and {c for *_, c in rows} == {0}
    check_refined(f, [], [F(0), F(1, 5), F(4, 7)], (3, 40))


def test_map_whose_pieces_all_merge():
    # four collinear pieces of slope 3: one piece, and the cuts are all keys
    f = PLCircleMap(
        [F(0), F(1, 6), F(1, 3), F(1, 2), F(1)], [F(1, 9), F(11, 18), F(10, 9), F(29, 18), F(28, 9)]
    )
    assert f.breakpoints == (F(0), F(1)) and f == PLCircleMap([F(0), F(1)], [F(1, 9), F(28, 9)])
    battery = [Observable.tent(F(1, 6)), NON_TENT]
    closing = _Closing(battery)
    assert closing.table(f)[0] == list(closing.cuts[:-1])
    check_refined(f, battery, [F(0), F(1, 6), F(1, 3), F(5, 7), F(2, 11)], (1, 8, 200))
