from fractions import Fraction

import pytest

from circledyn.classifier import (
    WProtocol,
    basin_decomposition,
    classify,
    rotation_number,
)
from circledyn.errors import InvalidInput
from circledyn.exact import ONE
from circledyn.expanding import expanding_map, wicked_perturb
from circledyn.measures import CircleMeasure, CylinderSpec, cesaro
from circledyn.orbits import orbit_averages
from circledyn.plmaps import Observable, PLCircleMap
from circledyn.shredder import shred, verify_shredding

from conftest import random_pl_homeo, random_transversal_homeo

F = Fraction

SMALL = WProtocol(grid_size=60, horizons=(50, 200, 800))


def attracting_homeo() -> PLCircleMap:
    # repelling fixed point at 0, attracting at 1/2
    return PLCircleMap(
        [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
        [F(0), F(3, 8), F(1, 2), F(5, 8), F(1)],
    )


def period_two_homeo() -> PLCircleMap:
    # rotation number 1/2; transversal period-2 orbits {0, 1/2} and
    # {1/4, 3/4}; the graph of h^2 is pushed off the diagonal between them
    return PLCircleMap.from_lift_points(
        [
            (F(0), F(1, 2)),
            (F(1, 8), F(11, 16)),
            (F(1, 4), F(3, 4)),
            (F(3, 8), F(13, 16)),
            (F(1, 2), F(1)),
            (F(5, 8), F(19, 16)),
            (F(3, 4), F(5, 4)),
            (F(7, 8), F(21, 16)),
            (F(1), F(3, 2)),
        ]
    )


class TestRotationNumber:
    def test_rigid_rotation(self):
        assert rotation_number(PLCircleMap.rotation(F(2, 5))).value == F(2, 5)

    def test_fixed_point_gives_zero(self):
        assert rotation_number(attracting_homeo()).value == 0

    def test_conjugacy_invariance(self, rng):
        for _ in range(3):
            h = random_pl_homeo(rng)
            conj = h.invert().compose(PLCircleMap.rotation(F(1, 3)).compose(h))
            assert rotation_number(conj).value == F(1, 3)

    def test_undetected_gives_bracket(self):
        # the Stern–Brocot descent toward 13/89 passes 1/2, 1/3, 1/4, 1/5;
        # the next mediant 1/6 is beyond period 5
        rot = PLCircleMap.rotation(F(13, 89))
        res = rotation_number(rot, max_period=5)
        assert res.value is None
        assert res.bracket == (F(0), F(1, 5))
        # a Farey pair a/b < c/d is 1/(b*d) <= 1/max_period wide
        lo, hi = res.bracket
        assert hi - lo == F(1, lo.denominator * hi.denominator) <= F(1, 5)

    def test_non_homeo_rejected(self):
        with pytest.raises(InvalidInput):
            rotation_number(expanding_map(2))


class TestBasinDecomposition:
    def test_attracting_homeo(self):
        bd = basin_decomposition(attracting_homeo())
        assert bd.rotation == 0 and bd.period == 1
        assert len(bd.physical_measures) == 1
        pm = bd.physical_measures[0]
        assert pm.orbit_representative == F(1, 2)
        assert pm.basin_measure == 1
        assert pm.measure == CircleMeasure(atoms=[(F(1, 2), ONE)])
        assert bd.periodic_set_measure == 0

    def test_rigid_half_rotation(self):
        bd = basin_decomposition(PLCircleMap.rotation(F(1, 2)))
        assert bd.periodic_set_measure == 1
        assert bd.complementary == ()
        assert bd.physical_measures == ()

    def test_completeness_random(self, rng):
        for _ in range(5):
            h = random_transversal_homeo(rng, pairs=rng.randrange(1, 4))
            bd = basin_decomposition(h)
            assert bd.basin_total + bd.periodic_set_measure == 1
            assert all(pm.basin_measure > 0 for pm in bd.physical_measures)

    def test_transversal_count_matches_attracting(self, rng):
        for _ in range(3):
            pairs = rng.randrange(1, 4)
            h = random_transversal_homeo(rng, pairs=pairs)
            bd = basin_decomposition(h)
            transversal = [
                c for c in bd.periodic_components if c.is_point and c.transversal
            ]
            assert len(transversal) == 2 * pairs
            assert len(bd.physical_measures) == pairs

    def test_period_two_orbits(self):
        bd = basin_decomposition(period_two_homeo())
        assert bd.rotation == F(1, 2)
        assert bd.period == 2
        assert bd.periodic_set_measure == 0
        assert bd.basin_total == 1
        for pm in bd.physical_measures:
            assert pm.period == 2
            assert len(pm.measure.atoms) == 2

    def test_float_orbit_oracle(self, rng):
        h = random_transversal_homeo(rng, pairs=2)
        bd = basin_decomposition(h)
        bps = [float(b) for b in h.breakpoints]
        vals = [float(v) for v in h.lift_values]

        def step(x: float) -> float:
            import bisect

            i = bisect.bisect_right(bps, x) - 1
            if i >= len(bps) - 1:
                i = len(bps) - 2
            t = (x - bps[i]) / (bps[i + 1] - bps[i])
            return (vals[i] + t * (vals[i + 1] - vals[i])) % 1.0

        fixed = sorted(
            float(c.point) for c in bd.periodic_components if c.is_point
        )
        arcs = {
            float(pm.orbit_representative): pm.basin_arcs
            for pm in bd.physical_measures
        }
        for k in range(0, 997, 13):
            x = k / 997
            predicted = None
            for rep, basin in arcs.items():
                if any(a.contains(F(k, 997)) for a in basin):
                    predicted = rep
            if predicted is None:
                continue  # point lies in the periodic set
            y = x
            for _ in range(4000):
                y = step(y)
            best = min(fixed, key=lambda p: min(abs(y - p), 1 - abs(y - p)))
            assert abs(best - predicted) < 1e-6


def average_spread(res) -> Fraction:
    """Spread max - min of the first observable's averages over the horizons."""
    assert not res.inconclusive
    return max(res.averages[0].values()) - min(res.averages[0].values())


class TestBirkhoffAverages:
    def test_identity(self):
        phi = Observable.tent(F(1, 3))
        x = F(2, 7)
        res = orbit_averages(PLCircleMap.identity(), x, [phi], [10, 50, 100])
        assert res.averages[0][50] == phi.evaluate(x)
        assert average_spread(res) == 0

    def test_half_rotation_alternates(self):
        rot = PLCircleMap.rotation(F(1, 2))
        phi = Observable.tent(F(1, 2))
        limit = (phi.evaluate(F(0)) + phi.evaluate(F(1, 2))) / 2
        res = orbit_averages(rot, F(0), [phi], [999, 1000])
        assert res.averages[0][1000] == limit
        assert res.averages[0][999] != limit
        assert res.eventually_periodic and res.limits[0] == limit

    def test_shredded_gap_matches_bracket(self):
        g, report = shred(expanding_map(2), F(1, 5))
        verify_shredding(g, report)
        phi = Observable.tent(F(1, 4))
        label = report.regions[0].label
        x = report.cycles[label][0].midpoint
        from circledyn.shredder import birkhoff_gap_bound

        gap = average_spread(orbit_averages(g, x, [phi], [100, 1000, 10000]))
        br = birkhoff_gap_bound(g, report, phi, x, 100)
        assert gap <= 2 * br.oscillation + 2 * F(br.remainder + 1, 100) * phi.sup_norm


class TestClassify:
    def test_identity(self):
        diag = classify(PLCircleMap.identity(), SMALL)
        assert diag.status("wholesome") == "witnessed"
        assert diag.status("wonderful") == "refuted"
        assert diag.status("wacky") == "refuted"

    def test_attracting_homeo_wonderful(self):
        diag = classify(attracting_homeo(), SMALL)
        assert diag.status("wonderful") == "witnessed"
        assert diag.labels["wonderful"].evidence["basin_coverage"] == 1

    def test_orientation_reversing_derived(self):
        h = PLCircleMap([F(0), F(1, 3), F(1)], [F(3, 4), F(1, 4), F(-1, 4)])
        diag = classify(h, SMALL)
        assert diag.derived_from_square
        assert diag.status("wholesome") == "witnessed"

    def test_shredded_weird(self):
        g, report = shred(expanding_map(2), F(1, 5))
        verify_shredding(g, report)
        diag = classify(g, SMALL, report=report)
        assert diag.status("weird") == "witnessed"
        assert diag.status("wholesome") == "witnessed"
        assert diag.status("wonderful") == "refuted"
        assert diag.status("wacky") == "refuted"
        ev = diag.labels["weird"].evidence
        assert ev["witness_measure"] > 1 - F(1, 5)
        assert ev["witness_image_measure"] < F(1, 5)
        assert ev["max_empirical_basin"] < ev["basin_bound"] == F(2, 5)

    def test_a_report_verified_for_another_map_is_verified_again(self):
        # the report certifies g, not the rotated map: verify fails items i
        # and v on it, so classify must not trust the stale verification
        g, report = shred(expanding_map(3), F(1, 5))
        assert verify_shredding(g, report).all_passed
        rotated = PLCircleMap.rotation(F(1, 2)).compose(g)
        diag = classify(rotated, SMALL, report=report)
        assert diag.status("weird") != "witnessed"
        assert "basin_bound" not in diag.labels["weird"].evidence
        assert "reason" not in diag.labels["wonderful"].evidence
        items = report.verification.items
        assert not items["i"].passed and not items["v"].passed
        # the map the report certifies is still witnessed weird
        assert classify(g, SMALL, report=report).status("weird") == "witnessed"

    def test_wicked_trajectory_rule(self):
        target = CylinderSpec.dirac_zero(2, 3)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 1001)
        leb3 = CylinderSpec.lebesgue(2, 3)
        traj = [(n, res.cesaro_spec(n, 3)) for n in (1, 2, 1000)]
        # horizon 1000 within tol of the Dirac target, horizon 1 hits nothing
        assert traj[2][1].distance(target) < F(1, 100)
        g, report = shred(expanding_map(2), F(1, 5))  # any non-invertible map
        diag = classify(
            g, SMALL, trajectory=traj, declared_specs=[leb3, target]
        )
        # trajectory visits only the Dirac spec within wicked_tol at horizon
        # 1000; the early spec (1/4,0,1/4,...) is 1/8 from Lebesgue > 1/16
        assert diag.status("wicked") == "refuted"
        traj_good = [(1, leb3)] + traj
        diag2 = classify(
            g, SMALL, trajectory=traj_good, declared_specs=[leb3, target]
        )
        assert diag2.status("wicked") == "witnessed"

    def test_exclusivity_never_cowitnessed(self, rng):
        inputs = [
            PLCircleMap.identity(),
            attracting_homeo(),
            PLCircleMap.rotation(F(1, 2)),
            random_pl_homeo(rng),
        ]
        for f in inputs:
            diag = classify(f, SMALL)
            assert not (
                diag.labels["wholesome"].witnessed
                and diag.labels["wacky"].witnessed
            )
            assert not (
                diag.labels["wonderful"].witnessed
                and diag.labels["weird"].witnessed
            )


def test_cesaro_window_bounded_by_complement_mass():
    # identity on [0, 1/2]; strictly above the diagonal on (1/2, 1):
    # the Cesaro integral spread over late horizons is at most m(complement)
    f = PLCircleMap.from_lift_points(
        [(F(0), F(0)), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)), (F(1), F(1))]
    )
    phi = Observable.tent(F(1, 4))
    leb = CircleMeasure.lebesgue()
    vals = [cesaro(f, leb, n).integrate(phi) for n in range(5, 11)]
    spread = max(vals) - min(vals)
    assert spread <= F(1, 2)
