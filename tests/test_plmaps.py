from fractions import Fraction
from math import gcd

import pytest

from circledyn.classifier import basin_decomposition
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.exact import Arc, circle_dist
from circledyn.expanding import expanding_map
from circledyn.plmaps import Observable, PLCircleMap

from conftest import random_pl_homeo, random_pl_map, reference_forms

F = Fraction


class TestEvaluation:
    def test_doubling(self):
        e2 = expanding_map(2)
        assert e2.evaluate(F(3, 8)) == F(3, 4)

    def test_identity(self, rng):
        ident = PLCircleMap.identity()
        for _ in range(10):
            x = F(rng.randrange(64), 64)
            assert ident.evaluate(x) == x

    def test_rotation_wraparound(self):
        rot = PLCircleMap.rotation(F(2, 5))
        assert rot.evaluate(F(4, 5)) == F(1, 5)

    def test_integer_step_matches_evaluate(self, rng):
        for _ in range(40):
            f = random_pl_map(rng, degree=rng.choice([-2, -1, 0, 1, 2]))
            for _ in range(20):
                x = F(rng.randrange(4096), 4096)
                y = f.evaluate(x)
                assert f.step(x.numerator, x.denominator) == (y.numerator, y.denominator)
            # every breakpoint
            g = random_pl_map(rng, n_break=8)
            for b in g.breakpoints[:-1]:
                assert g.step(b.numerator, b.denominator) == (
                    g.evaluate(b).numerator, g.evaluate(b).denominator
                )

    def test_step_forms_are_reduced(self, rng):
        big = 2**60 + 33  # lift values with ~60-bit denominators
        flat = 0
        for _ in range(60):
            den = rng.choice([12, big])
            inner = sorted(rng.sample(range(1, 200), rng.randrange(7)))
            bps = [F(0)] + [F(k, 200) for k in inner] + [F(1)]
            vals = [F(rng.randrange(den), den)]
            for _ in bps[1:]:
                if rng.randrange(4):
                    vals.append(F(rng.randrange(-3 * den, 3 * den), den))
                else:
                    vals.append(vals[-1])  # a plateau
            vals[-1] = vals[0] + rng.randrange(-2, 4)
            f = PLCircleMap(bps, vals)
            assert list(f._forms) == reference_forms(f.breakpoints, f.lift_values)
            for a, b, d in f._forms:
                assert gcd(a, b, d) == 1 and d > 0
                flat += not b
            points = [F(rng.randrange(big), big) for _ in range(10)]
            for x in points + list(f.breakpoints[:-1]):
                y = f.evaluate(x)
                assert f.step(x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert flat


class TestCompose:
    def test_doubling_squared(self):
        e2 = expanding_map(2)
        assert e2.compose(e2) == expanding_map(4)

    def test_rotation_cycle(self):
        rot = PLCircleMap.rotation(F(1, 3))
        assert rot.compose(rot.compose(rot)) == PLCircleMap.identity()

    def test_degree_multiplies(self, rng):
        for _ in range(10):
            f = random_pl_map(rng, degree=rng.choice([-2, -1, 0, 1, 2]))
            g = random_pl_map(rng, degree=rng.choice([-1, 1, 2, 3]))
            h = f.compose(g)
            # oracle: degree recomputed from the composed lift at 0 and 1
            assert h.lift_evaluate(F(1)) - h.lift_evaluate(F(0)) == f.degree * g.degree
            assert h.degree == f.degree * g.degree
            # pointwise agreement
            for _ in range(20):
                x = F(rng.randrange(256), 256)
                assert h.evaluate(x) == f.evaluate(g.evaluate(x))

    def test_breakpoint_cap(self):
        e2 = expanding_map(2)
        power = e2
        with pytest.raises(ResourceCap):
            for _ in range(40):
                power = e2.compose(power, max_breakpoints=1000)

    def test_breakpoint_cap_message_states_used_and_limit(self):
        e2 = expanding_map(2)
        # e2 o e2 needs the breakpoints 0, 1/2, 1
        with pytest.raises(ResourceCap, match=r"reached 3 breakpoints .* cap 2$"):
            e2.compose(e2, max_breakpoints=2)


class TestInvert:
    def test_rotation(self):
        assert PLCircleMap.rotation(F(1, 3)).invert() == PLCircleMap.rotation(F(2, 3))
        assert PLCircleMap.identity().invert() == PLCircleMap.identity()

    def test_exact_roundtrip(self):
        h = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(1, 4), F(1)])
        assert h.compose(h.invert()) == PLCircleMap.identity()
        assert h.invert().compose(h) == PLCircleMap.identity()

    def test_random_roundtrip_pointwise(self, rng):
        h = random_pl_homeo(rng)
        inv = h.invert()
        for i in range(1000):
            x = F(i, 1000)
            assert inv.evaluate(h.evaluate(x)) == x
        for _ in range(4):
            h = random_pl_homeo(rng)
            inv = h.invert()
            for i in range(0, 1000, 7):
                x = F(i, 1000)
                assert inv.evaluate(h.evaluate(x)) == x

    def test_orientation_reversing_invert(self):
        h = PLCircleMap([F(0), F(1, 3), F(1)], [F(3, 4), F(1, 4), F(-1, 4)])
        assert h.is_homeomorphism and h.degree == -1
        assert h.compose(h.invert()) == PLCircleMap.identity()

    def test_non_homeo_rejected(self):
        with pytest.raises(InvalidInput):
            expanding_map(2).invert()


class TestC0Distance:
    def test_self_distance_zero(self):
        e2 = expanding_map(2)
        assert e2.c0_distance(e2) == 0

    def test_degree_separation(self):
        assert expanding_map(2).c0_distance(expanding_map(3)) == F(1, 2)

    def test_rotation_offset(self):
        d = PLCircleMap.identity().c0_distance(PLCircleMap.rotation(F(1, 3)))
        assert d == F(1, 3)

    def test_metric_properties(self, rng):
        maps = [random_pl_map(rng, degree=1) for _ in range(3)]
        f, g, h = maps
        assert f.c0_distance(g) == g.c0_distance(f)
        assert f.c0_distance(h) <= f.c0_distance(g) + g.c0_distance(h)
        assert f.c0_distance(f) == 0

    def test_any_degree_pair_separates_at_half(self, rng):
        # maps of different degrees sit at exact distance 1/2
        for _ in range(6):
            da, db = rng.sample([-2, -1, 0, 1, 2, 3], 2)
            f = random_pl_map(rng, degree=da)
            g = random_pl_map(rng, degree=db)
            assert f.c0_distance(g) == F(1, 2)

    def test_sup_matches_grid_samples(self, rng):
        f = random_pl_map(rng)
        g = random_pl_map(rng)
        d = f.c0_distance(g)
        worst = max(
            circle_dist(f.evaluate(F(i, 512)), g.evaluate(F(i, 512)))
            for i in range(512)
        )
        assert worst <= d


class TestFixedPoints:
    def test_doubling(self):
        comps = expanding_map(2).fixed_point_components()
        assert len(comps) == 1 and comps[0].point == 0 and comps[0].transversal

    def test_tripling(self):
        comps = expanding_map(3).fixed_point_components()
        assert sorted(c.point for c in comps) == [F(0), F(1, 2)]
        assert all(c.transversal for c in comps)

    def test_conjugated_tripling_count(self, rng):
        for _ in range(3):
            h = random_pl_homeo(rng)
            f = h.invert().compose(expanding_map(3).compose(h))
            comps = f.fixed_point_components()
            assert len(comps) == 2
            assert all(c.is_point for c in comps)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_conjugacy_count_invariant(self, ell, rng):
        for _ in range(3):
            h = random_pl_homeo(rng)
            f = h.invert().compose(expanding_map(ell).compose(h))
            assert len(f.fixed_point_components()) == ell - 1

    def test_identity_full_circle(self):
        comps = PLCircleMap.identity().fixed_point_components()
        assert len(comps) == 1
        assert not comps[0].is_point
        assert comps[0].arc.length == 1

    def test_rotation_half_period_two(self):
        comps = basin_decomposition(PLCircleMap.rotation(F(1, 2))).periodic_components
        assert len(comps) == 1
        assert comps[0].arc.length == 1
        assert comps[0].minimal_period == 2
        assert PLCircleMap.rotation(F(1, 2)).fixed_point_components() == []

    def test_tangential_touch(self):
        # graph touches the diagonal at 1/2 without crossing
        f = PLCircleMap(
            [F(0), F(1, 2), F(1)], [F(1, 8), F(1, 2), F(9, 8)]
        )
        comps = f.fixed_point_components()
        touch = [c for c in comps if c.is_point and c.point == F(1, 2)]
        assert len(touch) == 1 and not touch[0].transversal

    def test_fixed_arc_reported(self):
        # identity on [1/4, 1/2], strictly above elsewhere
        f = PLCircleMap.from_lift_points(
            [(F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)),
             (F(5, 4), F(5, 4))]
        )
        comps = f.fixed_point_components()
        arcs = [c for c in comps if not c.is_point]
        assert len(arcs) == 1
        assert arcs[0].arc == Arc(F(1, 4), F(1, 4))
        assert not arcs[0].transversal

    def test_minimal_periods(self):
        for h, period in ((PLCircleMap.rotation(F(1, 4)), 4), (PLCircleMap.identity(), 1)):
            bd = basin_decomposition(h)
            (comp,) = bd.periodic_components
            assert comp.arc.length == 1
            assert comp.minimal_period == bd.period == period

    def test_fixed_arc_wrapping_through_zero(self):
        # identity on [7/8, 1] u [0, 1/8], strictly above the diagonal between
        f = PLCircleMap.from_lift_points(
            [(F(0), F(0)), (F(1, 8), F(1, 8)), (F(1, 2), F(5, 8)),
             (F(7, 8), F(7, 8)), (F(1), F(1))]
        )
        comps = f.fixed_point_components()
        assert len(comps) == 1
        comp = comps[0]
        assert not comp.is_point
        assert comp.arc == Arc(F(7, 8), F(1, 4))

    def test_transversal_fixed_point_at_zero_wrap(self):
        # crosses the diagonal exactly at the wrap point
        f = PLCircleMap.from_lift_points(
            [(F(-1, 4), F(-3, 8)), (F(1, 4), F(3, 8)), (F(3, 4), F(5, 8))]
        )
        comps = f.fixed_point_components()
        zero = [c for c in comps if c.is_point and c.point == 0]
        assert len(zero) == 1 and zero[0].transversal


class TestObservable:
    def test_tent_values(self):
        tent = Observable.tent(F(1, 2))
        assert tent.evaluate(F(1, 2)) == 1
        assert tent.evaluate(F(0)) == 0
        assert tent.evaluate(F(1, 4)) == F(1, 2)
        assert tent.sup_norm == 1

    def test_tent_matches_generic_pl_path(self, rng):
        tent = Observable.tent(F(3, 8))
        generic = Observable(tent.breakpoints, tent.values)
        for _ in range(50):
            x = F(rng.randrange(4096), 4096)
            assert tent.evaluate(x) == generic.evaluate(x)

    def test_oscillation_and_integral(self):
        tent = Observable.tent(F(1, 2))
        assert tent.integral_on_interval(F(0), F(1)) == F(1, 2)
        assert tent.oscillation_on_arc(Arc(F(1, 4), F(1, 2))) == F(1, 2)
        lo, hi = tent.range_on_arc(Arc(F(3, 8), F(1, 4)))
        assert (lo, hi) == (F(3, 4), F(1))
