import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import measures
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.exact import ONE, Arc
from circledyn.expanding import expanding_map
from circledyn.measures import (
    CircleMeasure,
    CylinderSpec,
    cesaro,
    dirac_periodic,
    _word_count,
)
from circledyn.plmaps import Observable, PLCircleMap
from circledyn.shredder import shred

from conftest import lebesgue_on, random_pl_map

F = Fraction


def compose_observable(phi: Observable, f: PLCircleMap) -> Observable:
    """phi after f as an exact PL observable (test oracle helper)."""
    cuts = set(f.breakpoints)
    for i in range(len(f.breakpoints) - 1):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        fa, fb = f.lift_values[i], f.lift_values[i + 1]
        if fa == fb:
            continue
        s = (fb - fa) / (b - a)
        lo, hi = min(fa, fb), max(fa, fb)
        for c in phi.breakpoints[:-1]:
            for k in range(math.ceil(lo - c), math.floor(hi - c) + 1):
                t = a + (c + k - fa) / s
                if a < t < b:
                    cuts.add(t)
    bps = sorted(cuts)
    vals = [phi.evaluate(f.evaluate(t)) for t in bps[:-1]]
    vals.append(vals[0])
    return Observable(bps, vals)


class TestPushforward:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_lebesgue_invariant(self, ell, lebesgue):
        assert lebesgue.pushforward(expanding_map(ell)) == lebesgue

    def test_dirac(self):
        f = expanding_map(2)
        mu = CircleMeasure(atoms=[(F(1, 3), ONE)])
        assert mu.pushforward(f) == CircleMeasure(atoms=[(F(2, 3), ONE)])

    def test_flat_piece_makes_atom(self, lebesgue):
        # constant value 3/8 on [1/4, 1/2), an arc of measure 1/4
        f = PLCircleMap(
            [F(0), F(1, 4), F(1, 2), F(1)],
            [F(1, 8), F(3, 8), F(3, 8), F(9, 8)],
        )
        mu = lebesgue.pushforward(f)
        assert (F(3, 8), F(1, 4)) in mu.atoms
        assert mu.total_mass == 1

    def test_mass_conserved_random(self, rng, lebesgue):
        for _ in range(10):
            f = random_pl_map(rng, degree=rng.choice([-2, 0, 1, 2, 3]))
            assert lebesgue.pushforward(f).total_mass == 1

    def test_linearity(self, rng, lebesgue):
        f = random_pl_map(rng, degree=2)
        nu = CircleMeasure(atoms=[(F(1, 7), ONE)])
        a = F(1, 3)
        mix = CircleMeasure.convex_combination([(a, lebesgue), (1 - a, nu)])
        lhs = mix.pushforward(f)
        rhs = CircleMeasure.convex_combination(
            [(a, lebesgue.pushforward(f)), (1 - a, nu.pushforward(f))]
        )
        assert lhs == rhs

    def test_monte_carlo_oracle_small(self, rng, lebesgue):
        numpy = pytest.importorskip("numpy")
        f = random_pl_map(rng, degree=2)
        exact = lebesgue.pushforward(f)
        n = 200_000
        gen = numpy.random.default_rng(5)
        xs = gen.random(n)
        ys = numpy.interp(
            xs,
            [float(b) for b in f.breakpoints],
            [float(v) for v in f.lift_values],
        ) % 1.0
        grid = numpy.linspace(0, 1, 2001)
        emp = numpy.searchsorted(numpy.sort(ys), grid) / n
        cdf = numpy.array([float(exact.cdf(F(i, 2000))) for i in range(2001)])
        l1 = numpy.trapezoid(numpy.abs(emp - cdf), grid)
        assert l1 < 5e-3


class TestCesaro:
    def test_identity_fixed(self, lebesgue):
        assert cesaro(PLCircleMap.identity(), lebesgue, 5) == lebesgue

    def test_half_rotation_dirac(self):
        rot = PLCircleMap.rotation(F(1, 2))
        avg = cesaro(rot, CircleMeasure(atoms=[(F(0), ONE)]), 2)
        assert avg == CircleMeasure(
            atoms=[(F(0), F(1, 2)), (F(1, 2), F(1, 2))]
        )

    def test_trapped_mass_nondecreasing(self, lebesgue):
        g, report = shred(expanding_map(2), F(1, 2))
        arcs = [a for reg in report.regions for a in reg.arcs]
        prev = F(-1)
        for n in range(1, 21):
            mu = cesaro(g, lebesgue, n)
            mass = sum(mu.measure_of_interval(lo, hi) for a in arcs for lo, hi in a.intervals())
            assert mass >= prev
            prev = mass

    def test_complexity_cap(self, rng, lebesgue):
        f = random_pl_map(rng, degree=3)
        with pytest.raises(ResourceCap):
            cesaro(f, lebesgue, 40, complexity_cap=50)

    def test_held_cap_counts_every_iterate_before_it_is_kept(self, monkeypatch):
        # each iterate of the two atoms 0 and 1/2 under the half rotation
        # holds two atoms
        monkeypatch.setattr(measures, "CESARO_HELD_CAP", 4)
        rot = PLCircleMap.rotation(F(1, 2))
        mu = CircleMeasure(atoms=[(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
        assert cesaro(rot, mu, 2) == mu
        with pytest.raises(ResourceCap) as exc:
            cesaro(rot, mu, 3)
        assert str(exc.value) == "cesaro iterates 0..2 hold 6 atoms and pieces, above the cap 4"
        with pytest.raises(ResourceCap) as exc:
            cesaro(PLCircleMap.identity(), CircleMeasure.lebesgue(), 5)
        assert str(exc.value) == "cesaro horizon 5 keeps at least 5 atoms and pieces, above the cap 4"


@st.composite
def split_maps(draw) -> PLCircleMap:
    """Degree 2 or 3, at most 8 pieces, plateaus possible."""
    inner = draw(st.lists(st.integers(1, 63), unique=True, max_size=7))
    bps = [F(0)] + [F(k, 64) for k in sorted(inner)] + [F(1)]
    vals = [F(draw(st.integers(0, 63)), 64)]
    for _ in bps[1:]:
        if draw(st.integers(0, 4)) == 0:
            vals.append(vals[-1])
        else:
            vals.append(F(draw(st.integers(-64, 256)), 64))
    vals[-1] = vals[0] + draw(st.sampled_from([2, 3]))
    return PLCircleMap(bps, vals)


@st.composite
def arc_splits(draw) -> tuple[list[Arc], list[Arc]]:
    """A set A of arcs and its complement: the arcs between sorted cuts,
    taken in turn, where the last arc wraps past 0."""
    den = draw(st.sampled_from([64, 105, 2**40 + 15]))
    cuts = sorted(draw(st.lists(st.integers(0, den - 1), min_size=2, max_size=6, unique=True)))
    ends = [F(c, den) for c in cuts]
    arcs = [Arc(a, b - a) for a, b in zip(ends, ends[1:])]
    arcs.append(Arc(ends[-1], ends[0] + 1 - ends[-1]))
    return arcs[::2], arcs[1::2]


@settings(max_examples=150, deadline=None)
@given(split_maps(), arc_splits(), st.integers(1, 3))
def test_cesaro_split_on_random_arcs(f, split, n):
    # Lebesgue is the mass-weighted mix of its restrictions to A and to its
    # complement, and the Cesaro average is linear in the starting measure
    a_set, comp = split
    mass_a, on_a = lebesgue_on(a_set)
    mass_c, on_c = lebesgue_on(comp)
    assert mass_a + mass_c == 1
    rhs = CircleMeasure.convex_combination(
        [(mass_c, cesaro(f, on_c, n)), (mass_a, cesaro(f, on_a, n))]
    )
    assert cesaro(f, CircleMeasure.lebesgue(), n) == rhs


class TestIntegrate:
    def test_normalization(self, lebesgue):
        assert lebesgue.integrate(Observable.constant(F(1))) == 1

    def test_tent_area(self, lebesgue):
        assert lebesgue.integrate(Observable.tent(F(1, 2))) == F(1, 2)

    def test_change_of_variables(self, rng, lebesgue):
        for _ in range(5):
            f = random_pl_map(rng, degree=rng.choice([1, 2]))
            phi = Observable.tent(F(rng.randrange(8), 8))
            mu = CircleMeasure(
                atoms=[(F(2, 3), F(1, 4))], pieces=[(F(0), F(1, 2), F(3, 2))]
            )
            lhs = mu.pushforward(f).integrate(phi)
            rhs = mu.integrate(compose_observable(phi, f))
            assert lhs == rhs


class TestCylinderVector:
    def test_lebesgue(self, lebesgue):
        spec = lebesgue.cylinder_vector(2, 3)
        assert all(v == F(1, 8) for v in spec.values.values())

    def test_dirac(self):
        spec = CircleMeasure(atoms=[(F(0), ONE)]).cylinder_vector(2, 2)
        assert spec.value((0, 0)) == 1
        assert sum(spec.values.values()) == 1

    def test_cdf_consistency(self, rng, lebesgue):
        f = random_pl_map(rng, degree=2)
        mu = lebesgue.pushforward(f)
        spec = mu.cylinder_vector(2, 4)
        for v, w in enumerate(product(range(2), repeat=4)):
            lo, hi = F(v, 16), F(v + 1, 16)
            assert spec.value(w) == mu.cdf(hi) - mu.cdf(lo)


class TestDistances:
    def test_spec_distance_example(self):
        assert CylinderSpec.lebesgue(2, 3).distance(CylinderSpec.dirac_zero(2, 3)) == F(7, 8)

    def test_spec_distance_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            CylinderSpec.lebesgue(2, 2).distance(CylinderSpec.lebesgue(2, 3))


class TestRestrictNormalize:
    # Lebesgue restricted to arcs and normalised, as ``lebesgue_on`` builds it
    def test_lebesgue_half(self):
        half = CircleMeasure(pieces=[(F(0), F(1, 2), F(2))])
        assert lebesgue_on([Arc(F(0), F(1, 2))]) == (F(1, 2), half)
        # a wrapping arc keeps its two pieces
        _, mu = lebesgue_on([Arc(F(3, 4), F(1, 2))])
        assert mu.pieces == ((F(0), F(1, 4), F(2)), (F(3, 4), F(1), F(2)))

    def test_full_circle_identity(self, lebesgue):
        assert lebesgue_on([Arc.full()]) == (ONE, lebesgue)

    def test_cesaro_split_identity(self, rng, lebesgue):
        # exact decomposition of the Cesaro average by a conditioning set
        for _ in range(5):
            f = random_pl_map(rng, degree=rng.choice([1, 2]))
            mass_a, on_a = lebesgue_on([Arc(F(0), F(1, 4)), Arc(F(1, 2), F(1, 8))])
            mass_c, on_c = lebesgue_on([Arc(F(1, 4), F(1, 4)), Arc(F(5, 8), F(3, 8))])
            assert mass_a + mass_c == 1
            n = rng.randrange(1, 11)
            lhs = cesaro(f, lebesgue, n)
            rhs = CircleMeasure.convex_combination(
                [(mass_c, cesaro(f, on_c, n)), (mass_a, cesaro(f, on_a, n))]
            )
            assert lhs == rhs


class TestDiracPeriodic:
    def test_fixed_point(self):
        mu = dirac_periodic(expanding_map(2), F(0), 1)
        assert mu == CircleMeasure(atoms=[(F(0), ONE)])

    def test_rotation_orbit(self):
        rot = PLCircleMap.rotation(F(1, 2))
        mu = dirac_periodic(rot, F(0), 2)
        assert mu.atoms == ((F(0), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_invariance(self):
        rot = PLCircleMap.rotation(F(2, 5))
        mu = dirac_periodic(rot, F(1, 10), 5)
        assert mu.pushforward(rot) == mu

    def test_wrong_period_rejected(self):
        rot = PLCircleMap.rotation(F(1, 2))
        with pytest.raises(InvalidInput):
            dirac_periodic(rot, F(0), 4)
        with pytest.raises(InvalidInput):
            dirac_periodic(rot, F(0), 3)


class TestCylinderSpec:
    def test_bernoulli_invariant(self):
        spec = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
        assert spec.is_invariant()

    def test_dirac_invariant(self):
        assert CylinderSpec.dirac_zero(2, 3).is_invariant()
        assert CylinderSpec.dirac_zero(3, 2).is_invariant()

    def test_perturbed_rejected(self):
        spec = CylinderSpec(
            2, 2,
            {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 0): F(1, 8), (1, 1): F(1, 8)},
        )
        assert not spec.is_invariant()

    def test_marginal(self):
        spec = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 3)
        marg = spec.marginal(1)
        assert marg.value((0,)) == F(2, 3)

    def test_values_must_sum_to_one(self):
        with pytest.raises(InvalidInput):
            CylinderSpec(2, 1, {(0,): F(1, 2), (1,): F(1, 4)})

    def test_word_digits_must_lie_in_the_alphabet(self):
        # digits 7 and -1 name no base-2 interval; the mass would vanish
        # from every extension level
        with pytest.raises(InvalidInput, match="outside 0..1"):
            CylinderSpec(2, 2, {(0, 7): F(1, 2), (-1, 0): F(1, 2)})

    def test_values_must_be_exact(self):
        with pytest.raises(InvalidInput, match="exact rationals"):
            CylinderSpec(2, 1, {(0,): 0.5, (1,): 0.5})

    def test_word_count_capped_before_listing(self, lebesgue):
        # each of these would list 10^9 (or 2^(10^9)) words without the cap
        with pytest.raises(ResourceCap, match=r"10\^9 words, above the cap 1000000"):
            CylinderSpec.dirac_zero(10, 9)
        with pytest.raises(ResourceCap):
            CylinderSpec.lebesgue(2, 10**9)
        with pytest.raises(ResourceCap):
            CylinderSpec.bernoulli([F(1, 10)] * 10, 9)
        with pytest.raises(ResourceCap):
            lebesgue.cylinder_vector(10, 9)
        # the cap itself is allowed: 10^6 words at ell 10, level 6
        assert _word_count(10, 6) == 10**6

    def test_sparse_values(self):
        # only positive values are stored; every other word reads 0
        spec = CylinderSpec.dirac_zero(10, 6)
        assert spec.values == {(0,) * 6: 1}
        assert spec.value((9,) * 6) == 0
        assert CylinderSpec.bernoulli([F(1), F(0)], 3).values == {(0, 0, 0): 1}
        # the distance runs over the words either spec holds
        ones = CylinderSpec.from_strings(2, 2, {"11": F(1)})
        assert CylinderSpec.dirac_zero(2, 2).distance(ones) == 1
        assert ones.distance(CylinderSpec.lebesgue(2, 2)) == F(3, 4)

    def test_extension_dirac_sparse(self):
        spec = CylinderSpec.dirac_zero(2, 3)
        tables = spec.extension_table(40)
        assert len(tables) == 40
        assert all(len(t) == 1 for t in tables)
        assert tables[-1][tuple([0] * 40)] == 1

    def test_extension_is_stationary(self):
        spec = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
        tables = spec.extension_table(5)
        for depth in range(1, 5):
            cur, nxt = tables[depth - 1], tables[depth]
            for w, v in cur.items():
                children = sum(
                    (nxt.get(w + (c,), F(0)) for c in range(2)), start=F(0)
                )
                parents = sum(
                    (nxt.get((c,) + w, F(0)) for c in range(2)), start=F(0)
                )
                assert children == v
                assert parents == v
