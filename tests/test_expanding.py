import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import circledyn
from circledyn import expanding
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.expanding import (
    conjugate,
    expanding_map,
    rotation_companions,
    wicked_perturb,
)
from circledyn.measures import CircleMeasure, CylinderSpec
from circledyn.partitions import ConsistentFamily, family_from_homeo
from circledyn.plmaps import PLCircleMap

from conftest import random_pl_homeo

F = Fraction


class TestExpandingMap:
    def test_doubling_lift(self):
        e2 = expanding_map(2)
        assert e2.breakpoints == (F(0), F(1))
        assert e2.lift_values == (F(0), F(2))
        assert e2.evaluate(F(3, 8)) == F(3, 4)

    def test_tripling_fixed_points(self):
        comps = expanding_map(3).fixed_point_components()
        assert sorted(c.point for c in comps) == [F(0), F(1, 2)]

    def test_degree_bound(self):
        with pytest.raises(InvalidInput):
            expanding_map(1)
        with pytest.raises(InvalidInput):
            expanding_map(-1)

    def test_negative_degree(self):
        em = expanding_map(-2)
        assert em.degree == -2
        assert len(em.fixed_point_components()) == 3


class TestConjugate:
    def test_identity_conjugator(self):
        conj = conjugate(PLCircleMap.identity(), 3)
        assert conj.f == expanding_map(3)

    def test_rotation_conjugator_fixed_count(self):
        conj = conjugate(PLCircleMap.rotation(F(1, 4)), 2)
        assert conj.fixed_point_count == 1

    def test_degree_matches(self, rng):
        for ell in (2, 3, -2):
            h = random_pl_homeo(rng)
            conj = conjugate(h, ell)
            assert conj.f.degree == ell
            assert conj.fixed_point_count == abs(ell - 1)

    def test_non_homeo_rejected(self):
        with pytest.raises(InvalidInput):
            conjugate(expanding_map(2), 2)


class TestRotationCompanions:
    def test_ell2_single(self, rng):
        h = random_pl_homeo(rng)
        assert rotation_companions(h, 2) == [h]

    def test_ell3_identity(self):
        comps = rotation_companions(PLCircleMap.identity(), 3)
        assert comps == [PLCircleMap.identity(), PLCircleMap.rotation(F(1, 2))]
        for c in comps:
            assert conjugate(c, 3).f == expanding_map(3)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_companions_give_identical_map(self, ell, rng):
        h = random_pl_homeo(rng)
        fs = [conjugate(c, ell).f for c in rotation_companions(h, ell)]
        assert len(fs) == ell - 1
        assert all(f == fs[0] for f in fs)

    def test_other_rotation_differs(self, rng):
        h = random_pl_homeo(rng)
        ell = 3
        base = conjugate(h, ell).f
        other = conjugate(PLCircleMap.rotation(F(1, 3)).compose(h), ell).f
        assert other != base

    def test_conjugacy_classes_separate_at_half(self, rng):
        f2 = conjugate(random_pl_homeo(rng), 2).f
        f3 = conjugate(random_pl_homeo(rng), 3).f
        assert f2.c0_distance(f3) == F(1, 2)


class TestCylinderPushforward:
    def test_identity_gives_lebesgue(self):
        for q in (0, 3, 6):
            spec = family_from_homeo(PLCircleMap.identity(), 2, q + 3).cylinder_pushforward(q, 3)
            assert spec == CylinderSpec.lebesgue(2, 3)

    def test_q0_matches_pushforward_cylinders(self, rng):
        h = random_pl_homeo(rng)
        spec = family_from_homeo(h, 2, 3).cylinder_pushforward(0, 3)
        hm = CircleMeasure.lebesgue().pushforward(h)
        assert spec == hm.cylinder_vector(2, 3)

    def test_matches_iterated_measure_path(self, rng):
        h = random_pl_homeo(rng)
        spec = family_from_homeo(h, 2, 5).cylinder_pushforward(3, 2)
        mu = CircleMeasure.lebesgue().pushforward(h)
        e2 = expanding_map(2)
        for _ in range(3):
            mu = mu.pushforward(e2)
        assert spec == mu.cylinder_vector(2, 2)

    def test_depth_validated(self, rng):
        fam = family_from_homeo(random_pl_homeo(rng), 2, 3)
        with pytest.raises(InvalidInput):
            fam.cylinder_pushforward(3, 2)


class TestWickedPerturb:
    def test_dirac_window_exact(self):
        target = CylinderSpec.dirac_zero(2, 3)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 8)
        assert res.n0 == 2
        assert res.is_degenerate
        for k in range(2, 8):
            assert res.cylinder_pushforward(k, 3).distance(target) == 0
        dist = res.c0_distance_to(PLCircleMap.identity())
        assert dist < F(1, 4)
        assert dist == F(255, 1024)

    def test_dirac_realization_refused(self):
        target = CylinderSpec.dirac_zero(2, 3)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 8)
        with pytest.raises(InvalidInput):
            res.homeomorphism()

    def test_lebesgue_target_reproduces_lebesgue(self):
        target = CylinderSpec.lebesgue(2, 2)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 7)
        assert not res.is_degenerate
        for k in range(res.depth - 2):
            assert res.cylinder_pushforward(k, 2) == target
        assert res.homeomorphism() == PLCircleMap.identity()

    def test_bernoulli_window_and_homeo(self, rng):
        target = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 8), 9)
        assert res.n0 == 3
        for k in range(3, 9):
            assert res.cylinder_pushforward(k, 2).distance(target) == 0
        hp = res.homeomorphism()
        dist = PLCircleMap.identity().c0_distance(hp)
        assert dist < F(1, 8)
        assert res.c0_distance_to(PLCircleMap.identity()) == dist
        # the honest preimage route reproduces the window equality
        assert family_from_homeo(hp, 2, 7).cylinder_pushforward(5, 2) == target
        # agreement between family view and realized-homeo view everywhere
        fam = family_from_homeo(hp, 2, res.depth)
        assert fam.tables == res.tables and fam.basepoint == res.basepoint
        assert fam.levels == res.levels

    def test_window_from_random_base(self, rng):
        h = random_pl_homeo(rng)
        target = CylinderSpec.bernoulli([F(1, 4), F(3, 4)], 2)
        res = wicked_perturb(h, 2, target, F(1, 4), 7)
        for k in range(res.n0, 7):
            assert res.cylinder_pushforward(k, 2) == target
        assert res.c0_distance_to(h) < F(1, 4)

    def test_non_invariant_target_rejected(self):
        bad = CylinderSpec(
            2, 2,
            {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 0): F(1, 8), (1, 1): F(1, 8)},
        )
        with pytest.raises(InvalidInput):
            wicked_perturb(PLCircleMap.identity(), 2, bad, F(1, 4), 8)

    def test_cell_cap_checked_before_the_kept_levels_are_listed(self, monkeypatch):
        # the n0 = 16 kept levels hold 131 070 cells and the three deeper
        # levels 3 * 2^16 more
        def listed(*args):
            raise AssertionError("family_from_homeo ran before the cap check")

        monkeypatch.setattr(expanding, "family_from_homeo", listed)
        monkeypatch.setattr(expanding, "DEFAULT_CELL_CAP", 1000)
        with pytest.raises(ResourceCap, match=r"needs 327678 positive cells, above the cap 1000$"):
            wicked_perturb(
                PLCircleMap.identity(), 2, CylinderSpec.dirac_zero(2, 1), F(1, 2**16), 19
            )

    def test_word_digits_capped_before_the_extension_is_listed(self):
        # the target 00 extends by one cell a level, so each of the ~30 000
        # deeper levels holds 2 cells of up to 30 000 digits, about 9 * 10^8
        # digits in all.  Run in a child limited to 1 GB of address space,
        # where listing them ends in MemoryError
        child = (
            "import time\n"
            "from fractions import Fraction as F\n"
            "from circledyn.errors import ResourceCap\n"
            "from circledyn.expanding import wicked_perturb\n"
            "from circledyn.measures import CylinderSpec\n"
            "from circledyn.plmaps import PLCircleMap\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    wicked_perturb(PLCircleMap.identity(), 2, CylinderSpec(2, 2, {(0, 0): F(1)}), F(3, 4), 30000)\n"
            "except ResourceCap as exc:\n"
            "    print(time.perf_counter() - start)\n"
            "    print(exc)\n"
        )

        def limit():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        src = str(Path(circledyn.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit,
        )
        assert proc.returncode == 0, proc.stderr
        seconds, message = proc.stdout.splitlines()
        assert float(seconds) < 0.5
        assert message == (
            f"family words need at least 900090000 digits, above the cap {expanding.WORD_DIGIT_CAP}"
        )

    def test_window_length_validated(self):
        target = CylinderSpec.dirac_zero(2, 3)
        with pytest.raises(InvalidInput):
            wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 5)

    def test_degenerate_distance_dominates_samples(self):
        # the reported sup distance bounds the pointwise distance to the jump
        # realization (affine on positive deepest cells) on a fine sample
        from circledyn.exact import circle_dist, mod1

        ident = PLCircleMap.identity()
        target = CylinderSpec.dirac_zero(2, 3)
        res = wicked_perturb(ident, 2, target, F(1, 4), 8)
        sup = res.c0_distance_to(ident)
        scale = F(1, 2**res.depth)
        worst = F(0)
        for word, (pos, length) in res.tables[res.depth - 1].items():
            value = F(0)
            for d in word:
                value = 2 * value + d
            a_w = value * scale
            for j in range(50):
                t = pos + length * F(j, 50)
                image = a_w + (t - pos) * scale / length
                d_here = circle_dist(ident.evaluate(mod1(t)), mod1(image))
                worst = max(worst, d_here)
        assert worst <= sup
        assert sup - worst < F(1, 64)

    def test_family_view_agrees_with_tables(self):
        target = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 7)
        fam = ConsistentFamily(2, res.depth, res.levels)
        assert fam.tables == res.tables
        for q in (0, 2, 4):
            assert fam.cylinder_pushforward(q, 2) == res.cylinder_pushforward(q, 2)
        assert fam.cesaro_spec(5, 2) == res.cesaro_spec(5, 2)
        # and against the realized homeomorphism, depth permitting
        hp = res.homeomorphism()
        assert family_from_homeo(hp, 2, 6).cesaro_spec(5, 2) == res.cesaro_spec(5, 2)


class TestCesaroCylinder:
    def test_identity_lebesgue(self):
        for n in (1, 3, 6):
            spec = family_from_homeo(PLCircleMap.identity(), 2, n + 1).cesaro_spec(n, 2)
            assert spec == CylinderSpec.lebesgue(2, 2)

    def test_dirac_window_bound(self):
        target = CylinderSpec.dirac_zero(2, 3)
        n = 12
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), n)
        spec = res.cesaro_spec(n - 1, 3)
        assert spec.distance(target) <= F(res.n0, n - 1)

    def test_convexity(self):
        target = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 4), 8)
        n = 6
        acc = dict.fromkeys(product(range(2), repeat=2), F(0))
        for k in range(n):
            for w in acc:
                acc[w] += res.cylinder_pushforward(k, 2).value(w) / n
        spec = res.cesaro_spec(n, 2)
        assert all(spec.value(w) == acc[w] for w in acc)
        assert sum(spec.values.values()) == 1

    def test_bernoulli_cesaro_window_bound(self):
        target = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
        n = 8
        res = wicked_perturb(PLCircleMap.identity(), 2, target, F(1, 8), n)
        spec = res.cesaro_spec(n, 2)
        assert spec.distance(target) <= F(res.n0 + 2, n)
