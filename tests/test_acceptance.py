"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with their exact witnesses.
"""

import random
import time
from fractions import Fraction

import pytest

from circledyn.classifier import WProtocol, basin_decomposition, classify
from circledyn.expanding import (
    conjugate,
    expanding_map,
    rotation_companions,
    wicked_perturb,
)
from circledyn.measures import (
    CircleMeasure,
    CylinderSpec,
    cesaro,
)
from circledyn.partitions import family_from_homeo
from circledyn.plmaps import Observable, PLCircleMap
from circledyn.shredder import (
    ShredConfig,
    birkhoff_gap_bound,
    shred,
    verify_shredding,
)
from circledyn.cli import figure3_map

from conftest import (
    lebesgue_on,
    random_pl_homeo,
    random_pl_map,
    random_transversal_homeo,
    wild_base_homeo,
)

F = Fraction


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_1_shredding_soundness():
    rng = random.Random(11)
    cases = [
        ("identity", PLCircleMap.identity()),
        ("doubling", expanding_map(2)),
        ("random-6bp", random_pl_map(rng, n_break=6, degree=1)),
    ]
    for name, f in cases:
        for eps in (F(1, 2), F(1, 5), F(1, 10)):
            t0 = time.time()
            g, rep = shred(f, eps)
            verification = verify_shredding(g, rep)
            dist = f.c0_distance(g)
            elapsed = time.time() - t0
            assert verification.all_passed, (name, eps)
            for key, verdict in verification.items.items():
                assert verdict.passed and (verdict.slack is None or verdict.slack > 0), (
                    name, eps, key,
                )
            assert dist < eps
            assert elapsed < 5.0, (name, eps, elapsed)
    report(
        "criterion 1: shredding items i-v verified exactly with positive "
        "slack for identity/doubling/random at eps in {1/2, 1/5, 1/10}, "
        "each under 5 s"
    )


def test_criterion_2_figure3_region_count():
    t0 = time.time()
    f = figure3_map()
    g, rep = shred(f, F(3, 4), ShredConfig(cells=5, subdivisions=4))
    elapsed = time.time() - t0
    assert rep.tau == (0, 0, 2, 2, 2)
    assert len(rep.orbits) == 2
    assert rep.region_count == 8
    assert elapsed < 1.0
    report(
        f"criterion 2: 5 cells x 4 subdivisions with two fixed cells gives "
        f"exactly {rep.region_count} trapping regions in {elapsed:.2f} s"
    )


def test_criterion_3_wicked_window_exactness():
    t0 = time.time()
    ident = PLCircleMap.identity()

    target = CylinderSpec.dirac_zero(2, 3)
    res = wicked_perturb(ident, 2, target, F(1, 4), 8)
    assert res.n0 == 2
    for k in range(2, 8):
        assert res.cylinder_pushforward(k, 3).distance(target) == 0
    d1 = res.c0_distance_to(ident)
    assert d1 < F(1, 4)

    bern = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
    res2 = wicked_perturb(ident, 2, bern, F(1, 4), 8)
    for k in range(2, 8):
        assert res2.cylinder_pushforward(k, 2).distance(bern) == 0
    h_prime = res2.homeomorphism()
    d2 = ident.c0_distance(h_prime)
    assert d2 < F(1, 4)
    # independent route: preimage family of the realized homeomorphism
    assert family_from_homeo(h_prime, 2, 9).cylinder_pushforward(7, 2) == bern
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        f"criterion 3: window k=2..7 hits the Dirac target with rational "
        f"zeros (d(h,h') = {d1} < 1/4) and the Bernoulli(2/3,1/3) target "
        f"exactly (d = {d2} < 1/4), in {elapsed:.1f} s"
    )


def test_criterion_4_conjugation_multiplicity():
    rng = random.Random(23)
    t0 = time.time()
    for ell in (2, 3, 4):
        for _ in range(5):
            h = random_pl_homeo(rng)
            companions = rotation_companions(h, ell)
            assert len(companions) == ell - 1
            fs = [conjugate(c, ell).f for c in companions]
            assert all(f == fs[0] for f in fs)
            assert len(fs[0].fixed_point_components()) == ell - 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(
        f"criterion 4: all ell-1 rotation companions give PL-identical "
        f"conjugates with exactly ell-1 fixed points, ell in 2..4, "
        f"{elapsed:.1f} s"
    )


def test_criterion_5_degree_separation():
    d = expanding_map(2).c0_distance(expanding_map(3))
    assert d == F(1, 2)
    rng = random.Random(5)
    f2 = random_pl_map(rng, degree=2)
    f3 = random_pl_map(rng, degree=3)
    assert f2.c0_distance(f3) == F(1, 2)
    report("criterion 5: degree-2 vs degree-3 maps at exact distance 1/2")


def test_criterion_6_basin_decomposition_with_oracle():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(37)
    checked_points = 0
    n_samples = 10_000
    for trial in range(10):
        h = random_transversal_homeo(rng, pairs=rng.randrange(1, 4))
        bd = basin_decomposition(h)
        assert bd.basin_total + bd.periodic_set_measure == 1
        for pm in bd.physical_measures:
            assert pm.basin_measure > 0
            assert len(pm.measure.atoms) == pm.period
            assert all(a.length > 0 for a in pm.basin_arcs)

        bps = numpy.array([float(b) for b in h.breakpoints])
        vals = numpy.array([float(v) for v in h.lift_values])
        ys = numpy.arange(n_samples) / n_samples
        for _ in range(3000):
            ys = numpy.interp(ys, bps, vals) % 1.0
        fixed = numpy.array(
            sorted(float(c.point) for c in bd.periodic_components if c.is_point)
        )
        # nearest fixed point in the circle metric
        diffs = numpy.abs(ys[:, None] - fixed[None, :])
        diffs = numpy.minimum(diffs, 1.0 - diffs)
        landed = fixed[numpy.argmin(diffs, axis=1)]
        for k in range(n_samples):
            xq = F(k, n_samples)
            predicted = None
            for pm in bd.physical_measures:
                if any(a.contains(xq) for a in pm.basin_arcs):
                    predicted = float(pm.orbit_representative)
                    break
            if predicted is None:
                continue  # the sample sits in the periodic set
            assert abs(landed[k] - predicted) < 1e-9, (trial, xq)
            checked_points += 1
    report(
        f"criterion 6: 10 random transversal homeomorphisms decompose into "
        f"periodic Dirac physical measures with open basins summing to 1; "
        f"10^4-point orbit oracle agreed at all {checked_points} "
        f"basin-sampled points"
    )


def test_criterion_7_pushforward_oracle():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(41)
    lebesgue = CircleMeasure.lebesgue()
    worst = 0.0
    for trial in range(5):
        f = random_pl_map(rng, n_break=6, degree=rng.choice([1, 2, 2, 3, -2]))
        exact = lebesgue.pushforward(f)
        gen = numpy.random.default_rng(100 + trial)
        xs = gen.random(1_000_000)
        ys = numpy.interp(
            xs,
            [float(b) for b in f.breakpoints],
            [float(v) for v in f.lift_values],
        ) % 1.0
        grid = numpy.linspace(0.0, 1.0, 4001)
        emp = numpy.searchsorted(numpy.sort(ys), grid) / len(ys)
        cdf = numpy.array([float(exact.cdf(F(i, 4000))) for i in range(4001)])
        l1 = float(numpy.trapezoid(numpy.abs(emp - cdf), grid))
        worst = max(worst, l1)
        assert l1 < 5e-3, (trial, l1)
    for ell in (2, 3, 4):
        assert lebesgue.pushforward(expanding_map(ell)) == lebesgue
    report(
        f"criterion 7: exact push-forward within L1 {worst:.2e} of the "
        f"1e6-sample Monte-Carlo CDF on 5 random maps; Lebesgue exactly "
        f"invariant under degrees 2, 3, 4"
    )


def test_criterion_8_birkhoff_bracket_on_shredded_maps():
    battery = [Observable.tent(F(j, 8)) for j in range(8)]
    checked = 0
    for f in (PLCircleMap.identity(), expanding_map(2)):
        g, rep = shred(f, F(1, 5))
        verify_shredding(g, rep)
        for label, cyc in rep.cycles.items():
            for w in cyc:
                x = w.midpoint  # the anchor of this cycle set
                for phi in battery:
                    for n in (100, 1000, 10000):
                        br = birkhoff_gap_bound(g, rep, phi, x, n)
                        assert br.lower <= br.empirical <= br.upper
                        checked += 1
    report(
        f"criterion 8: finite averages inside the cycle-mean bracket at "
        f"horizons 100/1000/10000 for 8 tents at every cycle anchor "
        f"({checked} brackets, all exact)"
    )


def test_criterion_9_cesaro_split_and_w5_implies_w4():
    rng = random.Random(53)
    lebesgue = CircleMeasure.lebesgue()

    # exact Cesaro split identity on 20 random instances
    from circledyn.exact import Arc

    for _ in range(20):
        f = random_pl_map(rng, degree=rng.choice([1, 2]))
        cut1 = F(rng.randrange(1, 32), 64)
        cut2 = cut1 + F(rng.randrange(1, 16), 64)
        mass_a, on_a = lebesgue_on([Arc(F(0), cut1), Arc(cut2, F(7, 8) - cut2)])
        mass_c, on_c = lebesgue_on([Arc(cut1, cut2 - cut1), Arc(F(7, 8), F(1, 8))])
        assert mass_a + mass_c == 1
        n = rng.randrange(1, 11)
        lhs = cesaro(f, lebesgue, n)
        rhs = CircleMeasure.convex_combination(
            [(mass_c, cesaro(f, on_c, n)), (mass_a, cesaro(f, on_a, n))]
        )
        assert lhs == rhs

    # wicked evidence and wacky evidence co-occur on a window perturbation
    h0 = wild_base_homeo()
    target = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2)
    res = wicked_perturb(h0, 2, target, F(1, 4), 8)
    for k in range(res.n0, 8):
        assert res.cylinder_pushforward(k, 2) == target
    f_wicked = conjugate(res.homeomorphism(), 2).f
    leb_spec = CylinderSpec.lebesgue(2, 2)
    trajectory = [(n, res.cesaro_spec(n, 2)) for n in (1, 2, 4, 8)]
    protocol = WProtocol()
    diag = classify(
        f_wicked, protocol, trajectory=trajectory,
        declared_specs=[leb_spec, target],
    )
    assert diag.labels["wicked"].witnessed
    assert diag.labels["wacky"].witnessed
    assert not diag.labels["wholesome"].witnessed

    # wholesome and wacky evidence never co-occur on any test input
    small = WProtocol(grid_size=50, horizons=(50, 200, 800))
    g, rep = shred(expanding_map(2), F(1, 5))
    verify_shredding(g, rep)
    all_inputs = [
        (PLCircleMap.identity(), {}),
        (PLCircleMap.rotation(F(1, 2)), {}),
        (g, {"report": rep}),
        (random_pl_homeo(rng), {}),
        (f_wicked, {"trajectory": trajectory, "declared_specs": [leb_spec, target]}),
    ]
    for f, kwargs in all_inputs:
        d = classify(f, small, **kwargs)
        assert not (d.labels["wholesome"].witnessed and d.labels["wacky"].witnessed)
    report(
        "criterion 9: Cesaro split identity exact on 20 instances; wicked "
        "and wacky evidence co-occur on the window perturbation under the "
        "default protocol; wholesome and wacky never co-occur"
    )


def test_criterion_10_classifier_sanity():
    small = WProtocol(grid_size=100, horizons=(100, 1000))

    diag_id = classify(PLCircleMap.identity(), small)
    assert diag_id.status("wholesome") == "witnessed"
    assert diag_id.status("wonderful") == "refuted"

    attracting = PLCircleMap(
        [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
        [F(0), F(3, 8), F(1, 2), F(5, 8), F(1)],
    )
    diag_h = classify(attracting, small)
    assert diag_h.status("wonderful") == "witnessed"
    assert diag_h.labels["wonderful"].evidence["basin_coverage"] == 1

    eps = F(1, 5)
    g, rep = shred(expanding_map(2), eps)
    verify_shredding(g, rep)
    diag_g = classify(g, small, report=rep)
    assert diag_g.status("weird") == "witnessed"
    ev = diag_g.labels["weird"].evidence
    assert ev["witness_measure"] > 1 - eps
    assert ev["witness_image_measure"] < eps
    assert ev["max_empirical_basin"] < 2 * eps
    report(
        "criterion 10: identity wholesome+not-wonderful; attracting homeo "
        "wonderful with basin measure 1; shredded map weird with exact "
        "singularity witness and basins below 2*eps"
    )
