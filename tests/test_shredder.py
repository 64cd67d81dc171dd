from fractions import Fraction

import pytest

from circledyn.errors import InvalidInput, ResourceCap, VerificationFailure
from circledyn.exact import Arc
from circledyn.expanding import expanding_map
from circledyn.plmaps import Observable, PLCircleMap
from circledyn.shredder import (
    Region,
    ShredConfig,
    TrappingReport,
    birkhoff_gap_bound,
    shred,
    singularity_witness,
    verify_shredding,
)
from circledyn.cli import figure3_map

from conftest import random_pl_map

F = Fraction


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 5), F(1, 10)])
@pytest.mark.parametrize("name", ["identity", "doubling", "random"])
def test_constructive_soundness(name, eps, rng):
    if name == "identity":
        f = PLCircleMap.identity()
    elif name == "doubling":
        f = expanding_map(2)
    else:
        f = random_pl_map(rng, n_break=6, degree=1)
    g, report = shred(f, eps)
    verification = verify_shredding(g, report)
    assert verification.all_passed
    for verdict in verification.items.values():
        assert verdict.slack is None or verdict.slack > 0
    assert f.c0_distance(g) < eps


def test_identity_tau_is_identity():
    g, report = shred(PLCircleMap.identity(), F(1, 2))
    assert report.tau == tuple(range(len(report.tau)))
    # every region is a single subcell interior, every cycle has length 1
    assert all(len(reg.arcs) == 1 for reg in report.regions)
    assert all(len(c) == 1 for c in report.cycles.values())


def test_region_count_formula(rng):
    for f in [PLCircleMap.identity(), expanding_map(2), random_pl_map(rng)]:
        g, report = shred(f, F(1, 5))
        s = len(report.orbits)
        n_subs = len(report.subcells[0])
        assert report.region_count == s * n_subs


def test_figure3_eight_regions():
    f = figure3_map()
    g, report = shred(f, F(3, 4), ShredConfig(cells=5, subdivisions=4))
    assert report.tau == (0, 0, 2, 2, 2)
    assert len(report.orbits) == 2
    assert report.region_count == 8
    assert verify_shredding(g, report).all_passed


def test_infeasible_fineness_reports_minimum():
    f = expanding_map(2)
    with pytest.raises(InvalidInput) as err:
        shred(f, F(1, 10), ShredConfig(cells=5))
    assert "at least" in str(err.value)


def test_subdivision_count_validated():
    with pytest.raises(InvalidInput):
        shred(PLCircleMap.identity(), F(1, 4), ShredConfig(subdivisions=4))


def test_identity_map_with_nontrivial_report_fails_crushing():
    g, report = shred(PLCircleMap.identity(), F(1, 2))
    verification = verify_shredding(PLCircleMap.identity(), report)
    assert not verification.items["iv"].passed


def test_handbuilt_trapping_arc_passes_item_i():
    # map sending [1/4, 1/2] strictly inside (1/4, 1/2)
    g = PLCircleMap.from_lift_points(
        [(F(1, 4), F(5, 16)), (F(1, 2), F(7, 16)), (F(5, 4), F(5, 16) + 1)]
    )
    arc = Arc(F(1, 4), F(1, 4))
    report = TrappingReport(
        eps=F(1, 2),
        delta=F(1, 100),
        cells=(Arc.full(),),
        subcells=((arc,),),
        tau=(0,),
        interior_cells=((arc,),),
        anchors=((arc.midpoint,),),
        orbits=((0,),),
        regions=(Region(label=(0, 0), arcs=(arc,), cell_indices=(0,)),),
        cycles={(0, 0): (arc,)},
    )
    verification = verify_shredding(g, report)
    assert verification.items["i"].passed


class TestSingularityWitness:
    def test_doubling_witness(self):
        g, report = shred(expanding_map(2), F(1, 10))
        verify_shredding(g, report)
        arcs, m_v, m_gv = singularity_witness(g, report)
        assert m_v > F(9, 10)
        assert m_gv < F(1, 10)

    def test_unverified_report_refused(self):
        g, report = shred(expanding_map(2), F(1, 10))
        with pytest.raises(VerificationFailure):
            singularity_witness(g, report)

    def test_identity_has_no_witness(self):
        g, report = shred(PLCircleMap.identity(), F(1, 2))
        verify_shredding(PLCircleMap.identity(), report)
        with pytest.raises(VerificationFailure):
            singularity_witness(PLCircleMap.identity(), report)

    def test_nested_scales_summable(self):
        total_img = F(0)
        total_eps = F(0)
        for n in range(2, 6):
            eps = F(1, n * n)
            g, report = shred(expanding_map(2), eps)
            verify_shredding(g, report)
            _, _, m_gv = singularity_witness(g, report)
            total_img += m_gv
            total_eps += eps
        assert total_img < total_eps


class TestBirkhoffBracket:
    def test_constant_observable(self):
        g, report = shred(expanding_map(2), F(1, 5))
        verify_shredding(g, report)
        reg = report.regions[0]
        x = report.cycles[reg.label][0].midpoint
        br = birkhoff_gap_bound(g, report, Observable.constant(F(3)), x, 100)
        assert br.cycle_mean == 3
        assert br.empirical == 3
        assert br.contains

    def test_fixed_anchor(self):
        g, report = shred(PLCircleMap.identity(), F(1, 2))
        reg = report.regions[0]
        cyc = report.cycles[reg.label]
        assert len(cyc) == 1
        x = cyc[0].midpoint  # anchors of the identity shred are fixed points
        phi = Observable.tent(F(1, 2))
        br = birkhoff_gap_bound(g, report, phi, x, 977)
        assert br.empirical == phi.evaluate(x) == br.cycle_mean
        assert br.contains

    def test_doubling_anchor_bracket(self):
        g, report = shred(expanding_map(2), F(1, 10))
        phi = Observable.tent(F(1, 2))
        checked = 0
        for label, cyc in report.cycles.items():
            x = cyc[0].midpoint
            br = birkhoff_gap_bound(g, report, phi, x, 1000)
            assert br.lower <= br.empirical <= br.upper
            checked += 1
        assert checked == report.region_count

    def test_point_outside_cycles_rejected(self):
        g, report = shred(expanding_map(2), F(1, 2))
        outside = report.subcells[0][0].start  # boundary point, not interior
        with pytest.raises(InvalidInput):
            birkhoff_gap_bound(g, report, Observable.tent(F(0)), outside, 10)


def test_stability_margin_under_perturbation(rng):
    g, report = shred(expanding_map(2), F(1, 5))
    verification = verify_shredding(g, report)
    slack = verification.items["i"].slack
    assert slack > 0
    for trial in range(3):
        # lift bump of height below slack/2 at a random breakpoint span
        height = slack / 2 * F(rng.randrange(1, 100), 101)
        bps = list(g.breakpoints)
        vals = [
            v + (height if 0 < i < len(bps) - 1 and i % (trial + 2) == 0 else 0)
            for i, v in enumerate(g.lift_values)
        ]
        g2 = PLCircleMap(bps, vals)
        assert g.c0_distance(g2) <= height < slack
        v2 = verify_shredding(g2, report)
        assert v2.items["i"].passed


def test_preimage_cap_message_states_used_and_limit():
    g, report = shred(expanding_map(2), F(1, 5))
    slack = verify_shredding(g, report).items["i"].slack
    # a bump below the slack breaks the plateaus: item (v) takes the
    # preimage route, whose first union already holds several intervals
    bps = list(g.breakpoints)
    vals = [
        v + (slack / 4 if 0 < i < len(bps) - 1 and i % 2 == 0 else 0)
        for i, v in enumerate(g.lift_values)
    ]
    with pytest.raises(ResourceCap) as info:
        verify_shredding(PLCircleMap(bps, vals), report, preimage_interval_cap=1)
    message = str(info.value)
    used = int(message.split(" reached ")[1].split()[0])
    assert used > 1
    assert message.endswith("above the interval cap 1")
