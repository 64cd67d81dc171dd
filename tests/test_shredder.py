from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import InvalidInput, ResourceCap, VerificationFailure
from circledyn.exact import Arc, IntervalSet
from circledyn.expanding import expanding_map
from circledyn.plmaps import DEFAULT_BREAKPOINT_CAP, Observable, PLCircleMap
from circledyn.shredder import (
    Region,
    ShredConfig,
    TrappingReport,
    _tau_orbits,
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
        assert report.region_count == s * report.subdivisions


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
        tau=(0,),
        subdivisions=1,
        regions=(Region(label=(0, 0), arcs=(arc,)),),
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
        outside = F(0)  # start of subcell (0, 0): a boundary point, not interior
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


def test_preimage_route_stops_at_the_cap_before_building_past_it(monkeypatch):
    # a spike of height 1 in the middle of region (0, 0)'s first arc: one
    # preimage step of the cycle union gives far more intervals than the
    # cap, and each step's hits are counted against the cap as they come
    g, report = shred(expanding_map(2), F(1, 5))
    region = report.regions[0]
    assert region.label == (0, 0)
    a = region.arcs[0]
    mid, quarter = a.start + a.length / 2, a.length / 4
    bps = sorted({*g.breakpoints, mid - quarter, mid, mid + quarter})
    spiked = PLCircleMap(bps, [g.lift_evaluate(b) + (1 if b == mid else 0) for b in bps])
    sizes = []
    canonical = IntervalSet._canonical

    def counted(items):
        sizes.append(len(items))
        return canonical(items)

    monkeypatch.setattr(IntervalSet, "_canonical", staticmethod(counted))
    cap = 100_000
    with pytest.raises(ResourceCap) as info:
        verify_shredding(spiked, report, preimage_interval_cap=cap)
    assert str(info.value).endswith(f"above the interval cap {cap}")
    assert max(sizes) <= 2 * cap


def test_shred_capped_before_allocating():
    # the doubling map at eps 1/10^6 would need 3000001 cells x 1000001
    # subdivisions; the cap trips in ShredConfig.resolved, before any arc
    with pytest.raises(ResourceCap) as info:
        shred(expanding_map(2), F(1, 10**6))
    message = str(info.value)
    assert str(3 * 3_000_001 * 1_000_001 + 1) in message
    assert message.endswith(f"above the breakpoint cap {DEFAULT_BREAKPOINT_CAP}")


def reference_tau_orbits(tau):
    """Land every node on its cycle by n steps of tau, then list the cycles
    in order of their least member."""
    n = len(tau)
    landing = []
    for i in range(n):
        j = i
        for _ in range(n):
            j = tau[j]
        landing.append(j)
    orbits, assigned = [], {}
    for c in sorted(set(landing)):
        if c in assigned:
            continue
        orbit = [c]
        j = tau[c]
        while j != c:
            orbit.append(j)
            j = tau[j]
        for member in orbit:
            assigned[member] = len(orbits)
        orbits.append(tuple(orbit))
    return tuple(orbits), [assigned[landing[i]] for i in range(n)]


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )
)
def test_tau_orbits_matches_landing_loop(tau):
    assert _tau_orbits(tau) == reference_tau_orbits(tau)


# Hand-built certificates that shred never makes.  The expected rows are the
# verdicts, slacks and details the per-region verifier printed before the
# per-arc images were shared; they pin which route item (v) takes.
EIGHTHS = [F(k, 8) for k in (0, 1, 3, 5, 7, 8)]
# lift constant 1/4 on [1/8, 3/8] and 3/4 on [5/8, 7/8], degree 1
TWO_PLATEAUS = PLCircleMap(EIGHTHS, [F(0), F(1, 4), F(1, 4), F(3, 4), F(3, 4), F(1)])
# constant on [3/8, 5/8] and on the arc [7/8, 1/8] across 0: degree 1, so
# the lift there takes the values 0 and 1; degree 0, a single value
SEAM_DEGREE_1 = PLCircleMap(EIGHTHS, [F(0), F(0), F(1, 2), F(1, 2), F(1), F(1)])
SEAM_DEGREE_0 = PLCircleMap(EIGHTHS, [F(0), F(0), F(1, 2), F(1, 2), F(0), F(0)])
A, B = Arc(F(1, 8), F(1, 4)), Arc(F(5, 8), F(1, 4))
SEAM, MID = Arc(F(7, 8), F(1, 4)), Arc(F(3, 8), F(1, 4))
PASS_I = ("i", True, F(1, 8), "g(cl U) strictly inside U")
PASS_IV = ("iv", True, F(3, 16), "images crushed")
TWO_QUARTERS = [
    PASS_I,
    ("ii", True, F(1, 2), "max m(U) = 1/4"),
    ("iii", True, F(1, 4), "m(union U) = 1/2"),
    PASS_IV,
]
ONE_QUARTER = [
    PASS_I,
    ("ii", True, F(1, 2), "max m(U) = 1/4"),
    ("iii", False, F(0), "m(union U) = 1/4"),
    PASS_IV,
]
ABSORBED = ("v", True, F(1, 8), "cycles absorb the regions")


def _report(regions, cycles):
    return TrappingReport(
        eps=F(3, 4),
        tau=(0, 1),
        subdivisions=1,
        regions=tuple(Region(label=label, arcs=arcs) for label, arcs in regions),
        cycles=cycles,
    )


@pytest.mark.parametrize(
    "g, regions, cycles, expected",
    [
        pytest.param(
            TWO_PLATEAUS,
            [((0, 0), (A,)), ((1, 0), (B, A))],
            {(0, 0): (A,), (1, 0): (B,)},
            [
                PASS_I,
                ("ii", True, F(1, 4), "max m(U) = 1/2"),
                (
                    "iii", False, F(1, 4),
                    "m(union U) = 1/2, but the arcs sum to 3/4: "
                    "region (1, 0) overlaps an earlier region",
                ),
                PASS_IV,
                ("v", False, F(1, 8), "(1, 0): plateau value never reaches cycle"),
            ],
            id="arc-in-two-regions",
        ),
        pytest.param(
            SEAM_DEGREE_1,
            [((0, 0), (SEAM,)), ((1, 0), (MID,))],
            {(0, 0): (SEAM,), (1, 0): (MID,)},
            TWO_QUARTERS + [ABSORBED],
            id="wrapping-arc-absorbed",
        ),
        pytest.param(
            SEAM_DEGREE_1,
            [((0, 0), (SEAM,))],
            {(0, 0): (MID,)},
            ONE_QUARTER + [("v", False, F(1, 8), "(0, 0): closure(U) not absorbed")],
            id="wrapping-arc-degree-1-preimage-route",
        ),
        pytest.param(
            SEAM_DEGREE_0,
            [((0, 0), (SEAM,))],
            {(0, 0): (MID,)},
            ONE_QUARTER
            + [("v", False, F(1, 8), "(0, 0): plateau value never reaches cycle")],
            id="wrapping-arc-degree-0-plateau-route",
        ),
        pytest.param(
            TWO_PLATEAUS,
            [((0, 0), (A, Arc.degenerate(F(1, 4)))), ((1, 0), (B,))],
            {(0, 0): (A,), (1, 0): (B,)},
            TWO_QUARTERS + [ABSORBED],
            id="zero-length-arc-inside",
        ),
        pytest.param(
            TWO_PLATEAUS,
            [((0, 0), (A, Arc.degenerate(F(1, 2)))), ((1, 0), (B,))],
            {(0, 0): (A,), (1, 0): (B,)},
            [("i", False, None, "region (0, 0): image escapes")]
            + TWO_QUARTERS[1:]
            + [("v", False, F(1, 8), "(0, 0): closure(U) not absorbed")],
            id="zero-length-arc-preimage-route",
        ),
    ],
)
def test_handbuilt_report_rows(g, regions, cycles, expected):
    verification = verify_shredding(g, _report(regions, cycles))
    rows = [(k, v.passed, v.slack, v.detail) for k, v in verification.items.items()]
    assert rows == expected
