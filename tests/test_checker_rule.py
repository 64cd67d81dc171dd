"""The rule of the certificate checker: items checked region by region walk
every listed region in order, so a label listed twice is checked twice."""

from fractions import Fraction

from circledyn.expanding import expanding_map
from circledyn.shredder import Region, TrappingReport, shred, verify_shredding

F = Fraction


def test_each_region_under_a_repeated_label_is_checked():
    g, report = shred(expanding_map(2), F(1, 5))
    first = report.regions[0]
    assert first.label == (0, 0)
    # one arc of region (0, 0) off its cycle: g maps it to the anchor of
    # another cell, outside the arc itself
    cycle = report.cycles[(0, 0)]
    arc = next(a for a in first.arcs if a not in cycle)
    forged = TrappingReport(
        eps=report.eps,
        tau=report.tau,
        subdivisions=report.subdivisions,
        regions=(Region(label=(0, 0), arcs=(arc,)), *report.regions),
        cycles=report.cycles,
    )
    covered = verify_shredding(g, report).items["iii"].detail
    items = verify_shredding(g, forged).items
    rows = {k: (v.passed, v.slack, v.detail) for k, v in items.items()}
    assert rows["i"] == (False, None, "region (0, 0): image escapes")
    # the union is unchanged and the arc is counted twice
    assert rows["iii"][0] is False
    assert rows["iii"][2] == (
        f"{covered}, but the arcs sum to {F(covered.split()[-1]) + arc.length}: "
        "region (0, 0) overlaps an earlier region"
    )
