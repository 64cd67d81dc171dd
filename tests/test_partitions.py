from fractions import Fraction

import pytest

from circledyn.errors import InvalidInput
from circledyn.exact import Arc
from circledyn.measures import CircleMeasure
from circledyn.partitions import (
    ConsistentFamily,
    family_from_homeo,
    homeo_from_family,
)
from circledyn.plmaps import PLCircleMap

from conftest import random_pl_homeo, reference_slopes

F = Fraction


def test_identity_family_is_dyadic():
    fam = family_from_homeo(PLCircleMap.identity(), 2, 3)
    for k in range(1, 4):
        cells = fam.cells(k)
        assert all(c.length == F(1, 2**k) for c in cells)
        assert cells[0].start == 0


def test_rotation_family_wraps():
    fam = family_from_homeo(PLCircleMap.rotation(F(1, 4)), 2, 1)
    assert fam.cells(1)[0] == Arc(F(3, 4), F(1, 2))


def test_cell_measures_match_pushforward(rng):
    for _ in range(3):
        h = random_pl_homeo(rng)
        fam = family_from_homeo(h, 2, 3)
        hm = CircleMeasure.lebesgue().pushforward(h)
        spec = hm.cylinder_vector(2, 3)
        for idx, cell in enumerate(fam.cells(3)):
            w = tuple(int(c) for c in format(idx, "03b"))
            assert spec.value(w) == cell.length


def test_homeo_from_dyadic_family_is_identity():
    fam = family_from_homeo(PLCircleMap.identity(), 2, 3)
    assert homeo_from_family(fam) == PLCircleMap.identity()


def test_two_cell_family_slopes():
    fam = ConsistentFamily(2, 1, ((Arc(F(0), F(1, 3)), Arc(F(1, 3), F(2, 3))),))
    h = homeo_from_family(fam)
    assert h.breakpoints == (F(0), F(1, 3), F(1))
    assert reference_slopes(h.breakpoints, h.lift_values) == [F(3, 2), F(3, 4)]
    # 3t/2 and (1 + 3t)/4
    assert h._forms == ((0, 3, 2), (1, 3, 4))
    # round trip through the realized homeomorphism reproduces the family
    assert family_from_homeo(h, 2, 1) == fam


def test_roundtrip_family_exact(rng):
    for _ in range(3):
        h = random_pl_homeo(rng)
        fam = family_from_homeo(h, 2, 4)
        h2 = homeo_from_family(fam)
        assert family_from_homeo(h2, 2, 4) == fam


def test_roundtrip_agrees_on_endpoints(rng):
    h = random_pl_homeo(rng)
    fam = family_from_homeo(h, 3, 2)
    h2 = homeo_from_family(fam)
    for cell in fam.cells(2):
        assert h2.evaluate(cell.start) == h.evaluate(cell.start)


def test_level_measures_sum_to_one(rng):
    h = random_pl_homeo(rng)
    fam = family_from_homeo(h, 4, 3)
    for k in range(1, 4):
        assert sum((c.length for c in fam.cells(k)), start=F(0)) == 1


def test_consistency_check_passes_on_valid(rng):
    fam = family_from_homeo(random_pl_homeo(rng), 2, 3)
    # both forms validate on construction
    assert ConsistentFamily.from_tables(fam.ell, fam.basepoint, fam.tables) == fam
    assert ConsistentFamily(2, 3, fam.levels) == fam


def test_swapped_cells_detected():
    fam = family_from_homeo(PLCircleMap.identity(), 2, 2)
    levels = [list(level) for level in fam.levels]
    levels[1][1], levels[1][2] = levels[1][2], levels[1][1]
    match = "level 2, word 01: cells not laid consecutively in word order"
    with pytest.raises(InvalidInput, match=match):
        ConsistentFamily(2, 2, levels)


def test_shrunken_cell_detected():
    fam = family_from_homeo(PLCircleMap.identity(), 2, 2)
    levels = [list(level) for level in fam.levels]
    levels[1][0] = Arc(F(0), F(1, 8))
    match = "level 2, word 01: cells not laid consecutively in word order"
    with pytest.raises(InvalidInput, match=match):
        ConsistentFamily(2, 2, levels)


def test_degenerate_family_rejected_by_homeo():
    cells1 = (Arc(F(0), F(1)), Arc.degenerate(F(0)))
    fam = ConsistentFamily(2, 1, (cells1,))
    assert fam.tables == ({(0,): (F(0), F(1))},)
    assert fam.cells(1) == cells1
    with pytest.raises(InvalidInput, match="family has empty cells"):
        homeo_from_family(fam)


def test_empty_cell_rejected_without_flag():
    # the dense form accepts an empty cell; only the homeomorphism is refused
    cells1 = (Arc(F(0), F(1)), Arc.degenerate(F(0)))
    fam = ConsistentFamily(2, 1, (cells1,))
    assert fam.is_degenerate
    with pytest.raises(InvalidInput, match="family has empty cells"):
        fam.homeomorphism()


def test_non_homeo_rejected(rng):
    from circledyn.expanding import expanding_map

    with pytest.raises(InvalidInput):
        family_from_homeo(expanding_map(2), 2, 2)
