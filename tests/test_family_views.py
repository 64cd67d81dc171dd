"""Property tests for the one sparse partition hierarchy.

``ConsistentFamily`` stores each level as the tables of its positive cells;
``family_from_homeo`` builds them directly, and ``wicked_perturb``'s result
is such a family.  The dense construction (``to_family``), the dense
``idx % scale`` push-forward loop, the Cesaro loop and the dense
homeomorphism chart they replaced are kept here as references, with the
per-cell distance loop that ``c0_distance_to`` used before it read ``g``
through the lift walk.  The tables, the dense levels, the family record,
the cylinder push-forwards, the Cesaro specs, ``c0_distance_to`` and
``homeomorphism()`` must equal theirs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import formats
from circledyn.errors import InvalidInput
from circledyn.exact import HALF, ONE, ZERO, Arc, circle_dist, format_rational, mod1
from circledyn.expanding import wicked_perturb
from circledyn.measures import CylinderSpec
from circledyn.partitions import (
    ConsistentFamily,
    family_from_homeo,
)
from circledyn.plmaps import PLCircleMap

F = Fraction


# ---------------------------------------------------------------------------
# references


def _digits(value: int, ell: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        value, d = divmod(value, ell)
        out.append(d)
    return tuple(reversed(out))


def _value(digits: tuple[int, ...], ell: int) -> int:
    v = 0
    for d in digits:
        v = v * ell + d
    return v


def ref_levels_of_homeo(h: PLCircleMap, ell: int, depth: int) -> list[tuple[Arc, ...]]:
    """Dense levels: the level-k grid pulled back through h, level by level."""
    g = h.invert()
    levels = []
    for k in range(1, depth + 1):
        count = ell**k
        lifts = [g.lift_evaluate(F(i, count)) for i in range(count + 1)]
        levels.append(
            tuple(Arc(mod1(lifts[i]), lifts[i + 1] - lifts[i]) for i in range(count))
        )
    return levels


def ref_tables_of_levels(ell: int, levels) -> list[dict]:
    """Cumulative positions from the basepoint, every cell listed."""
    tables = []
    for k, cells in enumerate(levels, 1):
        table, cursor = {}, levels[0][0].start
        for idx, cell in enumerate(cells):
            table[_digits(idx, ell, k)] = (cursor, cell.length)
            cursor += cell.length
        tables.append(table)
    return tables


def ref_wicked(h: PLCircleMap, ell: int, target: CylinderSpec, eps: Fraction, n: int):
    """(n0, depth, basepoint, tables) of the window perturbation."""
    n0 = 1
    while F(1, ell**n0) > eps:
        n0 += 1
    depth = n - 1 + target.level
    base = ref_levels_of_homeo(h, ell, n0)
    tables = ref_tables_of_levels(ell, base)
    ext = target.extension_table(depth - n0)
    beta_order = sorted(tables[n0 - 1].items(), key=lambda kv: kv[1][0])
    for k in range(n0 + 1, depth + 1):
        mu_table = ext[k - n0 - 1]
        gamma_order = sorted(mu_table.keys(), key=lambda w: _value(w, ell))
        table = {}
        for beta, (pos_b, len_b) in beta_order:
            cursor = pos_b
            for gamma in gamma_order:
                length = len_b * mu_table[gamma]
                if length > 0:
                    table[beta + gamma] = (cursor, length)
                    cursor += length
        tables.append(table)
    return n0, depth, base[0][0].start, tables


def ref_to_family(ell: int, depth: int, basepoint: Fraction, tables) -> list[tuple[Arc, ...]]:
    """Dense levels of sparse tables, empty cells as zero-length arcs."""
    levels = []
    for k in range(1, depth + 1):
        cells, cursor = [], basepoint
        for idx in range(ell**k):
            entry = tables[k - 1].get(_digits(idx, ell, k))
            length = entry[1] if entry else ZERO
            cells.append(Arc(mod1(cursor), length))
            cursor += length
        levels.append(tuple(cells))
    return levels


def ref_pushforward(levels, ell: int, q: int, p: int) -> dict:
    """Every level-p word's value, zeros included: the dense idx % scale loop."""
    scale = ell**p
    acc: dict[int, Fraction] = {}
    for idx, cell in enumerate(levels[q + p - 1]):
        acc[idx % scale] = acc.get(idx % scale, ZERO) + cell.length
    return {_digits(v, ell, p): mass for v, mass in acc.items()}


def ref_cesaro(levels, ell: int, n: int, p: int) -> dict:
    acc: dict[tuple[int, ...], Fraction] = {}
    for k in range(n):
        for w, v in ref_pushforward(levels, ell, k, p).items():
            acc[w] = acc.get(w, ZERO) + v
    return {w: v / n for w, v in acc.items()}


def ref_homeo(levels) -> PLCircleMap:
    deepest = levels[-1]
    scale = F(1, len(deepest))
    pos, points = levels[0][0].start, []
    for idx, cell in enumerate(deepest):
        points.append((pos, idx * scale))
        pos += cell.length
    points.append((pos, ONE))
    return PLCircleMap.from_lift_points(points)


def _sup_circle_distance_affine(
    g: PLCircleMap,
    lo: Fraction,
    hi: Fraction,
    a0: Fraction,
    slope: Fraction,
) -> Fraction:
    """Sup over [lo, hi] of circle distance between g and an affine lift:
    every lifted breakpoint of g is tested against [lo, hi] and g's lift is
    evaluated at each cut."""
    cuts = {lo, hi}
    for b in g.breakpoints[:-1]:
        k_min = math.ceil(lo - b)
        k_max = math.floor(hi - b)
        for k in range(k_min, k_max + 1):
            t = b + k
            if lo < t < hi:
                cuts.add(t)
    deltas = [g.lift_evaluate(t) - (a0 + slope * (t - lo)) for t in sorted(cuts)]
    best = circle_dist(deltas[0], ZERO)
    for u, v in zip(deltas, deltas[1:]):
        # the segment reaches distance 1/2 exactly when it spans an odd
        # multiple of 1/2; otherwise the distance is largest at an end
        m_lo, m_hi = math.ceil(2 * min(u, v)), math.floor(2 * max(u, v))
        if m_lo <= m_hi and (m_lo % 2 == 1 or m_lo + 1 <= m_hi):
            return HALF
        best = max(best, circle_dist(u, ZERO), circle_dist(v, ZERO))
    return best


def ref_c0(ell: int, depth: int, tables, g: PLCircleMap) -> Fraction:
    scale = F(1, ell**depth)
    best = ZERO
    for w, (pos, length) in sorted(tables[depth - 1].items(), key=lambda kv: kv[1][0]):
        sup = _sup_circle_distance_affine(
            g, pos, pos + length, _value(w, ell) * scale, scale / length
        )
        best = max(best, sup)
        if best == HALF:
            break
    return best


def ref_record(ell: int, depth: int, levels) -> str:
    return formats.dumps({
        "ell": ell,
        "depth": depth,
        "levels": [
            [{"start": format_rational(c.start), "length": format_rational(c.length)} for c in level]
            for level in levels
        ],
    })


# ---------------------------------------------------------------------------
# strategies


@st.composite
def pl_homeos(draw) -> PLCircleMap:
    den = draw(st.sampled_from([12, 35, 64]))
    inner = draw(st.lists(st.integers(1, den - 1), unique=True, max_size=5))
    bps = [F(0)] + [F(x, den) for x in sorted(inner)] + [F(1)]
    incs = [F(draw(st.integers(1, 9))) for _ in range(len(bps) - 1)]
    total = sum(incs)
    vals = [F(draw(st.integers(-40, 40)), 12)]
    for inc in incs:
        vals.append(vals[-1] + inc / total)
    return PLCircleMap(bps, vals)


@st.composite
def wicked_cases(draw):
    """(h, ell, target, eps, n) with positive and with degenerate targets."""
    ell = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["bernoulli", "lebesgue", "dirac", "zero-digit"]))
    if kind == "lebesgue":
        target = CylinderSpec.lebesgue(ell, p)
    elif kind == "dirac":
        target = CylinderSpec.dirac_zero(ell, p)
    else:
        weights = [draw(st.integers(1, 5)) for _ in range(ell)]
        if kind == "zero-digit":
            weights[draw(st.integers(0, ell - 1))] = 0
        target = CylinderSpec.bernoulli([F(w, sum(weights)) for w in weights], p)
    eps = draw(st.sampled_from([F(1, 2), F(1, 3)] if ell == 3 else [F(1, 2), F(1, 3), F(1, 4)]))
    n0 = 1
    while F(1, ell**n0) > eps:
        n0 += 1
    extra = draw(st.integers(0, 1 if ell == 2 else 0))
    return draw(pl_homeos()), ell, target, eps, n0 + p + 1 + extra


# ---------------------------------------------------------------------------
# checks


def check_views(fam: ConsistentFamily, ell: int, depth: int, basepoint, tables, levels):
    assert fam.ell == ell and fam.depth == depth and fam.basepoint == basepoint
    assert [list(t.items()) for t in fam.tables] == [list(t.items()) for t in tables]
    assert fam.levels == tuple(levels)
    assert formats.dumps(formats.family_to_record(fam)) == ref_record(ell, depth, levels)
    degenerate = any(c.length == 0 for level in levels for c in level)
    assert fam.is_degenerate == degenerate
    # both constructors validate: the sparse form passed when fam was built,
    # and the dense constructor reads the dense view, empty cells included,
    # back into the same tables
    assert ConsistentFamily.from_tables(ell, fam.basepoint, fam.tables).tables == fam.tables
    dense = ConsistentFamily(ell, depth, levels)
    assert dense.tables == fam.tables and dense.basepoint == fam.basepoint
    for p in range(1, min(depth, 3) + 1):
        for q in range(depth - p + 1):
            ref = ref_pushforward(levels, ell, q, p)
            spec = fam.cylinder_pushforward(q, p)
            assert {w: spec.value(w) for w in ref} == ref
            assert set(spec.values) <= set(ref)
        for n in range(1, depth - p + 2):
            ref = ref_cesaro(levels, ell, n, p)
            spec = fam.cesaro_spec(n, p)
            assert {w: spec.value(w) for w in ref} == ref
    if degenerate:
        with pytest.raises(InvalidInput):
            fam.homeomorphism()
    else:
        assert fam.homeomorphism() == ref_homeo(levels)


@settings(max_examples=60, deadline=None)
@given(pl_homeos(), st.sampled_from([(2, 4), (2, 2), (3, 3), (3, 1), (4, 2)]))
def test_family_from_homeo_matches_dense_reference(h, ell_depth):
    ell, depth = ell_depth
    levels = ref_levels_of_homeo(h, ell, depth)
    tables = ref_tables_of_levels(ell, levels)
    fam = family_from_homeo(h, ell, depth)
    check_views(fam, ell, depth, levels[0][0].start, tables, levels)
    assert fam.c0_distance_to(h) == ref_c0(ell, depth, tables, h)
    # a chart's shallower family gives the same cylinder views
    for q in range(depth):
        shallow = family_from_homeo(h, ell, q + 1)
        assert shallow.cylinder_pushforward(q, 1) == fam.cylinder_pushforward(q, 1)
    assert family_from_homeo(h, ell, depth).cesaro_spec(depth, 1) == fam.cesaro_spec(depth, 1)


@settings(max_examples=60, deadline=None)
@given(wicked_cases(), pl_homeos())
def test_wicked_result_matches_reference(case, g):
    h, ell, target, eps, n = case
    res = wicked_perturb(h, ell, target, eps, n)
    n0, depth, basepoint, tables = ref_wicked(h, ell, target, eps, n)
    assert (res.n0, res.n, res.target) == (n0, n, target)
    levels = ref_to_family(ell, depth, basepoint, tables)
    check_views(res, ell, depth, basepoint, tables, levels)
    for other in (h, g):
        assert res.c0_distance_to(other) == ref_c0(ell, depth, tables, other)
    if not res.is_degenerate:
        assert res.c0_distance_to(g) == g.c0_distance(res.homeomorphism())
    for k in range(n0, n):
        assert res.cylinder_pushforward(k, target.level) == target


def test_dense_violations_are_reported():
    fam = family_from_homeo(PLCircleMap.identity(), 2, 2)
    levels = [list(level) for level in fam.levels]
    # 00 and 01 grow past their parent 0, 10 shrinks: still consecutive,
    # still of total length 1
    levels[1][0] = Arc(F(0), F(3, 8))
    levels[1][1] = Arc(F(3, 8), F(1, 4))
    levels[1][2] = Arc(F(5, 8), F(1, 8))
    with pytest.raises(InvalidInput, match="level 2, word 01: cell outside its parent"):
        ConsistentFamily(2, 2, levels)
    # an empty cell is accepted, but not a positive child of one
    level1 = (Arc(F(0), ONE), Arc.degenerate(F(0)))
    level2 = (Arc(F(0), HALF), Arc(HALF, F(1, 4)), Arc(F(3, 4), F(1, 4)), Arc.degenerate(F(0)))
    with pytest.raises(InvalidInput, match="level 2, word 10: cell outside its parent"):
        ConsistentFamily(2, 2, (level1, level2))


def test_sparse_violations_are_reported():
    fam = family_from_homeo(PLCircleMap.rotation(F(1, 4)), 2, 2)
    good = fam.tables
    half = F(1, 2)
    swapped = {(1,): (fam.basepoint, half), (0,): (fam.basepoint + half, half)}
    cases = [
        ((swapped, good[1]), "words not in word order"),
        ((dict(reversed(list(good[0].items()))), good[1]), "not laid consecutively"),
        (({(0,): (fam.basepoint, F(1, 2)), (1,): (fam.basepoint + F(1, 2), F(1, 4))}, good[1]),
         "cell lengths sum to 3/4, not 1"),
        ((good[0], {**good[1], (0, 0): (fam.basepoint, ZERO)}), "positive length"),
        ((good[0], {(1, 1, 0): (fam.basepoint, ONE)}), "not a level-2 word"),
        ((good[0], {**good[1], (0, 2): (fam.basepoint, ONE)}), "not a level-2 word"),
    ]
    for tables, reason in cases:
        with pytest.raises(InvalidInput, match=reason):
            ConsistentFamily.from_tables(2, fam.basepoint, tables)
    with pytest.raises(InvalidInput, match="basepoint"):
        ConsistentFamily.from_tables(2, fam.basepoint + 1, good)


def test_violation_names_the_word_one_character_per_digit():
    # digits 10 and 11 are "a" and "b"; a digit past "z" has no character,
    # and the word is shown as its tuple
    for ell, (lo, hi), word in ((12, (11, 10), "a"), (40, (38, 37), r"\(37,\)")):
        table = {(0,): (ZERO, HALF), (lo,): (HALF, F(1, 4)), (hi,): (F(3, 4), F(1, 4))}
        with pytest.raises(InvalidInput, match=f"level 1, word {word}: words not in word order"):
            ConsistentFamily.from_tables(ell, ZERO, [table])
