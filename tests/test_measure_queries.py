"""Property tests for the sorted measure core.

``CircleMeasure`` canonicalises its density with one sweep over sorted
endpoints and answers mass queries by bisecting prefix sums.  Both are
compared here with the plain loops they replaced: the cuts x items
canonicalisation and the linear scans of ``measure_of_interval`` and
``cdf_closed``.  The push-forward is checked against two exact identities:
it keeps total mass 1, and (f o g)_* mu = f_*(g_* mu).
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.exact import mod1
from circledyn.measures import CircleMeasure

from test_set_queries import pl_maps

F = Fraction
ZERO = F(0)


def reference_pieces(pieces):
    """Density on every gap between consecutive cuts, summed over all items."""
    items = [(lo, hi, d) for lo, hi, d in pieces if d > 0]
    if not items:
        return ()
    cuts = sorted({lo for lo, _, _ in items} | {hi for _, hi, _ in items})
    out = []
    for a, b in zip(cuts, cuts[1:]):
        d = sum((dd for lo, hi, dd in items if lo <= a and b <= hi), start=ZERO)
        if d == 0:
            continue
        if out and out[-1][1] == a and out[-1][2] == d:
            out[-1] = (out[-1][0], b, d)
        else:
            out.append((a, b, d))
    return tuple(out)


def reference_atoms(atoms):
    acc = {}
    for p, w in atoms:
        if w:
            acc[mod1(p)] = acc.get(mod1(p), ZERO) + w
    return tuple(sorted(acc.items()))


def reference_measure_of_interval(mu, lo, hi):
    if lo >= hi:
        return ZERO
    total = sum((w for p, w in mu.atoms if lo <= p < hi), start=ZERO)
    for a, b, d in mu.pieces:
        left, right = max(a, lo), min(b, hi)
        if left < right:
            total += (right - left) * d
    return total


def reference_cdf_closed(mu, x):
    extra = sum((w for p, w in mu.atoms if p == x), start=ZERO)
    return reference_measure_of_interval(mu, ZERO, x) + extra


@st.composite
def raw_measures(draw):
    """Overlapping density pieces (some of density 0) and atoms, some of
    them outside [0, 1) or repeated, as (atoms, pieces) inputs."""
    den = draw(st.sampled_from([4, 6, 12]))
    pieces = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.lists(st.integers(0, den), min_size=2, max_size=2, unique=True))
        d = F(draw(st.integers(0, 5)), draw(st.integers(1, 3)))
        pieces.append((F(min(a, b), den), F(max(a, b), den), d))
    atoms = [
        (F(draw(st.integers(-den, 2 * den)), den), F(draw(st.integers(0, 4)), 3))
        for _ in range(draw(st.integers(0, 5)))
    ]
    return atoms, pieces


@st.composite
def probability_measures(draw) -> CircleMeasure:
    atoms, pieces = draw(raw_measures())
    total = CircleMeasure(atoms, pieces, require_probability=False).total_mass
    if total == 0:
        return CircleMeasure.lebesgue()
    return CircleMeasure(
        [(p, w / total) for p, w in atoms],
        [(lo, hi, d / total) for lo, hi, d in pieces],
    )


@settings(max_examples=300, deadline=None)
@given(raw_measures())
def test_canonical_form_matches_reference(raw):
    atoms, pieces = raw
    mu = CircleMeasure(atoms, pieces, require_probability=False)
    assert mu.pieces == reference_pieces(pieces)
    assert mu.atoms == reference_atoms(atoms)


@settings(max_examples=300, deadline=None)
@given(
    raw_measures(),
    st.lists(st.fractions(F(-1, 2), F(3, 2), max_denominator=60), max_size=6),
)
def test_mass_queries_match_reference(raw, extra):
    atoms, pieces = raw
    mu = CircleMeasure(atoms, pieces, require_probability=False)
    xs = sorted(
        {ZERO, F(1), *extra}
        | {p for p, _ in mu.atoms}
        | {e for lo, hi, _ in mu.pieces for e in (lo, hi)}
    )
    for x in xs:
        assert mu.cdf(x) == reference_measure_of_interval(mu, ZERO, x), x
        assert mu.cdf_closed(x) == reference_cdf_closed(mu, x), x
    for lo in xs:
        for hi in xs:
            assert mu.measure_of_interval(lo, hi) == reference_measure_of_interval(
                mu, lo, hi
            ), (lo, hi)


@settings(max_examples=200, deadline=None)
@given(pl_maps(), probability_measures())
def test_pushforward_keeps_total_mass(f, mu):
    assert mu.pushforward(f).total_mass == 1


@settings(max_examples=200, deadline=None)
@given(pl_maps(), pl_maps(), probability_measures())
def test_pushforward_of_composition(f, g, mu):
    assert mu.pushforward(f.compose(g)) == mu.pushforward(g).pushforward(f)
