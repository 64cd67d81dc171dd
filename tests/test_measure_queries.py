"""Property tests for the sorted measure core.

``CircleMeasure`` canonicalises its density with one sweep over sorted
endpoints and answers mass queries through prefix sums.  Both are compared
here with the plain loops they replaced: the cuts x items canonicalisation
and the linear scans of ``measure_of_interval`` and ``cdf_closed``.  The
core runs on integers and the float rule of ``exact``; the ``Fraction``
code it replaced (push-forward, total mass and the bisection of
``_mass_below``) is kept here too, and every value must be equal, on maps
of degree -2..3 with plateaus, on measures with atoms, and on ends closer
than the float spacing.  The push-forward is also checked against two
exact identities: it keeps total mass 1, and (f o g)_* mu = f_*(g_* mu).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.exact import mod1
from circledyn.measures import CircleMeasure
from circledyn.plmaps import PLCircleMap

from test_set_queries import pl_maps

F = Fraction
ZERO = F(0)
ONE = F(1)

# ends that share one float: k/2**60 + j/2**70 for j = 0..3 lie closer
# together than the float spacing near 3/4
TIES = [F(3 * 2**58 + 12345, 2**60) + F(j, 2**70) for j in range(4)]


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


def reference_pushforward(mu, f):
    """The raw (atoms, pieces) of f_*(mu), by the Fraction walk the integer
    push-forward replaced: each piece walked by ``f._walk``, and the wrap
    count, the shift and the ends computed on Fractions."""
    atoms = [(f.evaluate(p), w) for p, w in mu.atoms]
    pieces = []
    for lo, hi, d in mu.pieces:
        cuts, lifts = f._walk(lo, hi)
        for m in range(len(cuts) - 1):
            a, b = cuts[m], cuts[m + 1]
            fa, fb = lifts[m], lifts[m + 1]
            if fa == fb:
                atoms.append((mod1(fa), d * (b - a)))
                continue
            u, v = (fa, fb) if fa < fb else (fb, fa)
            dens = d * (b - a) / (v - u)
            wraps = math.floor(v - u)
            if wraps:
                pieces.append((ZERO, ONE, dens * wraps))
                u = u + wraps
            shift = u.numerator // u.denominator
            u, v2 = u - shift, v - shift
            if u < v2:
                if v2 <= ONE:
                    pieces.append((u, v2, dens))
                else:
                    pieces.append((u, ONE, dens))
                    pieces.append((ZERO, v2 - ONE, dens))
    return atoms, pieces


def reference_total_mass(mu):
    am = sum((w for _, w in mu.atoms), start=ZERO)
    pm = sum(((hi - lo) * d for lo, hi, d in mu.pieces), start=ZERO)
    return am + pm


def reference_mass_below(mu, x, closed):
    """Mass of [0, x), or of [0, x] when closed: Fraction prefix sums and
    two bisections by Fraction comparisons."""
    atom_cum, piece_cum = [ZERO], [ZERO]
    for _, w in mu.atoms:
        atom_cum.append(atom_cum[-1] + w)
    for lo, hi, d in mu.pieces:
        piece_cum.append(piece_cum[-1] + (hi - lo) * d)
    find = bisect_right if closed else bisect_left
    total = atom_cum[find(mu.atoms, x, key=itemgetter(0))]
    k = bisect_left(mu.pieces, x, key=itemgetter(0))
    if k:
        lo, hi, d = mu.pieces[k - 1]
        total += piece_cum[k - 1] + (min(hi, x) - lo) * d
    return total


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
def tied_raw_measures(draw):
    """Overlapping pieces and atoms whose ends are drawn from values that
    share one float (``TIES``) and a few others."""
    ends = sorted({ZERO, ONE, F(1, 2), *TIES, F(7, 8)})
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True)))
        pieces.append((a, b, F(draw(st.integers(0, 5)), draw(st.integers(1, 3)))))
    atoms = [
        (draw(st.sampled_from(ends[:-1])), F(draw(st.integers(0, 4)), 3))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return atoms, pieces


@st.composite
def tied_maps(draw) -> PLCircleMap:
    """PL maps with breakpoints among ``TIES``, plateaus and degree -2..3."""
    inner = draw(st.lists(st.sampled_from([F(1, 4), *TIES, F(7, 8)]), unique=True, max_size=5))
    bps = [ZERO, *sorted(inner), ONE]
    vals = [F(draw(st.integers(-36, 36)), 12)]
    for _ in bps[1:]:
        if draw(st.integers(0, 3)) == 0:
            vals.append(vals[-1])
        else:
            vals.append(F(draw(st.integers(-36, 36)), 12) + draw(st.sampled_from([ZERO, *TIES])))
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return PLCircleMap(bps, vals)


@st.composite
def probability_measures(draw, raw=raw_measures) -> CircleMeasure:
    atoms, pieces = draw(raw())
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


def test_the_tied_ends_share_one_float():
    assert len(set(TIES)) == len(TIES)
    assert len({float(x) for x in TIES}) == 1


@settings(max_examples=300, deadline=None)
@given(tied_raw_measures())
def test_canonical_form_matches_reference_on_float_ties(raw):
    atoms, pieces = raw
    mu = CircleMeasure(atoms, pieces, require_probability=False)
    assert mu.pieces == reference_pieces(pieces)
    assert mu.atoms == reference_atoms(atoms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_measures(), tied_raw_measures()))
def test_total_mass_and_mass_below_match_reference(raw):
    mu = CircleMeasure(*raw, require_probability=False)
    assert mu.total_mass == reference_total_mass(mu)
    xs = {ZERO, ONE, F(-1, 3), F(4, 3), *TIES, F(1, 2), F(7, 8)}
    xs |= {p for p, _ in mu.atoms} | {e for lo, hi, _ in mu.pieces for e in (lo, hi)}
    for x in sorted(xs):
        for closed in (False, True):
            assert mu._mass_below(x, closed) == reference_mass_below(mu, x, closed), (x, closed)


ANY_MEASURES = st.one_of(probability_measures(), probability_measures(tied_raw_measures))


@settings(max_examples=400, deadline=None)
@given(st.one_of(pl_maps(), tied_maps()), ANY_MEASURES)
def test_pushforward_matches_reference(f, mu):
    atoms, pieces = reference_pushforward(mu, f)
    nu = mu.pushforward(f)
    assert nu.atoms == reference_atoms(atoms)
    assert nu.pieces == reference_pieces(pieces)
    assert nu.total_mass == reference_total_mass(nu) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY_MEASURES, min_size=1, max_size=3), st.data())
def test_convex_combination_matches_reference(mus, data):
    raw = [data.draw(st.integers(0, 4)) for _ in mus]
    if not any(raw):
        raw[0] = 1
    weights = [F(r, sum(raw)) for r in raw]
    mix = CircleMeasure.convex_combination(list(zip(weights, mus)))
    atoms = [(p, w * m) for w, mu in zip(weights, mus) for p, m in mu.atoms]
    pieces = [(lo, hi, w * d) for w, mu in zip(weights, mus) for lo, hi, d in mu.pieces]
    assert mix.atoms == reference_atoms(atoms)
    assert mix.pieces == reference_pieces(pieces)
