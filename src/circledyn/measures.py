"""Exact probability measures on the circle and cylinder-value vectors.

A measure is finitely many atoms plus a piecewise-constant density; this
class is closed under push-forward by piecewise-linear maps (flat pieces
turn absolutely continuous mass into atoms), so every identity checked in
the package is a rational equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, product
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInput, ResourceCap
from .exact import ONE, ZERO, as_count, as_fraction, locate, mod1
from .plmaps import Observable, PLCircleMap

DEFAULT_COMPLEXITY_CAP = 100_000
# Cap on the atoms and pieces that the iterates of one Cesaro average hold
# together, the sum of their complexities; a probability measure holds at
# least one.
CESARO_HELD_CAP = 1_000_000
# Cap on the cylinders one spec may list: the ell**level words of a level,
# or the positive cells of an extension table.
MAX_CYLINDER_CELLS = 1_000_000


def _sweep(by_lo: list, by_hi: list) -> list | None:
    """The canonical pieces of (lo, hi, d > 0) pieces listed by lo and by
    hi; None when a list has two ends out of order.

    The density jumps by +d at each lo and by -d at each hi.  The two
    lists are merged on integer cross products, the running density is an
    integer pair, and one ``Fraction`` is built at each cut where it
    changes.
    """
    count = len(by_lo)
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    if not count:
        return out
    num, den = 0, 1  # the density past the cuts swept so far
    start = None  # the low end of the open output piece
    pn, pd = -1, 1  # the last cut, below every end
    i = j = 0
    x, y = by_lo[0][0], by_hi[0][1]
    ln, ld, hn, hd = x.numerator, x.denominator, y.numerator, y.denominator
    while j < count:
        # the next cut is the next lo or the next hi, whichever is less
        if i < count and ln * hd < hn * ld:
            x, xn, xd = by_lo[i][0], ln, ld
        else:
            x, xn, xd = by_hi[j][1], hn, hd
        if xn * pd <= pn * xd:
            return None
        pn, pd = xn, xd
        # the pieces that start or end at x: ends are in lowest terms, so
        # equal values have equal integers
        while i < count and ln == xn and ld == xd:
            d = by_lo[i][2]
            dn, dd = d.numerator, d.denominator
            if dd == den:
                num += dn
            else:
                num, den = num * dd + dn * den, den * dd
            i += 1
            if i < count:
                y = by_lo[i][0]
                ln, ld = y.numerator, y.denominator
        while j < count and hn == xn and hd == xd:
            d = by_hi[j][2]
            dn, dd = d.numerator, d.denominator
            if dd == den:
                num -= dn
            else:
                num, den = num * dd - dn * den, den * dd
            j += 1
            if j < count:
                y = by_hi[j][1]
                hn, hd = y.numerator, y.denominator
        if start is not None:
            if num * rho_d == rho_n * den:
                # the open piece goes on past x
                num, den = rho_n, rho_d
                continue
            out.append((start, x, rho))
            start = None
        if num:
            rho = Fraction(num, den)
            num = rho_n = rho.numerator
            den = rho_d = rho.denominator
            start = x
        else:
            den = 1
    return out


class CircleMeasure:
    """Probability measure: atoms + piecewise-constant density, canonical.

    Internal form: atoms as sorted (point, mass > 0) pairs with distinct
    points; density as sorted disjoint tuples (lo, hi, density > 0) covering
    subintervals of [0, 1), adjacent pieces with equal density merged.
    Overlapping inputs are accumulated additively.  Every coordinate is a
    ``Fraction``; a float is rejected with ``InvalidInput``.

    Invariants the queries rely on: ``atoms`` is sorted by point and
    ``pieces`` by ``lo``, and a piece ends no later than the next one starts.
    The density runs on integers and the float rule of ``exact``, and no
    ``Fraction`` is hashed: construction checks each piece on its integers,
    sorts the pieces by the floats of their ends and merges them in one
    sweep (``_sweep``), O(n log n) in the number of input items.
    ``total_mass`` sums integers over one common denominator.  The first
    mass query builds the integer prefix sums of the masses and the floats
    of the atoms and of the pieces' low ends, O(n); after that ``cdf``,
    ``cdf_closed`` and ``measure_of_interval`` find their atom and piece by
    ``exact.locate``, O(log n) each, and ``cylinder_vector`` costs
    O(log n) per cut.
    """

    __slots__ = ("atoms", "pieces", "_index")

    def __init__(
        self,
        atoms: Iterable[tuple[Fraction, Fraction]] = (),
        pieces: Iterable[tuple[Fraction, Fraction, Fraction]] = (),
        require_probability: bool = True,
    ):
        acc: dict[Fraction, Fraction] = {}
        for p, w in atoms:
            w = as_fraction(w)
            if w < 0:
                raise InvalidInput("atom masses must be >= 0")
            if w == 0:
                continue
            p = mod1(as_fraction(p))
            acc[p] = acc.get(p, ZERO) + w
        self.atoms: tuple[tuple[Fraction, Fraction], ...] = tuple(
            sorted(acc.items())
        )
        self.pieces = self._canonical_pieces(pieces)
        # the integer prefix masses and the floats of ``_mass_below``
        self._index = None
        if require_probability and self.total_mass != ONE:
            raise InvalidInput(
                f"measure must have total mass 1, got {self.total_mass}"
            )

    @staticmethod
    def _canonical_pieces(
        pieces: Iterable[tuple[Fraction, Fraction, Fraction]],
    ) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        items = []
        for piece in pieces:
            lo, hi, d = piece
            if type(lo) is not Fraction or type(hi) is not Fraction or type(d) is not Fraction:
                lo, hi, d = piece = as_fraction(lo), as_fraction(hi), as_fraction(d)
            if d.numerator < 0:
                raise InvalidInput("densities must be >= 0")
            ln, hn, hd = lo.numerator, hi.numerator, hi.denominator
            if ln < 0 or ln * hd >= hn * lo.denominator or hn > hd:
                raise InvalidInput(f"density piece [{lo},{hi}) outside [0,1)")
            if d.numerator:
                items.append(piece)
        # the float rule of ``exact``: sorted by their floats, two ends are
        # out of order only when their floats tie, and then the lists are
        # sorted as Fractions
        out = _sweep(
            sorted(items, key=lambda t: t[0].numerator / t[0].denominator),
            sorted(items, key=lambda t: t[1].numerator / t[1].denominator),
        )
        if out is None:
            out = _sweep(sorted(items, key=itemgetter(0)), sorted(items, key=itemgetter(1)))
        return tuple(out)

    # -- constructors

    @staticmethod
    def lebesgue() -> "CircleMeasure":
        return CircleMeasure(pieces=[(ZERO, ONE, ONE)])

    @staticmethod
    def convex_combination(
        parts: Sequence[tuple[Fraction, "CircleMeasure"]]
    ) -> "CircleMeasure":
        parts = [(as_fraction(w), mu) for w, mu in parts]
        if sum((w for w, _ in parts), start=ZERO) != ONE:
            raise InvalidInput("convex combination weights must sum to 1")
        atoms = []
        pieces = []
        for w, mu in parts:
            wn, wd = w.numerator, w.denominator
            if wn:
                atoms += [(p, Fraction(wn * m.numerator, wd * m.denominator)) for p, m in mu.atoms]
                pieces += [
                    (lo, hi, Fraction(wn * d.numerator, wd * d.denominator))
                    for lo, hi, d in mu.pieces
                ]
        return CircleMeasure(atoms=atoms, pieces=pieces)

    # -- structure

    def _mass_terms(self) -> Iterator[tuple[int, int]]:
        """The atom masses, then the piece masses (hi - lo) * d, as integer
        pairs (numerator, denominator > 0), not reduced."""
        for _, w in self.atoms:
            yield w.numerator, w.denominator
        for lo, hi, d in self.pieces:
            ld, hd = lo.denominator, hi.denominator
            yield (hi.numerator * ld - lo.numerator * hd) * d.numerator, ld * hd * d.denominator

    @property
    def total_mass(self) -> Fraction:
        """The mass terms summed per denominator, then over their lcm."""
        sums: dict[int, int] = {}
        for n, d in self._mass_terms():
            sums[d] = sums.get(d, 0) + n
        den = math.lcm(*sums)
        return Fraction(sum(n * (den // d) for d, n in sums.items()), den)

    @property
    def complexity(self) -> int:
        return len(self.atoms) + len(self.pieces)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CircleMeasure)
            and self.atoms == other.atoms
            and self.pieces == other.pieces
        )

    def __repr__(self) -> str:
        return f"CircleMeasure({len(self.atoms)} atoms, {len(self.pieces)} density pieces)"

    # -- evaluation

    def _mass_below(self, x: Fraction, closed: bool) -> Fraction:
        """Mass of [0, x), or of [0, x] when ``closed``, for any rational x:
        one ``Fraction`` from the integer prefix sums."""
        xn, xd = x.numerator, x.denominator
        if xn < 0:
            return ZERO
        if xn > xd:
            # every atom and piece lies below x
            xn = xd = 1
        if self._index is None:
            den = math.lcm(*{d for _, d in self._mass_terms()})
            cum = list(accumulate((n * (den // d) for n, d in self._mass_terms()), initial=0))
            points = [p for p, _ in self.atoms]
            los = [lo for lo, _, _ in self.pieces]
            self._index = (
                den, cum, points, [p.numerator / p.denominator for p in points],
                los, [lo.numerator / lo.denominator for lo in los],
            )
        den, cum, points, point_hints, los, lo_hints = self._index
        # the atoms below x, and at x when closed
        i = locate(points, point_hints, xn, xd)
        if i >= 0 and not closed and points[i].numerator * xd == xn * points[i].denominator:
            i -= 1
        total = cum[i + 1]
        # the last piece with lo <= x is the only one that can straddle x
        k = locate(los, lo_hints, xn, xd)
        if k < 0:
            return Fraction(total, den)
        at = len(points)
        lo, hi, d = self.pieces[k]
        if hi.numerator * xd <= xn * hi.denominator:
            return Fraction(total + cum[at + k + 1] - cum[at], den)
        # the pieces before k, and (x - lo) * d of piece k over q
        total += cum[at + k] - cum[at]
        ld = lo.denominator
        q = xd * ld * d.denominator
        return Fraction(total * q + (xn * ld - lo.numerator * xd) * d.numerator * den, den * q)

    def measure_of_interval(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Mass of the half-open [lo, hi) inside [0, 1]."""
        if lo >= hi:
            return ZERO
        return self._mass_below(hi, False) - self._mass_below(lo, False)

    def cdf(self, x: Fraction) -> Fraction:
        """Mass of [0, x), for x in [0, 1]."""
        return self._mass_below(x, False)

    def cdf_closed(self, x: Fraction) -> Fraction:
        """Mass of [0, x]."""
        return self._mass_below(x, True)

    # -- operations

    def pushforward(self, f: PLCircleMap) -> "CircleMeasure":
        """f_*(mu).  An atom moves to its image.  A piece is cut at f's
        breakpoints; a cut [a, b] on a flat piece of f becomes an atom of
        mass d*(b - a), and one on a sloped piece spreads that mass as the
        density d/|slope| = d*D/|B| over its lift range, wound round the
        circle, for the piece's form (A, B, D).

        One ``exact.locate`` finds the piece of lo.  The lift values at a
        cut's ends are integer pairs, a breakpoint's own or an end's through
        its piece's form, and the whole turns, the shift and the order of
        the ends are read off them.  ``Fraction``s are built only for the
        output: one density (or mass) per cut, and its ends.
        """
        bps, vals, forms, hints = f.breakpoints, f.lift_values, f._forms, f._hints
        atoms = [(f.evaluate(p), w) for p, w in self.atoms]
        pieces: list[tuple[Fraction, Fraction, Fraction]] = []
        for lo, hi, d in self.pieces:
            dn, dd = d.numerator, d.denominator
            an, ad, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            k = locate(bps, hints, an, ad)
            # the cut [a, b] in piece k, and its lift values u at a and w at b
            u = vals[k]
            un, ud = u.numerator, u.denominator
            fa, fb, fd = forms[k]
            if bps[k].numerator != an or bps[k].denominator != ad:
                un, ud = fa * ad + fb * an, fd * ad
            while True:
                b = bps[k + 1]
                bn, bd = b.numerator, b.denominator
                c = hn * bd - bn * hd  # the sign of hi - b
                if c < 0:
                    bn, bd = hn, hd
                    wn, wd = fa * hd + fb * hn, fd * hd
                else:
                    w = vals[k + 1]
                    wn, wd = w.numerator, w.denominator
                if not fb:
                    atoms.append((mod1(vals[k]), Fraction(dn * (bn * ad - an * bd), dd * ad * bd)))
                else:
                    # the lift range [x, y], and its whole turns
                    if fb > 0:
                        xn, xd, yn, yd, rise = un, ud, wn, wd, fb
                    else:
                        xn, xd, yn, yd, rise = wn, wd, un, ud, -fb
                    turns, rest = divmod(yn * xd - xn * yd, xd * yd)
                    if turns:
                        pieces.append((ZERO, ONE, Fraction(dn * fd * turns, dd * rise)))
                    if rest:
                        # from x mod 1 to y mod 1, or to 1 when that is 0, or
                        # past 1 when it lies below x mod 1
                        dens = Fraction(dn * fd, dd * rise)
                        xr, yr = xn % xd, yn % yd
                        a = Fraction(xr, xd)
                        if not yr:
                            pieces.append((a, ONE, dens))
                        elif xr * yd < yr * xd:
                            pieces.append((a, Fraction(yr, yd), dens))
                        else:
                            pieces += ((a, ONE, dens), (ZERO, Fraction(yr, yd), dens))
                if c <= 0:
                    break
                k += 1
                fa, fb, fd = forms[k]
                an, ad, un, ud = bn, bd, wn, wd
        return CircleMeasure(atoms=atoms, pieces=pieces)

    def integrate(self, phi: Observable) -> Fraction:
        total = sum((w * phi.evaluate(p) for p, w in self.atoms), start=ZERO)
        for lo, hi, d in self.pieces:
            total += d * phi.integral_on_interval(lo, hi)
        return total

    def cylinder_vector(self, ell: int, p: int) -> "CylinderSpec":
        scale = _word_count(ell, p)
        # product enumerates the words in value order
        values = {
            w: self.measure_of_interval(Fraction(v, scale), Fraction(v + 1, scale))
            for v, w in enumerate(product(range(ell), repeat=p))
        }
        return CylinderSpec(ell, p, values)


# ---------------------------------------------------------------------------
# Cylinder specs


def _word_count(ell: int, level: int) -> int:
    """ell**level, the number of level-``level`` words; ``ResourceCap`` above
    ``MAX_CYLINDER_CELLS``, checked before anything is enumerated."""
    as_count(ell, "alphabet size", 2)
    as_count(level, "cylinder level")
    # 2**level > the cap already when level exceeds its bit length
    if level > MAX_CYLINDER_CELLS.bit_length() or ell**level > MAX_CYLINDER_CELLS:
        raise ResourceCap(
            f"cylinder spec at level {level} over {ell} letters has "
            f"{ell}^{level} words, above the cap {MAX_CYLINDER_CELLS}"
        )
    return ell**level


# A word's string form has one character per digit, so at most 36 letters.
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _word_str(word: tuple[int, ...], ell: int) -> str:
    """A word over ell letters, one character per digit; see ``from_strings``."""
    if ell > len(_DIGITS) or not all(0 <= d < ell for d in word):
        raise InvalidInput(f"words over {ell} letters have no string form")
    return "".join(map(_DIGITS.__getitem__, word))


@dataclass(frozen=True)
class CylinderSpec:
    """A measure described by its values on the level-p base-l intervals.

    A word is a tuple of ``level`` digits in 0..ell-1.  ``values`` holds the
    positive values only; every other word has value 0.
    """

    ell: int
    level: int
    values: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        _word_count(self.ell, self.level)
        # integer arithmetic only: the numerators summed per denominator,
        # then once over the lcm of the distinct denominators
        sums: dict[int, int] = {}
        try:
            for w, v in self.values.items():
                if len(w) != self.level:
                    raise InvalidInput(f"word {w} has wrong length")
                if v.numerator < 0:
                    raise InvalidInput("cylinder values must be >= 0")
                sums[v.denominator] = sums.get(v.denominator, 0) + v.numerator
        except AttributeError:
            raise InvalidInput("cylinder values must be exact rationals") from None
        # one C-level pass over every digit: a per-digit Python loop would
        # dominate the dense constructors
        bad = set(chain.from_iterable(self.values)).difference(range(self.ell))
        if bad:
            raise InvalidInput(f"word digits {bad} outside 0..{self.ell - 1}")
        lcm = math.lcm(*sums)
        if sum(n * (lcm // d) for d, n in sums.items()) != lcm:
            raise InvalidInput("cylinder values must sum to 1")
        # sparse: only positive values are stored, ``value`` reads 0 elsewhere
        object.__setattr__(
            self, "values", {w: v for w, v in self.values.items() if v.numerator > 0}
        )

    # -- constructors

    @staticmethod
    def lebesgue(ell: int, p: int) -> "CylinderSpec":
        v = Fraction(1, _word_count(ell, p))
        return CylinderSpec(ell, p, dict.fromkeys(product(range(ell), repeat=p), v))

    @staticmethod
    def dirac_zero(ell: int, p: int) -> "CylinderSpec":
        return CylinderSpec(ell, p, {tuple([0] * p): ONE})

    @staticmethod
    def bernoulli(probs: Sequence[Fraction], p: int) -> "CylinderSpec":
        ell = len(probs)
        if sum(probs, start=ZERO) != ONE:
            raise InvalidInput("digit probabilities must sum to 1")
        _word_count(ell, p)
        # level by level, one multiplication per word
        values = {(): ONE}
        for _ in range(p):
            values = {w + (d,): v * probs[d] for w, v in values.items() for d in range(ell)}
        return CylinderSpec(ell, p, values)

    @staticmethod
    def from_strings(ell: int, p: int, table: dict[str, Fraction]) -> "CylinderSpec":
        if ell > len(_DIGITS):
            raise InvalidInput(f"words over {ell} letters have no string form")
        bad = set("".join(table)).difference(_DIGITS)
        if bad:
            raise InvalidInput(f"word characters {sorted(bad)} are not digits 0-9a-z")
        return CylinderSpec(ell, p, {tuple(map(_DIGITS.index, k)): v for k, v in table.items()})

    # -- queries

    def value(self, digits: tuple[int, ...]) -> Fraction:
        return self.values.get(digits, ZERO)

    def marginal(self, q: int) -> "CylinderSpec":
        """Refinement marginal at a coarser level q <= level."""
        if not 1 <= q <= self.level:
            raise InvalidInput("marginal level out of range")
        out: dict[tuple[int, ...], Fraction] = {}
        for w, v in self.values.items():
            key = w[:q]
            out[key] = out.get(key, ZERO) + v
        return CylinderSpec(self.ell, q, out)

    def is_invariant(self) -> bool:
        """Double-marginalization test: refinement vs. preimage marginals.

        For every word a of length level-1, the mass of the children a*c must
        equal the mass of the translates b*a; a level-1 spec passes vacuously
        (its product extension is always invariant).
        """
        if self.level == 1:
            return True
        left: dict[tuple[int, ...], Fraction] = {}
        right: dict[tuple[int, ...], Fraction] = {}
        for w, v in self.values.items():
            left[w[:-1]] = left.get(w[:-1], ZERO) + v
            right[w[1:]] = right.get(w[1:], ZERO) + v
        return left == right

    def distance(self, other: "CylinderSpec") -> Fraction:
        if self.ell != other.ell or self.level != other.level:
            raise InvalidInput("cylinder specs have mismatched dimensions")
        return max(
            abs(self.value(w) - other.value(w))
            for w in self.values.keys() | other.values.keys()
        )

    # -- stationary extension (used to extend targets below their level)

    def extension_table(self, depth: int, max_cells: int = MAX_CYLINDER_CELLS
                        ) -> list[dict[tuple[int, ...], Fraction]]:
        """Positive cylinder values at levels 1..depth.

        Levels above ``level`` are filled by the stationary memory-(level-1)
        Markov extension of the table: each new digit is drawn conditionally
        on the previous level-1 digits.  Only positive entries are stored.
        """
        tables: list[dict[tuple[int, ...], Fraction]] = []
        for q in range(1, min(depth, self.level) + 1):
            marg = self.marginal(q) if q < self.level else self
            tables.append(dict(marg.values))
        if depth <= self.level:
            return tables
        ctx_mass: dict[tuple[int, ...], Fraction] = {}
        for w, v in self.values.items():
            ctx_mass[w[:-1]] = ctx_mass.get(w[:-1], ZERO) + v
        cells = sum(len(t) for t in tables)
        for q in range(self.level + 1, depth + 1):
            prev = tables[-1]
            nxt: dict[tuple[int, ...], Fraction] = {}
            for w, v in prev.items():
                ctx = w[len(w) - (self.level - 1):] if self.level > 1 else ()
                denom = ctx_mass.get(ctx, ZERO)
                if denom == 0:
                    continue
                for c in range(self.ell):
                    num = self.values.get(ctx + (c,), ZERO)
                    if num == 0:
                        continue
                    nxt[w + (c,)] = v * num / denom
            cells += len(nxt)
            if cells > max_cells:
                raise ResourceCap(
                    f"cylinder extension reached {cells} positive cells, "
                    f"above the cap {max_cells}"
                )
            tables.append(nxt)
        return tables


# ---------------------------------------------------------------------------
# Module-level operations


def cesaro(
    f: PLCircleMap,
    mu0: CircleMeasure,
    n: int,
    complexity_cap: int | None = None,
) -> CircleMeasure:
    """(1/n) sum of the first n push-forward iterates of mu0.

    Each iterate's complexity is checked against ``complexity_cap`` and the
    sum of them all against ``CESARO_HELD_CAP``, before the iterate is
    kept; n above that cap is refused before any push-forward."""
    as_count(n, "cesaro horizon")
    cap = _complexity_cap(complexity_cap)
    if n > CESARO_HELD_CAP:
        raise ResourceCap(
            f"cesaro horizon {n} keeps at least {n} atoms and pieces, "
            f"above the cap {CESARO_HELD_CAP}"
        )
    weight = Fraction(1, n)
    parts = []
    held = 0
    mu = mu0
    for k in range(n):
        if k:
            mu = _capped(mu.pushforward(f), cap)
        held += mu.complexity
        if held > CESARO_HELD_CAP:
            raise ResourceCap(
                f"cesaro iterates 0..{k} hold {held} atoms and pieces, "
                f"above the cap {CESARO_HELD_CAP}"
            )
        parts.append((weight, mu))
    return CircleMeasure.convex_combination(parts)


def _complexity_cap(cap: int | None) -> int:
    """The cap on the complexity of push-forward iterates: the default when
    None, else a count (``exact.as_count``), checked before any iterate."""
    return DEFAULT_COMPLEXITY_CAP if cap is None else as_count(cap, "measure complexity cap")


def _capped(mu: CircleMeasure, cap: int) -> CircleMeasure:
    """mu, checked against the complexity cap."""
    if mu.complexity > cap:
        raise ResourceCap(f"measure complexity {mu.complexity} exceeds cap {cap}")
    return mu


def dirac_periodic(f: PLCircleMap, p: Fraction, k: int) -> CircleMeasure:
    """Uniform probability on the exact period-k orbit of p under f."""
    as_count(k, "period")
    p = mod1(as_fraction(p))
    orbit = [p]
    y = p
    for j in range(1, k + 1):
        y = f.evaluate(y)
        if y == p:
            if j < k:
                raise InvalidInput(
                    f"point has smaller period {j}, expected minimal period {k}"
                )
            break
        if j == k:
            raise InvalidInput("point is not periodic with the given period")
        orbit.append(y)
    mass = Fraction(1, k)
    return CircleMeasure(atoms=[(q, mass) for q in orbit])
