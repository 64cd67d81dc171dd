"""Exact probability measures on the circle and cylinder-value vectors.

A measure is finitely many atoms plus a piecewise-constant density; this
class is closed under push-forward by piecewise-linear maps (flat pieces
turn absolutely continuous mass into atoms), so every identity checked in
the package is a rational equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InvalidInput, ResourceCap
from .exact import ONE, ZERO, as_count, as_fraction, mod1
from .plmaps import Observable, PLCircleMap

DEFAULT_COMPLEXITY_CAP = 100_000
# Cap on the cylinders one spec may list: the ell**level words of a level,
# or the positive cells of an extension table.
MAX_CYLINDER_CELLS = 1_000_000

_FIRST = itemgetter(0)


class CircleMeasure:
    """Probability measure: atoms + piecewise-constant density, canonical.

    Internal form: atoms as sorted (point, mass > 0) pairs with distinct
    points; density as sorted disjoint tuples (lo, hi, density > 0) covering
    subintervals of [0, 1), adjacent pieces with equal density merged.
    Overlapping inputs are accumulated additively.  Every coordinate is a
    ``Fraction``; a float is rejected with ``InvalidInput``.

    Invariants the queries rely on: ``atoms`` is sorted by point and
    ``pieces`` by ``lo``, and a piece ends no later than the next one starts.
    Construction sorts once, O(n log n) in the number of input items.  The
    first mass query builds prefix sums of the atom masses and the piece
    masses, O(n); after that ``cdf``, ``cdf_closed`` and
    ``measure_of_interval`` bisect them, O(log n) each, and
    ``cylinder_vector`` costs O(log n) per cut.
    """

    __slots__ = ("atoms", "pieces", "_prefix")

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
        self._prefix: tuple[list[Fraction], list[Fraction]] | None = None
        if require_probability and self.total_mass != ONE:
            raise InvalidInput(
                f"measure must have total mass 1, got {self.total_mass}"
            )

    @staticmethod
    def _canonical_pieces(
        pieces: Iterable[tuple[Fraction, Fraction, Fraction]],
    ) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        # sweep line: the density jumps by +d at each lo and by -d at each hi
        delta: dict[Fraction, Fraction] = {}
        for lo, hi, d in pieces:
            lo, hi, d = as_fraction(lo), as_fraction(hi), as_fraction(d)
            if d < 0:
                raise InvalidInput("densities must be >= 0")
            if not (ZERO <= lo < hi <= ONE):
                raise InvalidInput(f"density piece [{lo},{hi}) outside [0,1)")
            if d > 0:
                delta[lo] = delta.get(lo, ZERO) + d
                delta[hi] = delta.get(hi, ZERO) - d
        cuts = sorted(delta)
        out: list[tuple[Fraction, Fraction, Fraction]] = []
        dens = ZERO
        for a, b in zip(cuts, cuts[1:]):
            dens += delta[a]
            if dens == 0:
                continue
            if out and out[-1][1] == a and out[-1][2] == dens:
                out[-1] = (out[-1][0], b, dens)
            else:
                out.append((a, b, dens))
        return tuple(out)

    # -- constructors

    @staticmethod
    def lebesgue() -> "CircleMeasure":
        return CircleMeasure(pieces=[(ZERO, ONE, ONE)])

    @staticmethod
    def convex_combination(
        parts: Sequence[tuple[Fraction, "CircleMeasure"]]
    ) -> "CircleMeasure":
        weights = sum((w for w, _ in parts), start=ZERO)
        if weights != ONE:
            raise InvalidInput("convex combination weights must sum to 1")
        atoms = []
        pieces = []
        for w, mu in parts:
            if w == 0:
                continue
            atoms.extend((p, w * m) for p, m in mu.atoms)
            pieces.extend((lo, hi, w * d) for lo, hi, d in mu.pieces)
        return CircleMeasure(atoms=atoms, pieces=pieces)

    # -- structure

    @property
    def total_mass(self) -> Fraction:
        am = sum((w for _, w in self.atoms), start=ZERO)
        pm = sum(((hi - lo) * d for lo, hi, d in self.pieces), start=ZERO)
        return am + pm

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
        """Mass of [0, x), or of [0, x] when ``closed``, for any rational x."""
        if self._prefix is None:
            atom_cum, piece_cum = [ZERO], [ZERO]
            for _, w in self.atoms:
                atom_cum.append(atom_cum[-1] + w)
            for lo, hi, d in self.pieces:
                piece_cum.append(piece_cum[-1] + (hi - lo) * d)
            self._prefix = (atom_cum, piece_cum)
        atom_cum, piece_cum = self._prefix
        find = bisect_right if closed else bisect_left
        total = atom_cum[find(self.atoms, x, key=_FIRST)]
        # pieces before k lie below x; only the last of them can straddle it
        k = bisect_left(self.pieces, x, key=_FIRST)
        if k:
            lo, hi, d = self.pieces[k - 1]
            total += piece_cum[k - 1] + (min(hi, x) - lo) * d
        return total

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
        atoms = [(f.evaluate(p), w) for p, w in self.atoms]
        pieces: list[tuple[Fraction, Fraction, Fraction]] = []
        for lo, hi, d in self.pieces:
            cuts, lifts = f._walk(lo, hi)
            for m in range(len(cuts) - 1):
                a, b = cuts[m], cuts[m + 1]
                fa, fb = lifts[m], lifts[m + 1]
                if fa == fb:
                    atoms.append((mod1(fa), d * (b - a)))
                    continue
                u, v = (fa, fb) if fa < fb else (fb, fa)
                dens = d * (b - a) / (v - u)
                span = v - u
                wraps = math.floor(span)
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
    """(1/n) sum of the first n push-forward iterates of mu0."""
    as_count(n, "cesaro horizon")
    cap = _complexity_cap(complexity_cap)
    weight = Fraction(1, n)
    parts = []
    mu = mu0
    for k in range(n):
        if k:
            mu = _capped(mu.pushforward(f), cap)
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
