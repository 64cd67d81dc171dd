"""Exact substrate: rational circle points, arcs, interval sets.

Everything here is exact rational arithmetic.  Circle points are
Fractions normalized into [0, 1); arcs are half-open
``[start, start+length)`` taken mod 1, with Fraction or int ends.  An
interval ``Iv`` stores its ends as integer pairs in lowest terms, and the
interval-set layer works on those integers: only a returned quantity (a
measure, a gap) is built as a ``Fraction``.

One float rule: the correctly rounded float of a rational is a hint.
Rounding is monotone, so a strict order between two floats holds between
the rationals, and only a float tie is settled by an exact comparison.
Floats decide nothing else and are never returned.  The rule is applied by
``locate`` (the cell of a point among breakpoints) and by the order of
``IntervalSet`` ends (sorting, merging and the interval that can hold a
point).  In ``plmaps`` the PL graph constructor checks that breakpoints
strictly increase and ``PLCircleMap.c0_distance`` merges two breakpoint
tuples by the same rule, and ``PLCircleMap.preimage_of_set`` keys its piece
index the same way; ``measures.CircleMeasure`` sorts the ends of its density
pieces by the rule, and its CDF finds an atom and a piece by ``locate``.
Behind the floats the exact decisions are integer cross products of
numerators and denominators in ``Iv``, ``Arc`` and ``IntervalSet``, and in
``plmaps`` in ``c0_distance``, ``image_of_set`` and ``preimage_of_set`` with
its index: those queries read and build the intervals' integer pairs, each
end they compute reduced by one ``gcd``.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InvalidInput, ResourceCap

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def mod1(x: Fraction) -> Fraction:
    """Reduce a rational to its representative in [0, 1)."""
    n, d = x.numerator, x.denominator
    k = n // d
    # one Fraction from integers, and none when x is in [0, 1) already
    return Fraction(n - k * d, d) if k else x


def circle_dist(x: Fraction, y: Fraction) -> Fraction:
    """Flat circle metric: distance from x - y to the nearest integer."""
    r = mod1(x - y)
    return r if r <= HALF else ONE - r


def signed_circle_offset(x: Fraction, y: Fraction) -> Fraction:
    """Representative of x - y (mod 1) in [-1/2, 1/2)."""
    r = mod1(x - y)
    return r if r < HALF else r - ONE


# Python reads a numeral of at most this many digits into an int (its default
# int_max_str_digits); parse_rational refuses a decimal exponent above it,
# since Fraction would build 10**exponent first
MAX_EXPONENT = 4300
# the exponent of a decimal numeral, as Fraction reads it
_EXPONENT = re.compile(r"[-+]?\d+(_\d+)*")


def parse_rational(text: str) -> Fraction:
    """Parse a 'num/den' (or plain integer) string.

    Malformed text, a zero denominator and a decimal exponent above
    ``MAX_EXPONENT`` raise ``InvalidInput``.  Anything else that
    ``Fraction`` accepts is accepted, with the same value: decimal digits
    with an optional sign, '/' and decimal digits are read as two integers,
    and anything else is left to ``Fraction``.
    """
    try:
        body = text.strip()
        num, slash, den = body.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if slash and digits.isdecimal() and den.isdecimal():
            return Fraction(int(num), int(den))
        e = max(body.rfind("e"), body.rfind("E"))
        if e >= 0 and _EXPONENT.fullmatch(body, e + 1):
            # the rest must be well formed too, or the text is malformed
            Fraction(body[:e] + "e0")
            if abs(int(body[e + 1 :])) > MAX_EXPONENT:
                raise InvalidInput(f"exponent of {text!r} is above {MAX_EXPONENT}")
        return Fraction(body)
    except InvalidInput:
        raise
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a rational number: {text!r}") from exc


def as_fraction(x: object) -> Fraction:
    """Exact rational from a Fraction, an int, a Decimal or a 'num/den' string.

    A string, and a Decimal by its text, is read by ``parse_rational``, so
    its exponent limit holds for both.  A float is rejected with
    ``InvalidInput``: its binary value is rarely the number the caller meant
    (0.3 would become 5404319552844595/2**54).
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise InvalidInput(f"floats are not exact rationals: {x!r}")
    if isinstance(x, (str, Decimal)):
        return parse_rational(str(x))
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a rational number: {x!r}") from exc


def as_count(n: object, what: str, least: int = 1) -> int:
    """n itself when it is a count: an ``int``, not a ``bool``, of at least
    ``least``, which is 1 but for an alphabet size (2) and a push-forward
    iterate (0).

    Anything else is ``InvalidInput``, "<what> must be an integer" or
    "<what> must be >= <least>", with the value given.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInput(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise InvalidInput(f"{what} must be >= {least}, got {n}")
    return n


def format_rational(x: Fraction) -> str:
    """Serialize as an explicit 'num/den' string.

    An integer with more decimal digits than Python's int-to-str limit
    (``sys.get_int_max_str_digits``, 4300 by default) can be neither written
    nor read back by ``parse_rational``: ``ResourceCap`` names its size.
    The limit is Python's own check, so the common case costs nothing.
    """
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise ResourceCap(
            f"a rational with a {x.numerator.bit_length()}-bit numerator and a "
            f"{x.denominator.bit_length()}-bit denominator has more digits than "
            f"the {sys.get_int_max_str_digits()}-digit limit of integer "
            f"string conversion"
        ) from exc


def format_ratios(nums: Sequence[int], den: int) -> list[str]:
    """The 'num/den' strings of x/den in lowest terms, for each integer x
    in nums and den > 0: the text ``format_rational`` gives, from one gcd
    per entry and no Fraction, and its ``ResourceCap`` past the digit
    limit."""
    try:
        return [f"{x // (g := gcd(x, den))}/{den // g}" for x in nums]
    except ValueError:
        # name the first entry past the limit, as format_rational does
        for x in nums:
            format_rational(Fraction(x, den))
        raise


def locate(
    keys: Sequence[Fraction], hints: Sequence[float], p: int, q: int, lo: int = 0
) -> int:
    """The last index i < len(hints) with keys[i] <= p/q, or lo - 1 when
    keys[lo] > p/q, decided by floats; the search starts at index ``lo``.

    ``keys`` strictly increase and ``hints`` are the correctly rounded
    floats of the first len(hints) of them; ``p / q`` (q > 0) is correctly
    rounded too, and p/q need not be reduced.  Rounding is monotone, so a
    strict float inequality holds exactly: bisection puts p/q strictly below
    every key whose hint is above its float.  Tie rule: only when the float
    of p/q equals hints[i] is keys[i] compared exactly, by two integer
    products, and the index moves down while keys[i] > p/q; keys closer than
    the float spacing share a hint, so the walk down may take several steps.
    Cost one integer division and one bisection, plus one exact comparison
    per tied hint.

    For a map's breakpoints 0 = b0 < ... < bm = 1 and the hints of b0, ...,
    b(m-1), and 0 <= p/q <= 1, this is the piece with bps[i] <= p/q <
    bps[i+1] (the last piece at p/q = 1).  ``IntervalSet`` locates a point
    among the low ends of its intervals the same way.  A sweep over sorted
    points, such as ``PLCircleMap.image_of_set``, passes the index it found
    for the previous point as ``lo``, so its index only advances.
    """
    x = p / q
    i = bisect_right(hints, x, lo) - 1
    while i >= lo and hints[i] == x and keys[i].numerator * q > p * keys[i].denominator:
        i -= 1
    return i


# ---------------------------------------------------------------------------
# Arcs and intervals: immutable values whose ends are Fractions or ints.
#
# Their checks compare the ends' numerators and denominators as integers.


_EXACT = (int, Fraction)


class _Frozen:
    """Base of the slotted values below: their fields are set once, by
    ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _refuse(x: object) -> InvalidInput:
    """The error for an end that is not a Fraction or an int, worded as in
    ``as_fraction``."""
    if isinstance(x, float):
        return InvalidInput(f"floats are not exact rationals: {x!r}")
    return InvalidInput(f"not a rational number: {x!r}")


class Arc(_Frozen):
    """Half-open arc [start, start+length) mod 1, with 0 < length <= 1.

    Zero-length arcs are permitted only where a module explicitly says so
    (degenerate partition cells); construct them via ``Arc.degenerate``.
    ``start`` and ``length`` are Fractions or ints; anything else, a float
    included, is ``InvalidInput``.
    """

    __slots__ = ("start", "length")

    def __init__(self, start: Fraction, length: Fraction) -> None:
        # isinstance against Fraction goes through ABCMeta; the type test
        # settles the common case first
        if type(start) is not Fraction and not isinstance(start, _EXACT):
            raise _refuse(start)
        if type(length) is not Fraction and not isinstance(length, _EXACT):
            raise _refuse(length)
        if not 0 <= start.numerator < start.denominator:
            raise ValueError(f"arc start {start} outside [0,1)")
        if not 0 <= length.numerator <= length.denominator:
            raise ValueError(f"arc length {length} outside [0,1]")
        _set_start(self, start)
        _set_length(self, length)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.length) == (other.start, other.length)

    def __hash__(self) -> int:
        return hash((self.start, self.length))

    def __repr__(self) -> str:
        return f"Arc(start={self.start!r}, length={self.length!r})"

    def __reduce__(self):
        return Arc, (self.start, self.length)

    @staticmethod
    def make(start: Fraction, length: Fraction) -> "Arc":
        if not isinstance(start, _EXACT):
            raise _refuse(start)
        if not isinstance(length, _EXACT):
            raise _refuse(length)
        if not 0 < length.numerator <= length.denominator:
            raise ValueError(f"arc length must lie in (0,1], got {length}")
        return Arc(mod1(start), length)

    @staticmethod
    def degenerate(start: Fraction) -> "Arc":
        return Arc(mod1(start), ZERO)

    @staticmethod
    def full() -> "Arc":
        return Arc(ZERO, ONE)

    @property
    def end(self) -> Fraction:
        """Right endpoint, reduced mod 1 (excluded from the arc)."""
        return mod1(self.start + self.length)

    @property
    def midpoint(self) -> Fraction:
        return mod1(self.start + self.length / 2)

    def contains(self, x: Fraction) -> bool:
        """Half-open membership with wraparound."""
        return mod1(x - self.start) < self.length

    def diameter(self) -> Fraction:
        """Sup of pairwise circle distances between points of the arc."""
        return self.length if self.length <= HALF else HALF

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        """Split into non-wrapping half-open [lo, hi) pieces inside [0, 1].

        The end start + length is one ``Fraction`` built from integers."""
        start, length = self.start, self.length
        ln, ld = length.numerator, length.denominator
        if not ln:
            return []
        sd = start.denominator
        den = sd * ld
        # (start + length - 1) * den
        over = start.numerator * ld + ln * sd - den
        if over <= 0:
            return [(start, Fraction(over + den, den))]
        return [(start, ONE), (ZERO, Fraction(over, den))]


_set_start = Arc.start.__set__
_set_length = Arc.length.__set__


# ---------------------------------------------------------------------------
# Interval sets with explicit endpoint topology.
#
# Used by the shredder's verifier, where open/closed distinctions matter
# (trapping regions are open, their closures are checked against them).
# Intervals live on the line; circle sets are stored via representatives
# inside [0, 1].


class Iv(_Frozen):
    """One interval with endpoint flags; lo == hi means a single point.

    Stored as the two ends in lowest terms, ``ln/ld`` and ``hn/hd`` with
    ``ld, hd > 0``, and the two flags; every set operation reads these
    integers.  ``lo`` and ``hi`` are read-only ``Fraction`` views of the
    ends, built on each read.  The constructor takes the ends as Fractions
    or ints; anything else, a float included, is ``InvalidInput``.  The
    order check is one integer cross product.
    """

    __slots__ = ("ln", "ld", "lo_closed", "hn", "hd", "hi_closed")

    def __init__(
        self, lo: Fraction, lo_closed: bool, hi: Fraction, hi_closed: bool
    ) -> None:
        if type(lo) is not Fraction and not isinstance(lo, _EXACT):
            raise _refuse(lo)
        if type(hi) is not Fraction and not isinstance(hi, _EXACT):
            raise _refuse(hi)
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if ln * hd > hn * ld:
            raise ValueError("interval endpoints out of order")
        # both ends are in lowest terms, so equal values have equal integers
        if ln == hn and ld == hd and not (lo_closed and hi_closed):
            raise ValueError("degenerate interval must be a closed point")
        _set_ln(self, ln)
        _set_ld(self, ld)
        _set_lo_closed(self, lo_closed)
        _set_hn(self, hn)
        _set_hd(self, hd)
        _set_hi_closed(self, hi_closed)

    @staticmethod
    def from_ints(
        ln: int, ld: int, lo_closed: bool, hn: int, hd: int, hi_closed: bool
    ) -> "Iv":
        """The interval from ln/ld to hn/hd, given in lowest terms with
        ld, hd > 0 and in order, with a point closed at both ends.  Nothing
        is checked: the set operations build their intervals here from
        integers that satisfy this already."""
        iv = _new(Iv)
        _set_ln(iv, ln)
        _set_ld(iv, ld)
        _set_lo_closed(iv, lo_closed)
        _set_hn(iv, hn)
        _set_hd(iv, hd)
        _set_hi_closed(iv, hi_closed)
        return iv

    @property
    def lo(self) -> Fraction:
        return Fraction(self.ln, self.ld)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hn, self.hd)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.ln == other.ln and self.ld == other.ld and self.hn == other.hn
            and self.hd == other.hd and self.lo_closed == other.lo_closed
            and self.hi_closed == other.hi_closed
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.lo_closed, self.hi, self.hi_closed))

    def __repr__(self) -> str:
        return (
            f"Iv(lo={self.lo!r}, lo_closed={self.lo_closed!r}, "
            f"hi={self.hi!r}, hi_closed={self.hi_closed!r})"
        )

    def __reduce__(self):
        return Iv, (self.lo, self.lo_closed, self.hi, self.hi_closed)

    def contains(self, x: Fraction) -> bool:
        """Membership of x, decided by two integer cross products."""
        return self.contains_ratio(x.numerator, x.denominator)

    def contains_ratio(self, xn: int, xd: int) -> bool:
        """Membership of xn/xd (xd > 0), by the cross products of
        ``contains``."""
        # the signs of x - lo and x - hi
        c = xn * self.ld - self.ln * xd
        if c < 0 or not c and not self.lo_closed:
            return False
        c = xn * self.hd - self.hn * xd
        return c < 0 or not c and self.hi_closed


_new = object.__new__
_set_ln, _set_ld, _set_lo_closed, _set_hn, _set_hd, _set_hi_closed = (
    getattr(Iv, name).__set__ for name in Iv.__slots__
)


def _float_order(iv: Iv) -> tuple[float, bool]:
    """The sort key of a low end by the float rule: its float, and closed
    before open."""
    return iv.ln / iv.ld, not iv.lo_closed


def _exact_order(a: Iv, b: Iv) -> int:
    """The sign of a's low end against b's, by one cross product, and
    closed before open at one value."""
    return a.ln * b.ld - b.ln * a.ld or b.lo_closed - a.lo_closed


_EXACT_ORDER = cmp_to_key(_exact_order)


def _merged(items: list[Iv]) -> list[Iv] | None:
    """The canonical form of items sorted by ``_float_order``, or None when
    a float tie left two low ends out of exact order.

    A run of intervals that overlap or touch with a closed end becomes one
    interval; an interval that nothing joins is kept as it is.  Floats
    decide every comparison of two ends unless they tie, and a tie is
    settled by one cross product."""
    run = items[0]
    n0, d0, c0 = run.ln, run.ld, run.lo_closed
    lo_f = n0 / d0
    hn, hd, hic = run.hn, run.hd, run.hi_closed
    hi_f = hn / hd
    grown = False
    out = []
    for iv in islice(items, 1, None):
        n, d = iv.ln, iv.ld
        f = n / d
        if f == lo_f:
            # the run keeps its low end only when it is the least, closed
            # first at one value
            c = n0 * d - n * d0
            if c > 0 or not c and iv.lo_closed and not c0:
                return None
        # merge when overlapping or touching with at least one closed end
        if f < hi_f or f == hi_f and (
            (c := n * hd - hn * d) < 0 or not c and (iv.lo_closed or hic)
        ):
            # only the run's high end can grow
            n, d = iv.hn, iv.hd
            f = n / d
            if f > hi_f or f == hi_f and (c := n * hd - hn * d) > 0:
                hn, hd, hic, hi_f, grown = n, d, iv.hi_closed, f, True
            elif f == hi_f and not c and iv.hi_closed and not hic:
                hic = grown = True
        else:
            out.append(Iv.from_ints(n0, d0, c0, hn, hd, hic) if grown else run)
            run, n0, d0, c0, lo_f = iv, n, d, iv.lo_closed, f
            hn, hd, hic = iv.hn, iv.hd, iv.hi_closed
            hi_f = hn / hd
            grown = False
    out.append(Iv.from_ints(n0, d0, c0, hn, hd, hic) if grown else run)
    return out


class IntervalSet:
    """Finite union of intervals in [0, 1] with exact endpoint topology.

    Canonical form: sorted, pairwise disjoint, and non-touching (touching
    intervals whose union is an interval are merged).  The circle is modeled
    by identifying 0 with 1: canonicalization glues a part ending closed/open
    at 1 with a part starting at 0 only for membership queries via mod1.

    Invariant the queries rely on: both ``lo`` and ``hi`` strictly increase
    along ``ivs``, and each interval ends no later than the next one starts.
    So the only interval that can hold a point x is the last one with
    ``lo <= x``, found by the rule of ``locate`` on the floats of the low
    ends, which a set lists on its first query; a scan is never needed.

    Every operation reads the intervals' integer ends; only a returned
    measure or gap is built as a ``Fraction``.  Coverage has one rule, the
    merge of ``min_gap_to_boundary``; ``covers`` asks it, so coverage
    across the seam 0 ~ 1 is decided in one place.
    """

    __slots__ = ("ivs", "_hints")

    def __init__(self, ivs: Iterable[Iv] = ()):
        self.ivs: tuple[Iv, ...] = self._canonical(list(ivs))
        # the floats of the low ends, for the rule of locate
        self._hints: list[float] | None = None

    @staticmethod
    def _canonical(items: list[Iv]) -> tuple[Iv, ...]:
        if len(items) < 2:
            return tuple(items)
        # floats decide the order of two low ends unless they tie (see locate)
        items.sort(key=_float_order)
        out = _merged(items)
        if out is None:
            # two low ends share a float but not their order: sort exactly
            items.sort(key=_EXACT_ORDER)
            out = _merged(items)
        return tuple(out)

    # -- constructors

    @staticmethod
    def point(x: Fraction) -> "IntervalSet":
        return IntervalSet([Iv(x, True, x, True)])

    @staticmethod
    def from_arcs(arcs: Iterable[Arc], closed: bool) -> "IntervalSet":
        """The union of arcs in [0, 1]: of their closures when ``closed``,
        else of their interiors.

        An arc that wraps strictly past 0 holds 0 ~ 1 in its interior, so
        its two open pieces are closed at 1 and at 0.  The closure of a
        zero-length arc is its start point, and its interior is empty.
        Each end comes from the arc's integers with one ``gcd``.
        """
        make = Iv.from_ints
        items: list[Iv] = []
        for a in arcs:
            s, length = a.start, a.length
            sn, sd, ln, ld = s.numerator, s.denominator, length.numerator, length.denominator
            if not ln:
                if closed:
                    items.append(make(sn, sd, True, sn, sd, True))
                continue
            den = sd * ld
            # (start + length - 1) * den
            over = sn * ld + ln * sd - den
            if over > 0:
                g = gcd(over, den)
                items.append(make(sn, sd, closed, 1, 1, True))
                items.append(make(0, 1, True, over // g, den // g, closed))
            else:
                over += den
                g = gcd(over, den)
                items.append(make(sn, sd, closed, over // g, den // g, closed))
        return IntervalSet(items)

    @staticmethod
    def union_all(sets: Iterable["IntervalSet"]) -> "IntervalSet":
        items: list[Iv] = []
        for s in sets:
            items.extend(s.ivs)
        return IntervalSet(items)

    # -- queries

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.ivs + other.ivs)

    def measure(self) -> Fraction:
        """Total length, summed as integers over one common denominator."""
        ivs = self.ivs
        den = lcm(*(iv.ld for iv in ivs), *(iv.hd for iv in ivs))
        return Fraction(
            sum(den // iv.hd * iv.hn - den // iv.ld * iv.ln for iv in ivs), den
        )

    def contains_point(self, x: Fraction) -> bool:
        n, d = x.numerator, x.denominator
        return self.contains_ratio(n % d, d)

    def contains_ratio(self, p: int, q: int) -> bool:
        """``contains_point`` of p/q in [0, 1), q > 0, on the integers."""
        ivs, hints = self.ivs, self._hints
        if hints is None:
            hints = self._hints = [iv.ln / iv.ld for iv in ivs]
        # the last interval with lo <= p/q is the only one that can hold it,
        # found as locate finds a key
        x = p / q
        i = bisect_right(hints, x) - 1
        while i >= 0 and hints[i] == x and ivs[i].ln * q > p * ivs[i].ld:
            i -= 1
        if i >= 0 and ivs[i].contains_ratio(p, q):
            return True
        # circle identification: 0 and 1 are the same point
        return not p and bool(ivs) and ivs[-1].contains_ratio(1, 1)

    def covers(self, other: "IntervalSet") -> bool:
        """True iff other is a subset of self, both as subsets of the circle.

        The one coverage rule: self covers a nonempty set exactly when
        ``min_gap_to_boundary`` gives it a gap.
        """
        return not other.ivs or self.min_gap_to_boundary(other) is not None

    def min_gap_to_boundary(self, inner: "IntervalSet") -> Fraction | None:
        """The least distance from a point of ``inner`` to the boundary of
        self, or None when self does not cover inner; ``covers`` is this
        rule.

        One merge of the two sorted sets: the host of an inner interval is
        the last interval of self whose low end is at most the inner one's,
        and the host index only advances.  An inner interval is covered when
        it lies in its host, except that an end at 0 or 1 is covered also
        when self holds the other representative of 0 ~ 1; its gaps are its
        distances to the host's two ends.  When self holds
        0 ~ 1 together with points on both sides of it, the seam is no
        boundary: a gap that reaches 0 or 1 runs on into the part on the
        other side.  A point 0 or 1 that only the other representative
        covers lies on the boundary, at gap 0.  (A set that is the whole
        circle has no boundary at all; its gaps then come out at 1 or more.)
        Every comparison and gap is an integer cross product; one
        ``Fraction`` is built, for the least gap.  Cost O(|self| + |inner|).
        ``ValueError`` when inner is empty.
        """
        if not inner.ivs:
            raise ValueError("the gap of an empty set is undefined")
        ivs = self.ivs
        if not ivs:
            return None
        first, last = ivs[0], ivs[-1]
        starts_at_0 = not first.ln and first.hn
        ends_at_1 = last.hn == last.hd and last.ln < last.ld
        # 0 ~ 1 is a point of self when either representative is
        wrap = not first.ln and first.lo_closed or last.hn == last.hd and last.hi_closed
        seam = starts_at_0 and ends_at_1 and (first.lo_closed or last.hi_closed)
        count = len(ivs)
        j = -1
        nxt_n, nxt_d = first.ln, first.ld  # the low end of ivs[j + 1]
        best_n, best_d = 1, 0  # the least gap so far, as an integer pair
        for t in inner.ivs:
            ln, ld, hn, hd = t.ln, t.ld, t.hn, t.hd
            while j + 1 < count and nxt_n * ld <= ln * nxt_d:
                j += 1
                if j + 1 < count:
                    nxt = ivs[j + 1]
                    nxt_n, nxt_d = nxt.ln, nxt.ld
            if j < 0:
                # no host: only the point 0, covered by 1, at gap 0
                if not (ln == hn == 0 and wrap):
                    return None
                best_n, best_d = 0, 1
                continue
            host = ivs[j]
            an, ad, bn, bd = host.ln, host.ld, host.hn, host.hd
            # the signs of lo - a and of b - hi
            c_lo = ln * ad - an * ld
            c_hi = bn * hd - hn * bd
            if ln == hn and ld == hd:
                # a point: 0 and 1 are covered as one circle point
                covered = (
                    wrap if ln == 0 or ln == ld
                    else (c_lo > 0 or host.lo_closed)
                    and (c_hi > 0 or not c_hi and host.hi_closed)
                )
            else:
                covered = (
                    ln * bd < bn * ld
                    and (c_lo > 0 or host.lo_closed or not t.lo_closed or not ln and wrap)
                    and (
                        c_hi > 0 or not c_hi and (
                            host.hi_closed or not t.hi_closed or hn == hd and wrap
                        )
                    )
                )
            if not covered:
                return None
            if c_hi < 0:
                # a point 0 or 1 covered by the other representative only
                best_n, best_d = 0, 1
                continue
            left_n, left_d = c_lo, ld * ad
            right_n, right_d = c_hi, hd * bd
            if seam and not an:
                # the part ending at 1 adds 1 - last.lo
                left_n = left_n * last.ld + (last.ld - last.ln) * left_d
                left_d *= last.ld
            if seam and bn == bd:
                # the part starting at 0 adds first.hi
                right_n = right_n * first.hd + first.hn * right_d
                right_d *= first.hd
            if left_n * best_d < best_n * left_d:
                best_n, best_d = left_n, left_d
            if right_n * best_d < best_n * right_d:
                best_n, best_d = right_n, right_d
        return Fraction(best_n, best_d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.ivs == other.ivs

    def __repr__(self) -> str:
        parts = []
        for iv in self.ivs:
            lb = "[" if iv.lo_closed else "("
            rb = "]" if iv.hi_closed else ")"
            parts.append(f"{lb}{iv.lo},{iv.hi}{rb}")
        return "IntervalSet(" + " u ".join(parts) + ")"
