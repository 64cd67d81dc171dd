"""Piecewise-linear circle maps and observables, all exact.

A map is stored through its lift: rational breakpoints 0 = x0 < ... < xm = 1
and lift values F(x0), ..., F(xm), extended by F(t+1) = F(t) + degree.
Composition, inversion, C0 distance, and fixed-point solving
are closed operations on this class and produce exact rationals.

Maps and observables store each piece's line once, in ``_forms``, as the
integers (A, B, D) with F(t) = (A + B*t)/D on the piece (``line_form``), the
one form every reader of a piece's line reads: the slope is B/D, and a flat
piece (B = 0) reads its stored value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Sequence

from .errors import InvalidInput, ResourceCap
from .exact import (
    HALF,
    ONE,
    ZERO,
    Arc,
    IntervalSet,
    Iv,
    as_count,
    as_fraction,
    circle_dist,
    locate,
    mod1,
)

DEFAULT_BREAKPOINT_CAP = 10**6
# the default cap on the intervals one preimage lists before merging
PREIMAGE_INTERVAL_CAP = 100_000
_KEY = itemgetter(0)


def _pl_graph(breakpoints: Sequence[Fraction], values: Sequence[Fraction]):
    """Validated breakpoints, values, forms, ``locate`` hints (the floats
    of all breakpoints but 1) and bends (the indices of the breakpoints
    where the slope changes) of a PL graph over [0, 1].

    The order check follows the float rule of ``exact``: the floats of two
    neighbours decide their order unless they tie, and a tie is settled by
    an integer cross product.  Each piece's form is ``line_form`` of its
    two ends, and two slopes B/D are compared by the cross product of
    their B and D.
    """
    bps = tuple(as_fraction(b) for b in breakpoints)
    vals = tuple(as_fraction(v) for v in values)
    if len(bps) != len(vals) or len(bps) < 2:
        raise InvalidInput("need equally many breakpoints and values, at least two")
    if bps[0] != ZERO or bps[-1] != ONE:
        raise InvalidInput("breakpoints must start at 0 and end at 1")
    hints = [0.0]
    forms = []
    bends = []
    p0, q0, h0 = 0, 1, 0.0
    n0, d0 = vals[0].numerator, vals[0].denominator
    for i, (b, v) in enumerate(zip(bps[1:], vals[1:])):
        p1, q1 = b.numerator, b.denominator
        h1 = p1 / q1
        if h1 <= h0 and (h1 < h0 or p1 * q0 <= p0 * q1):
            raise InvalidInput("breakpoints must be strictly increasing")
        n1, d1 = v.numerator, v.denominator
        form = line_form(p0, q0, n0, d0, p1, q1, n1, d1)
        if i and form[1] * forms[-1][2] != forms[-1][1] * form[2]:
            bends.append(i)
        forms.append(form)
        hints.append(h1)
        p0, q0, h0, n0, d0 = p1, q1, h1, n1, d1
    hints.pop()
    return bps, vals, forms, hints, bends


def line_form(
    p0: int, q0: int, n0: int, d0: int, p1: int, q1: int, n1: int, d1: int
) -> tuple[int, int, int]:
    """The form (A, B, D) of the line through (p0/q0, n0/d0) and
    (p1/q1, n1/d1), p0/q0 < p1/q1: F(t) = (A + B*t)/D with D > 0, so
    F(p/q) = (A*q + B*p)/(D*q) and the slope is B/D.  gcd(A, B, D) = 1,
    but a flat line is (n0, 0, d0), reduced when n0/d0 is.
    """
    rise = n1 * d0 - n0 * d1
    if not rise:
        return n0, 0, d0
    a = n0 * d1 * p1 * q0 - n1 * d0 * p0 * q1
    b = rise * q0 * q1
    d = d0 * d1 * (p1 * q0 - p0 * q1)
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _value_at(vals, forms, i: int, t: Fraction) -> Fraction:
    """The value at t of piece i: its stored left value when the piece is
    flat, else one Fraction from its form."""
    a, b, d = forms[i]
    if not b:
        return vals[i]
    q = t.denominator
    return Fraction(a * q + b * t.numerator, d * q)


def _walk_ends(bps, hints, lo: Fraction, hi: Fraction):
    """Turn, offset in [0, 1) and located piece of each end of [lo, hi]."""
    k_lo = lo.numerator // lo.denominator
    k_hi = hi.numerator // hi.denominator
    # adding or subtracting a zero would rebuild a Fraction for nothing
    t_lo = lo - k_lo if k_lo else lo
    t_hi = hi - k_hi if k_hi else hi
    return (
        k_lo, t_lo, locate(bps, hints, t_lo.numerator, t_lo.denominator),
        k_hi, t_hi, locate(bps, hints, t_hi.numerator, t_hi.denominator),
    )


def _cut_count(bps, ends) -> int:
    """How many cuts ``_lift_walk`` lists for the located ends, in O(1)."""
    k_lo, _, p, k_hi, t_hi, q = ends
    stop = q + (bps[q] < t_hi)
    if k_lo == k_hi:
        return 2 + max(stop - p - 1, 0)
    pieces = len(bps) - 1
    return 2 + (pieces - p - 1) + (k_hi - k_lo - 1) * pieces + stop


def _lift_walk(bps, vals, forms, degree: int, lo: Fraction, hi: Fraction, ends):
    """Cuts and exact values of a PL graph over [lo, hi], lo <= hi.

    The graph is extended by F(t + 1) = F(t) + degree, so [lo, hi] may span
    several turns.  The cuts are lo, every lifted breakpoint b + k strictly
    between lo and hi, and hi, in increasing order.  Interior values are read
    by slice and shifted by k * degree; the two end values come from the
    form of the piece each end is located in (``ends``, from
    ``_walk_ends``).  Cost O(log |bps| + output).
    """
    k_lo, t_lo, p, k_hi, t_hi, q = ends
    v_lo, v_hi = _value_at(vals, forms, p, t_lo), _value_at(vals, forms, q, t_hi)
    cuts, lifts = [lo], [v_lo + k_lo * degree if k_lo * degree else v_lo]
    start = p + 1
    for k in range(k_lo, k_hi + 1):
        stop = len(bps) - 1 if k < k_hi else q + (bps[q] < t_hi)
        cuts.extend([b + k for b in bps[start:stop]] if k else bps[start:stop])
        shift = k * degree
        lifts.extend([v + shift for v in vals[start:stop]] if shift else vals[start:stop])
        start = 0
    cuts.append(hi)
    lifts.append(v_hi + k_hi * degree if k_hi * degree else v_hi)
    return cuts, lifts


class PLCircleMap:
    """Continuous piecewise-linear circle map given by its lift."""

    __slots__ = (
        "breakpoints", "lift_values", "degree", "_forms", "_hints",
        "_preimages", "_refined",
    )

    def __init__(
        self,
        breakpoints: Sequence[Fraction],
        lift_values: Sequence[Fraction],
    ):
        bps, vals, forms, hints, bends = _pl_graph(breakpoints, lift_values)
        n0, d0 = vals[0].numerator, vals[0].denominator
        n1, d1 = vals[-1].numerator, vals[-1].denominator
        # two reduced fractions differ by an integer exactly when they share
        # a denominator and their numerators agree modulo it
        if d1 != d0 or (n1 - n0) % d0:
            raise InvalidInput(
                f"lift endpoint difference must be an integer, got {vals[-1] - vals[0]}"
            )
        # canonical lift representative: F(0) in [0, 1)
        shift = n0 // d0
        if shift:
            vals = tuple(v - shift for v in vals)
            forms = [(a - shift * d, b, d) for a, b, d in forms]
        # drop breakpoint i exactly when the pieces on both sides of it share
        # a slope, so a line; a merged piece keeps its first piece's form
        keep = [0, *bends]
        if len(keep) < len(forms):
            forms = [forms[i] for i in keep]
            hints = [hints[i] for i in keep]
            keep.append(len(bps) - 1)
            bps = tuple(bps[i] for i in keep)
            vals = tuple(vals[i] for i in keep)
        self.breakpoints = bps
        self.lift_values = vals
        self.degree = (n1 - n0) // d0
        self._forms = tuple(forms)
        self._hints = hints
        self._preimages = None
        # the cuts and step table of ``orbits._Closing.table``, once asked
        self._refined = None

    # -- basic structure

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PLCircleMap)
            and self.breakpoints == other.breakpoints
            and self.lift_values == other.lift_values
        )

    def __repr__(self) -> str:
        return (
            f"PLCircleMap({len(self.breakpoints)} breakpoints, degree {self.degree})"
        )

    @property
    def is_homeomorphism(self) -> bool:
        if abs(self.degree) != 1:
            return False
        inc = all(b > 0 for _, b, _ in self._forms)
        dec = all(b < 0 for _, b, _ in self._forms)
        return (inc and self.degree == 1) or (dec and self.degree == -1)

    @property
    def orientation_preserving(self) -> bool:
        return self.is_homeomorphism and self.degree == 1

    @property
    def lipschitz(self) -> Fraction:
        """Exact Lipschitz constant: max absolute slope."""
        return max(Fraction(abs(b), d) for _, b, d in self._forms)

    # -- evaluation

    def lift_evaluate(self, t: Fraction) -> Fraction:
        """Affine interpolant of the lift, extended by F(t+1) = F(t) + degree."""
        n, q = t.numerator, t.denominator
        k = n // q
        p = n - k * q  # t - k = p/q, in [0, 1)
        i = locate(self.breakpoints, self._hints, p, q)
        a, b, d = self._forms[i]
        shift = k * self.degree
        if b:
            return Fraction((a + shift * d) * q + b * p, d * q)
        # a flat piece reads its stored value; adding 0 would rebuild it
        value = self.lift_values[i]
        return value + shift if shift else value

    def _walk(self, lo: Fraction, hi: Fraction) -> tuple[list[Fraction], list[Fraction]]:
        """Cuts and lift values over [lo, hi]; see ``_lift_walk``."""
        bps = self.breakpoints
        return _lift_walk(
            bps, self.lift_values, self._forms, self.degree, lo, hi,
            _walk_ends(bps, self._hints, lo, hi),
        )

    def evaluate(self, x: Fraction) -> Fraction:
        return mod1(self.lift_evaluate(mod1(x)))

    def __call__(self, x: Fraction) -> Fraction:
        return self.evaluate(x)

    def orbit(self, x: Fraction, n: int) -> list[Fraction]:
        """[x, f(x), ..., f^(n-1)(x)], exact pointwise iteration."""
        as_count(n, "orbit length")
        pts = [mod1(x)]
        for _ in range(n - 1):
            pts.append(self.evaluate(pts[-1]))
        return pts

    def step(self, p: int, q: int) -> tuple[int, int]:
        """f(p/q) as a reduced pair (p', q') with p'/q' in [0, 1), for p/q
        in [0, 1) reduced.

        The form (A, B, D) of p/q's piece gives
        f(p/q) = ((A*q + B*p) mod D*q) / (D*q): one ``locate``, three
        products, one ``%`` and one ``gcd``, with no Fraction built.
        """
        a, b, d = self._forms[locate(self.breakpoints, self._hints, p, q)]
        yd = d * q
        yn = (a * q + b * p) % yd
        g = gcd(yn, yd)
        return yn // g, yd // g

    # -- constructors

    @staticmethod
    def identity() -> "PLCircleMap":
        return PLCircleMap([ZERO, ONE], [ZERO, ONE])

    @staticmethod
    def rotation(angle: Fraction) -> "PLCircleMap":
        a = mod1(as_fraction(angle))
        return PLCircleMap([ZERO, ONE], [a, a + 1])

    @staticmethod
    def from_lift_points(points: Sequence[tuple[Fraction, Fraction]]) -> "PLCircleMap":
        """Build from lift graph points over any interval [t0, t0+1].

        ``points`` must have strictly increasing abscissas spanning exactly one
        period; the ordinate difference across the period is the degree.  The
        result is renormalized to canonical breakpoints in [0, 1].
        """
        if len(points) < 2:
            raise InvalidInput("need at least two lift points")
        ts = [as_fraction(t) for t, _ in points]
        if ts[-1] - ts[0] != ONE:
            raise InvalidInput("lift points must span exactly one period")
        # the points as a map starting at ts[0], walked back onto [0, 1]
        graph = PLCircleMap([t - ts[0] for t in ts], [w for _, w in points])
        cuts, lifts = graph._walk(-ts[0], ONE - ts[0])
        return PLCircleMap([c + ts[0] for c in cuts], lifts)

    # -- composition and friends

    def compose(self, inner: "PLCircleMap") -> "PLCircleMap":
        """Exact composition self(inner(x)).

        Each inner piece [a, b] spans a lift range (a point if flat); one walk
        of the outer lift over it gives the cuts inside the piece, in order,
        with their values.  ``DEFAULT_BREAKPOINT_CAP`` is checked on each
        piece's cut count, known from the two located ends, before its cuts
        are listed.  Cost O(|inner| log |self| + output).
        """
        cap = DEFAULT_BREAKPOINT_CAP
        fb, fv, ff, fh = self.breakpoints, self.lift_values, self._forms, self._hints
        gb, gv, gf = inner.breakpoints, inner.lift_values, inner._forms
        pieces = len(gb) - 1
        bps: list[Fraction] = []
        vals: list[Fraction] = []
        for i in range(pieces):
            a, b, d = gf[i]
            lo, hi = (gv[i + 1], gv[i]) if b < 0 else (gv[i], gv[i + 1])
            ends = _walk_ends(fb, fh, lo, hi)
            # the piece adds its cuts but the last; the inner map's later
            # breakpoints count as cuts already; a flat piece adds none and
            # is not checked
            count = len(bps) + _cut_count(fb, ends) - 1 + pieces - i
            if b and count > cap:
                raise ResourceCap(
                    f"composition reached {count} breakpoints after "
                    f"{i + 1} of {pieces} inner pieces, "
                    f"above the breakpoint cap {cap}"
                )
            us, fus = _lift_walk(fb, fv, ff, self.degree, lo, hi, ends)
            if b < 0:
                us.reverse()
                fus.reverse()
            bps.append(gb[i])
            # the cut u = n/m pulls back to t = (u*D - A)/B
            bps.extend(Fraction(u.numerator * d - a * u.denominator, b * u.denominator)
                       for u in us[1:-1])
            vals.extend(fus[:-1])
        bps.append(ONE)
        vals.append(fus[-1])
        return PLCircleMap(bps, vals)

    def invert(self) -> "PLCircleMap":
        if not self.is_homeomorphism:
            raise InvalidInput("only homeomorphisms can be inverted")
        pts = list(zip(self.lift_values, self.breakpoints))
        if self.degree == -1:
            pts.reverse()
        return PLCircleMap.from_lift_points(pts)

    # -- distance

    def c0_distance(self, other: "PLCircleMap") -> Fraction:
        """Exact sup over the circle of d(f(x), g(x)).

        One merge walk over the two sorted breakpoint tuples, ordered by the
        float rule of ``exact``: the hints decide unless they tie, and a tie
        is settled by an integer cross product.  At a map's own breakpoint
        its lift value is read by index, at the other map's breakpoints it
        comes from the form of the current piece, and each difference is
        kept as an integer pair.
        """
        fb, fv, ff = self.breakpoints, self.lift_values, self._forms
        gb, gv, gf = other.breakpoints, other.lift_values, other._forms
        # 1 closes both hint lists: a breakpoint whose float is 1.0 ties
        # with it and is compared exactly
        fh, gh = [*self._hints, 1.0], [*other._hints, 1.0]
        last = len(fb) - 1
        deltas = []
        i = j = 0
        # both tuples start at 0 and end at 1: a breakpoint ahead of the
        # other map's next one lies inside that map's previous piece
        while True:
            x, y = fh[i], gh[j]
            if x == y:
                # a float tie: the cross products decide instead
                b, c = fb[i], gb[j]
                x, y = b.numerator * c.denominator, c.numerator * b.denominator
            if x == y:
                v, w = fv[i], gv[j]
                deltas.append((
                    v.numerator * w.denominator - w.numerator * v.denominator,
                    v.denominator * w.denominator,
                ))
                if i == last:
                    break
                i += 1
                j += 1
            elif x < y:
                deltas.append(form_gap(fv[i], gf[j - 1], fb[i]))
                i += 1
            else:
                n, d = form_gap(gv[j], ff[i - 1], gb[j])
                deltas.append((-n, d))
                j += 1
        return sup_dist_to_int(deltas)

    # -- fixed points

    def fixed_point_components(self) -> list["PeriodicComponent"]:
        """Maximal solution components of f(x) = x on the circle.

        They are the preimage of 0 under the displacement map
        d(x) = F(x) - x, of degree one less than f's.  The part that ends
        at 1 and the part that starts at 0 are one component.  A point is
        transversal when the slopes of d on its two sides share a sign; a
        component is maximal, so neither slope is 0.  Arcs are tangential,
        and the identity gives one full arc.  Components are ordered by the
        integer lift value of d on them, then by position, the component
        through 0 ~ 1 at position 0.
        """
        bps = self.breakpoints
        d = PLCircleMap(bps, [v - b for v, b in zip(self.lift_values, bps)])
        ivs = list(d.preimage_of_set(IntervalSet.point(ZERO)).ivs)
        if not ivs:
            return []
        if ivs[0].lo == ZERO and ivs[0].hi == ONE:
            return [PeriodicComponent(Arc.full(), transversal=False)]
        # d(1) - d(0) is an integer, so a part ends at 1 exactly when one
        # starts at 0
        if ivs[-1].hi == ONE:
            last = ivs.pop()
            ivs[0] = Iv(last.lo - ONE, True, ivs[0].hi, True)
        d_bps, d_forms = d.breakpoints, d._forms
        keyed = []
        for iv in ivs:
            pos = max(iv.lo, ZERO)
            i = locate(d_bps, d._hints, pos.numerator, pos.denominator)
            level = _value_at(d.lift_values, d_forms, i, pos)
            if iv.lo == iv.hi:
                # B is the sign of a slope; the left neighbour of 0 is the
                # last piece
                left = d_forms[i - 1] if d_bps[i] == pos else d_forms[i]
                comp = PeriodicComponent(pos, transversal=left[1] * d_forms[i][1] > 0)
            else:
                comp = PeriodicComponent(
                    Arc.make(mod1(iv.lo), iv.hi - iv.lo), transversal=False
                )
            keyed.append((level, pos, comp))
        keyed.sort(key=itemgetter(0, 1))
        return [comp for _, _, comp in keyed]

    # -- set images and preimages (endpoint topology exact)

    def lift_range(self, arc: Arc) -> tuple[int, int, int, int]:
        """The least and the greatest lift value over the closed arc
        [s, s + l], as integer pairs: (n_min, d_min, n_max, d_max), each
        d > 0, not reduced.

        One ``locate`` finds the piece of s.  When s + l ends in that piece,
        at its right breakpoint included, a flat piece gives its value and a
        sloped one its two end values, read through the piece's form, with
        no ``Fraction`` built.  Only an arc that crosses a breakpoint is
        read by ``_walk(s, s + l)``.
        """
        s, length = arc.start, arc.length
        sn, sd, ln, ld = s.numerator, s.denominator, length.numerator, length.denominator
        bps = self.breakpoints
        i = locate(bps, self._hints, sn, sd)
        # s + l over sd * ld, against the piece's right breakpoint
        en, ed = sn * ld + ln * sd, sd * ld
        b = bps[i + 1]
        if en * b.denominator <= b.numerator * ed:
            form_a, form_b, form_d = self._forms[i]
            if not form_b:
                return form_a, form_d, form_a, form_d
            # the values at s and at s + l; a falling piece swaps them
            at_s = form_a * sd + form_b * sn, form_d * sd
            at_end = form_a * ed + form_b * en, form_d * ed
            if form_b < 0:
                return *at_end, *at_s
            return *at_s, *at_end
        lifts = self._walk(s, Fraction(en, ed))[1]
        lo, hi = min(lifts), max(lifts)
        return lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def image_of_set(self, s: IntervalSet) -> IntervalSet:
        """Exact image of an interval set inside [0, 1] under the map.

        One sweep over the set's intervals, whose ends increase: an end is
        located by ``exact.locate`` from the piece of the end before it, or
        read off that piece when it ends there, so the piece index only
        advances.  The lift value at an end on a breakpoint (1 is the last)
        is read from ``lift_values``, and one inside a sloped piece from the
        piece's form, reduced by one ``gcd``; every value is an integer
        pair.  Each piece an interval meets adds the wrapped range of its
        two lift values (see ``_wrap_lift_interval``), and the pieces are
        canonicalised once.  Cost O(|s| log |bps| + output).
        """
        ivs = s.ivs
        if ivs and (ivs[0].ln < 0 or ivs[-1].hn > ivs[-1].hd):
            raise InvalidInput("image_of_set needs a set inside [0, 1]")
        bps, vals, forms, hints = (
            self.breakpoints, self.lift_values, self._forms, self._hints
        )
        top = len(bps) - 1
        out: list[Iv] = []
        p = 0  # the piece of the last end located
        for iv in ivs:
            ln, ld, hn, hd = iv.ln, iv.ld, iv.hn, iv.hd
            # each end's piece: the last breakpoint index at or after p
            # whose breakpoint is at most the end; 1 is breakpoint ``top``
            if ln == ld:
                v = vals[top]
                out.append(_point(v.numerator, v.denominator))
                continue
            i = p = locate(bps, hints, ln, ld, p)
            b = bps[i]
            if b.numerator == ln and b.denominator == ld:
                v = vals[i]
                v_lo = v.numerator, v.denominator
            else:
                v_lo = _value_pair(vals, forms, i, ln, ld)
            if ln == hn and ld == hd:
                out.append(_point(*v_lo))
                continue
            # most intervals end in their first piece or at its right end
            b = bps[i + 1]
            c = hn * b.denominator - b.numerator * hd
            if c < 0:
                q, on_hi = i, False
            elif not c:
                q, on_hi = i + 1, True
            elif hn == hd:
                q, on_hi = top, True
            else:
                q = p = locate(bps, hints, hn, hd, i + 1)
                b = bps[q]
                on_hi = b.numerator == hn and b.denominator == hd
            if on_hi:
                v = vals[q]
                v_hi = v.numerator, v.denominator
            else:
                v_hi = _value_pair(vals, forms, q, hn, hd)
            # the lift values at lo, at each breakpoint strictly inside and at hi
            inside = vals[i + 1 : q if on_hi else q + 1]
            lifts = [
                v_lo, *[(v.numerator, v.denominator) for v in inside], v_hi
            ] if inside else [v_lo, v_hi]
            last = len(lifts) - 2
            for k in range(last + 1):
                (an, ad), (bn, bd) = lifts[k], lifts[k + 1]
                if an == bn and ad == bd:
                    out.append(_point(an, ad))
                    continue
                a_closed = iv.lo_closed if k == 0 else True
                b_closed = iv.hi_closed if k == last else True
                if an * bd < bn * ad:
                    _wrap_lift_interval(out, an, ad, a_closed, bn, bd, b_closed)
                else:
                    _wrap_lift_interval(out, bn, bd, b_closed, an, ad, a_closed)
        return IntervalSet(out)

    def _preimage_index(
        self, intervals: int = 0, cap: int = PREIMAGE_INTERVAL_CAP
    ) -> tuple[list[tuple[float, int, int]], Fraction]:
        """Sorted shifted lift ranges of the pieces, built on first use.

        One entry (key, i, k) for every piece i and every shift k with
        ceil(lo_i) - 1 <= k <= floor(hi_i), the shifts at which the piece's
        lift range [lo_i, hi_i] can meet a set inside [0, 1] shifted by k.
        ``key`` is lo_i - k as a correctly rounded float, so it is monotone
        in the exact value.  The entries are sorted by key, and the index
        also holds ``span``, the exact largest hi_i - lo_i.

        Everything is decided on integers: the sign of a piece's B orders
        its two lift values, the shifts come from their numerators
        and denominators, and the spans are compared as integer pairs, so
        one ``Fraction`` is built, for ``span``.  The entry count is known
        from the shifts before any entry is listed: ``ResourceCap`` when
        the entries beyond one per piece pass ``DEFAULT_BREAKPOINT_CAP``.
        So is the count of entries whose lift range covers a whole turn,
        lo_i <= k and k + 1 <= hi_i: each is a hit for every interval of a
        set inside [0, 1], and when they give a set of ``intervals``
        intervals more than ``cap`` hits, the ``ResourceCap`` of
        ``preimage_of_set`` comes before any entry is listed.
        Cost O(P log P) once, for P entries.
        """
        if self._preimages is None:
            vals = self.lift_values
            ranges = []
            extra = 0  # the entries beyond one per piece
            whole = 0  # the entries whose lift range covers a whole turn
            span_n, span_d = 0, 1
            for i, (_, slope, _) in enumerate(self._forms):
                lo, hi = vals[i], vals[i + 1]
                if slope < 0:
                    lo, hi = hi, lo
                n, d, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
                first, stop = -(-n // d) - 1, hn // hd + 1
                extra += stop - first - 1
                # the k from ceil(lo_i) to floor(hi_i) - 1
                whole += max(stop - first - 2, 0)
                w_n, w_d = hn * d - n * hd, hd * d
                if w_n * span_d > span_n * w_d:
                    span_n, span_d = w_n, w_d
                ranges.append((n, d, first, stop))
            if extra > DEFAULT_BREAKPOINT_CAP:
                raise ResourceCap(
                    f"the preimage index of {len(ranges)} pieces needs "
                    f"{len(ranges) + extra} entries, {extra} beyond one per "
                    f"piece, above the breakpoint cap {DEFAULT_BREAKPOINT_CAP}"
                )
            if whole * intervals > cap:
                raise _hit_cap(intervals, cap)
            entries = [
                ((n - k * d) / d, i, k)
                for i, (n, d, first, stop) in enumerate(ranges)
                for k in range(first, stop)
            ]
            entries.sort()
            self._preimages = (entries, Fraction(span_n, span_d))
        return self._preimages

    def preimage_of_set(self, s: IntervalSet, cap: int = PREIMAGE_INTERVAL_CAP) -> IntervalSet:
        """Exact full preimage of an interval set inside [0, 1].

        An entry (key, i, k) of ``_preimage_index`` meets an interval iv
        exactly when lo_i - k <= iv.hi and hi_i - k >= iv.lo, so its exact
        key lies in [iv.lo - span, iv.hi].  Bisection of the float keys
        over the rounded ends of that range finds every such entry; the
        floats are hints.  Each candidate is decided on integers: two
        cross products test it against the interval's ends, shifted by k,
        and a flat piece is then a hit.  On a sloped piece two more cross
        products say which end is clipped to the piece, and an unclipped
        end y = p/q pulls back through the piece's form (A, B, D) to
        t = ((p + k*q)*D - A*q)/(B*q), reduced by one ``gcd``.
        Cost O(P log P) once per map, then O(|s| log P + candidates +
        output) per call.  ``ResourceCap`` as soon as the hits, before they
        are merged, pass ``cap``, a count (``exact.as_count``); the pieces
        whose lift range covers whole turns give sure hits, and when those
        alone pass ``cap`` the index is not built (``_preimage_index``).
        """
        as_count(cap, "preimage interval cap")
        ivs = s.ivs
        if not ivs:
            return IntervalSet()
        if ivs[0].ln < 0 or ivs[-1].hn > ivs[-1].hd:
            raise InvalidInput("preimage_of_set needs a set inside [0, 1]")
        entries, span = self._preimage_index(len(ivs), cap)
        sn, sd = span.numerator, span.denominator
        bps, vals, forms = self.breakpoints, self.lift_values, self._forms
        make = Iv.from_ints
        out: list[Iv] = []
        for iv in ivs:
            lo_closed, hi_closed = iv.lo_closed, iv.hi_closed
            p0, q0, p1, q1 = iv.ln, iv.ld, iv.hn, iv.hd
            first = bisect_left(entries, (p0 * sd - sn * q0) / (q0 * sd), key=_KEY)
            stop = bisect_right(entries, p1 / q1, key=_KEY)
            for _, i, k in entries[first:stop]:
                form_a, form_b, form_d = forms[i]
                falls = form_b < 0
                u, w = (vals[i + 1], vals[i]) if falls else (vals[i], vals[i + 1])
                un, ud, wn, wd = u.numerator, u.denominator, w.numerator, w.denominator
                # the ends shifted by k, over q0 and q1
                lk, hk = p0 + k * q0, p1 + k * q1
                # the piece's lift range [u, w] meets the shifted interval:
                # the signs of hi + k - u and of w - (lo + k), where a zero
                # needs the interval's end closed
                c_hi = hk * ud - un * q1
                c_lo = wn * q0 - lk * wd
                if (
                    c_hi < 0 or c_lo < 0
                    or not c_hi and not hi_closed or not c_lo and not lo_closed
                ):
                    continue
                if len(out) >= cap:
                    raise _hit_cap(len(ivs), cap)
                a, b = bps[i], bps[i + 1]
                a = a.numerator, a.denominator
                b = b.numerator, b.denominator
                if not form_b:
                    out.append(make(*a, True, *b, True))
                    continue
                # each shifted end pulls back into the piece, or lies past
                # the lift range and is clipped to the piece's end, closed:
                # the signs of lo + k - u and of w - (hi + k)
                end_u, end_w = (b, a) if falls else (a, b)
                if lk * ud - un * q0 < 0:
                    t_lo, t_lo_closed = end_u, True
                else:
                    t_lo = _reduced(lk * form_d - form_a * q0, form_b * q0)
                    t_lo_closed = lo_closed
                if wn * q1 - hk * wd < 0:
                    t_hi, t_hi_closed = end_w, True
                else:
                    t_hi = _reduced(hk * form_d - form_a * q1, form_b * q1)
                    t_hi_closed = hi_closed
                if falls:
                    out.append(make(*t_hi, t_hi_closed, *t_lo, t_lo_closed))
                else:
                    out.append(make(*t_lo, t_lo_closed, *t_hi, t_hi_closed))
        return IntervalSet(out)


def form_gap(v: Fraction, form: tuple[int, int, int], t: Fraction) -> tuple[int, int]:
    """v - (A + B*t)/D for a form (A, B, D), D > 0, as an integer pair
    (numerator, denominator > 0), not reduced."""
    a, b, d = form
    p, q = t.numerator, t.denominator
    n, m = v.numerator, v.denominator
    return n * d * q - m * (a * q + b * p), m * d * q


def sup_dist_to_int(deltas: Sequence[tuple[int, int]]) -> Fraction:
    """Sup of the distance to the nearest integer over a polygon.

    The polygon joins consecutive ``deltas``, integer pairs (n, d) with
    d > 0 standing for n/d, not necessarily reduced, by affine segments.
    A segment from u to v spans a half-integer exactly when an odd integer
    lies between ceil(2 min(u, v)) and floor(2 max(u, v)); then the sup is
    1/2.  The floor and ceiling of each 2·delta are computed once, as
    integers, the largest and smallest delta are tracked by cross
    products, and at most two Fractions are built at the end.
    """
    prev_ce = prev_fl = None
    hi_n = lo_n = None
    for n, d in deltas:
        twice = 2 * n
        fl = twice // d
        ce = -(-twice // d)
        if prev_ce is None:
            hi_n, hi_d = lo_n, lo_d = n, d
        else:
            m_lo = min(ce, prev_ce)
            m_hi = max(fl, prev_fl)
            if m_lo <= m_hi and (m_lo % 2 == 1 or m_lo < m_hi):
                return HALF
            if n * hi_d > hi_n * d:
                hi_n, hi_d = n, d
            elif n * lo_d < lo_n * d:
                lo_n, lo_d = n, d
        prev_ce, prev_fl = ce, fl
    # no value is a half-integer and no segment crosses one, so every value
    # lies in the same band (k - 1/2, k + 1/2), where the distance is |n/d - k|
    k = (prev_fl + 1) // 2
    return max(Fraction(hi_n - k * hi_d, hi_d), Fraction(k * lo_d - lo_n, lo_d))


def _hit_cap(intervals: int, cap: int) -> ResourceCap:
    """The error of a preimage of ``intervals`` intervals whose hits pass
    ``cap``."""
    return ResourceCap(
        f"the preimage of {intervals} intervals reached {cap + 1} intervals "
        f"before merging, above the interval cap {cap}"
    )


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d (d != 0) in lowest terms with a positive denominator, by one
    ``gcd``."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _value_pair(vals, forms, i: int, n: int, d: int) -> tuple[int, int]:
    """``_value_at`` of n/d (d > 0) as an integer pair in lowest terms: the
    stored left value of a flat piece, else the form's value reduced by one
    ``gcd``."""
    a, b, e = forms[i]
    if not b:
        v = vals[i]
        return v.numerator, v.denominator
    return _reduced(a * d + b * n, e * d)


def _point(n: int, d: int) -> Iv:
    """The circle point of the lift value n/d (lowest terms, d > 0), as a
    closed point in [0, 1)."""
    n %= d
    return Iv.from_ints(n, d, True, n, d, True)


def _wrap_lift_interval(
    out: list[Iv], ln: int, ld: int, loc: bool, hn: int, hd: int, hic: bool
) -> None:
    """Append the circle representatives in [0, 1] of the lift interval from
    ln/ld to hn/hd (lowest terms, ln/ld < hn/hd) to ``out``.

    A span of exactly one turn open at both ends misses the one circle point
    mod1(lo); it wraps into [0, x) u (x, 1], or (0, 1) when x is 0.  The
    span and the turn are compared as integers, and each end is an integer
    pair shifted by whole turns, so it stays in lowest terms.
    """
    make = Iv.from_ints
    den = ld * hd
    over = hn * ld - ln * hd - den  # (span - 1) * den
    if over > 0 or not over and (loc or hic):
        out.append(make(0, 1, True, 1, 1, True))
        return
    shift = ln // ld
    ln -= shift * ld
    top = hn - shift * hd  # hi - shift, over hd
    if top < hd:
        out.append(make(ln, ld, loc, top, hd, hic))
    elif top == hd:
        out.append(make(ln, ld, loc, 1, 1, hic))
    else:
        out.append(make(ln, ld, loc, 1, 1, True))
        out.append(make(0, 1, True, top - hd, hd, hic))


@dataclass(frozen=True)
class PeriodicComponent:
    """A maximal solution component of f^n(x) = x: a point or a tangential arc.

    ``minimal_period`` is the least n that fixes it; a fixed-point component
    has 1.
    """

    set: Fraction | Arc
    transversal: bool
    minimal_period: int = 1

    @property
    def is_point(self) -> bool:
        return isinstance(self.set, Fraction)

    @property
    def point(self) -> Fraction:
        if not self.is_point:
            raise ValueError("component is an arc")
        return self.set  # type: ignore[return-value]

    @property
    def arc(self) -> Arc:
        if self.is_point:
            raise ValueError("component is a point")
        return self.set  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Observables


class Observable:
    """Continuous piecewise-linear real function on the circle."""

    __slots__ = ("breakpoints", "values", "_forms", "_hints")

    def __init__(self, breakpoints: Sequence[Fraction], values: Sequence[Fraction]):
        bps, vals, forms, self._hints, _ = _pl_graph(breakpoints, values)
        if vals[0] != vals[-1]:
            raise InvalidInput("observable must close up: value(1) == value(0)")
        self.breakpoints = bps
        self.values = vals
        self._forms = tuple(forms)

    def _walk(self, lo: Fraction, hi: Fraction) -> tuple[list[Fraction], list[Fraction]]:
        """Cuts and values over [lo, hi]; see ``_lift_walk``."""
        bps = self.breakpoints
        return _lift_walk(
            bps, self.values, self._forms, 0, lo, hi,
            _walk_ends(bps, self._hints, lo, hi),
        )

    @staticmethod
    def constant(c: Fraction) -> "Observable":
        return Observable([ZERO, ONE], [c, c])

    @staticmethod
    def tent(center: Fraction) -> "Observable":
        """Peak 1 at ``center``, 0 at the antipode, slopes +-2."""
        c = mod1(as_fraction(center))
        anti = mod1(c + HALF)

        def val(x: Fraction) -> Fraction:
            return ONE - 2 * circle_dist(x, c)

        bset = sorted({ZERO, c, anti})
        bps = bset + [ONE]
        return Observable(bps, [val(b) for b in bps])

    def evaluate(self, x: Fraction) -> Fraction:
        x = mod1(x)
        i = locate(self.breakpoints, self._hints, x.numerator, x.denominator)
        return _value_at(self.values, self._forms, i, x)

    def __call__(self, x: Fraction) -> Fraction:
        return self.evaluate(x)

    @property
    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def range_on_arc(self, arc: Arc) -> tuple[Fraction, Fraction]:
        """Exact (min, max) over the closed arc."""
        cands: list[Fraction] = []
        for lo, hi in arc.intervals() or [(arc.start, arc.start)]:
            cands.extend(self._walk(lo, hi)[1])
        return min(cands), max(cands)

    def oscillation_on_arc(self, arc: Arc) -> Fraction:
        lo, hi = self.range_on_arc(arc)
        return hi - lo

    def integral_on_interval(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact integral over [lo, hi] inside [0, 1]."""
        if lo >= hi:
            return ZERO
        cuts, vals = self._walk(lo, hi)
        total = ZERO
        for i in range(len(cuts) - 1):
            total += (cuts[i + 1] - cuts[i]) * (vals[i] + vals[i + 1]) / 2
        return total
