"""Float-decided interval sets, parsing and lift evaluation against the
always-exact code they replaced.

``IntervalSet`` orders, merges and searches its ends by their correctly
rounded floats and compares Fractions only when two floats tie (the rule of
``exact.locate``); ``parse_rational`` reads 'num/den' by an integer split;
``mod1`` and ``PLCircleMap.lift_evaluate`` skip arithmetic with a zero;
``Iv`` and ``Arc`` check their ends, ``Iv.contains`` and ``Arc.intervals``
compare and add them, ``shredder._grid`` builds its values, and
``PLCircleMap.preimage_of_set`` and its index decide and solve, all on the
integer numerators and denominators.  The references below are the
earlier exact versions, kept here as they were apart from taking a tuple
of intervals in place of a set, bare ends in place of an ``Iv`` or an
``Arc``, or the map as an argument; the lift reference finds its piece by
exact bisection.  The inputs stress the float ties: ends k/2^60 + j/2^70
that share one float, points within 2^-70 of an end, values whose float
is 1.0, the seam 0 ~ 1, and every pair of endpoint flags.
"""

from __future__ import annotations

import pickle
import re
import time
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn.errors import InvalidInput
from circledyn.exact import (
    MAX_EXPONENT,
    ONE,
    ZERO,
    Arc,
    IntervalSet,
    Iv,
    as_fraction,
    mod1,
    parse_rational,
)
from circledyn.plmaps import PLCircleMap
from circledyn.shredder import _grid

from conftest import reference_slopes

F = Fraction
TINY = F(1, 2**70)
_LO = attrgetter("lo")
_KEY = itemgetter(0)


# ---------------------------------------------------------------------------
# references


def ref_canonical(items: list[Iv]) -> tuple[Iv, ...]:
    if len(items) < 2:
        return tuple(items)
    items = sorted(items, key=lambda iv: (iv.lo, not iv.lo_closed))
    out: list[Iv] = []
    for iv in items:
        if not out:
            out.append(iv)
            continue
        last = out[-1]
        # merge when overlapping or touching with at least one closed end
        if iv.lo < last.hi or (
            iv.lo == last.hi and (iv.lo_closed or last.hi_closed)
        ):
            if iv.hi > last.hi:
                hi, hic = iv.hi, iv.hi_closed
            elif iv.hi == last.hi:
                hi, hic = last.hi, last.hi_closed or iv.hi_closed
            else:
                hi, hic = last.hi, last.hi_closed
            lo, loc = last.lo, last.lo_closed or (
                iv.lo == last.lo and iv.lo_closed
            )
            out[-1] = Iv(lo, loc, hi, hic)
        else:
            out.append(iv)
    return tuple(out)


def ref_measure(ivs) -> Fraction:
    return sum((iv.hi - iv.lo for iv in ivs), start=ZERO)


def ref_candidate(ivs, x):
    i = bisect_right(ivs, x, key=_LO) - 1
    return ivs[i] if i >= 0 else None


def ref_contains_point(ivs, x) -> bool:
    x = x - (x.numerator // x.denominator)
    host = ref_candidate(ivs, x)
    if host is not None and host.contains(x):
        return True
    if x != ZERO:
        return False
    host = ref_candidate(ivs, ONE)
    return host is not None and host.contains(ONE)


def ref_covers(ivs, other) -> bool:
    return all(ref_covers_iv(ivs, iv) for iv in other)


def ref_covers_iv(ivs, target: Iv) -> bool:
    if target.lo == target.hi:
        return ref_contains_point(ivs, target.lo)
    pos = target.lo
    pos_needed_closed = target.lo_closed
    while True:
        host = ref_candidate(ivs, pos)
        if host is not None and not (
            pos < host.hi
            and (host.lo < pos or host.lo_closed or not pos_needed_closed)
        ):
            host = None
        if host is None:
            if pos_needed_closed and ref_contains_point(ivs, pos):
                pos_needed_closed = False
                continue
            return False
        if host.hi > target.hi:
            return True
        if host.hi == target.hi:
            if host.hi_closed or not target.hi_closed:
                return True
            return target.hi == ONE and ref_contains_point(ivs, ZERO)
        pos = host.hi
        pos_needed_closed = not host.hi_closed


def ref_min_gap(ivs, inner) -> Fraction | None:
    """None when ivs do not cover inner; else the least gap of an inner
    interval to the ends of the last interval of ivs starting at or before
    it, with the seam rule, and 0 for a point 0 or 1 that only the other
    representative covers."""
    if not inner:
        raise ValueError("the gap of an empty set is undefined")
    if not ref_covers(ivs, inner):
        return None
    seam = (
        bool(ivs)
        and ivs[0].lo == ZERO < ivs[0].hi
        and ivs[-1].lo < ONE == ivs[-1].hi
        and (ivs[0].lo_closed or ivs[-1].hi_closed)
    )
    best = None
    for iv in inner:
        host = ref_candidate(ivs, iv.lo)
        if host is None or iv.hi > host.hi:
            gaps = (ZERO,)
        else:
            left, right = iv.lo - host.lo, host.hi - iv.hi
            if seam and host.lo == ZERO:
                left += ONE - ivs[-1].lo
            if seam and host.hi == ONE:
                right += ivs[0].hi
            gaps = (left, right)
        for gap in gaps:
            if best is None or gap < best:
                best = gap
    return best


def ref_iv_check(lo, loc, hi, hic) -> str | None:
    """The message of the ValueError that Iv raised, or None."""
    if lo > hi:
        return "interval endpoints out of order"
    if lo == hi and not (loc and hic):
        return "degenerate interval must be a closed point"
    return None


def ref_iv_contains(lo, loc, hi, hic, x) -> bool:
    if x < lo or x > hi:
        return False
    if x == lo and not loc:
        return False
    if x == hi and not hic:
        return False
    return True


def ref_arc_check(start, length) -> str | None:
    """The message of the ValueError that Arc raised, or None."""
    if not (ZERO <= start < ONE):
        return f"arc start {start} outside [0,1)"
    if not (ZERO <= length <= ONE):
        return f"arc length {length} outside [0,1]"
    return None


def ref_arc_make_check(length) -> str | None:
    if length <= ZERO or length > ONE:
        return f"arc length must lie in (0,1], got {length}"
    return None


def ref_arc_intervals(start, length) -> list[tuple[Fraction, Fraction]]:
    hi = start + length
    if hi <= ONE:
        return [(start, hi)] if length > ZERO else []
    return [(start, ONE), (ZERO, hi - ONE)]


def ref_grid(eps: Fraction, n: int, m: int):
    nm = n * m
    sub_len = Fraction(1, nm)
    delta = eps / (4 * nm)
    half = Fraction(1, 2 * nm)
    rows = []
    for i in range(n):
        row = []
        for k in range(i * m, i * m + m):
            start = Fraction(k, nm)
            row.append((start, start + delta, start + half))
        rows.append(row)
    return delta, sub_len, sub_len - 2 * delta, rows


def _fraction_reads(text: str) -> bool:
    try:
        Fraction(text)
    except ValueError:
        return False
    return True


def ref_parse_rational(text: str) -> Fraction:
    """Fraction's reading, except that a well-formed numeral whose decimal
    exponent is above MAX_EXPONENT is refused before Fraction builds
    10**exponent."""
    try:
        body = text.strip()
        m = re.fullmatch(r"(.*)[eE]([-+]?\d+(?:_\d+)*)", body, re.DOTALL)
        if m and abs(int(m[2])) > MAX_EXPONENT and _fraction_reads(m[1] + "e0"):
            raise InvalidInput(f"exponent of {text!r} is above {MAX_EXPONENT}")
        return Fraction(body)
    except InvalidInput:
        raise
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a rational number: {text!r}") from exc


def ref_mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def ref_lift_evaluate(f: PLCircleMap, t: Fraction) -> Fraction:
    """The affine formula on the piece found by exact bisection."""
    bps = f.breakpoints
    k = t.numerator // t.denominator
    t0 = t - k
    i = min(bisect_right(bps, t0) - 1, len(bps) - 2)
    slope = (f.lift_values[i + 1] - f.lift_values[i]) / (bps[i + 1] - bps[i])
    return f.lift_values[i] + slope * (t0 - bps[i]) + k * f.degree


# ---------------------------------------------------------------------------
# inputs


@st.composite
def tied_ends(draw) -> list[Fraction]:
    """Sorted points of [0, 1] in clusters narrower than the float spacing.

    Each cluster is a centre (k/2^60, a small-denominator rational, 0, or 1)
    plus offsets j/2^70, so its members share one float or straddle two;
    1 - j/2^70 has the float 1.0.  The seam ends 0 and 1 are always there.
    """
    centres = draw(
        st.lists(
            st.one_of(
                st.integers(1, 2**60 - 1).map(lambda k: F(k, 2**60)),
                st.tuples(st.integers(1, 40), st.integers(2, 41))
                .filter(lambda t: t[0] < t[1])
                .map(lambda t: F(*t)),
                st.sampled_from([ZERO, ONE]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True))
    ends = {ZERO, ONE, *(c + j * TINY for c in centres for j in offsets)}
    return sorted(e for e in ends if 0 <= e <= 1)


@st.composite
def tied_ivs(draw, ends) -> list[Iv]:
    """Intervals between the given ends, with every pair of flags and
    single points."""
    ivs = []
    for _ in range(draw(st.integers(0, 7))):
        a, b = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
        if a == b:
            ivs.append(Iv(a, True, a, True))
        else:
            ivs.append(Iv(a, draw(st.booleans()), b, draw(st.booleans())))
    return ivs


@st.composite
def near_points(draw, ends) -> Fraction:
    """An end, a point within 2^-70 of one, a float-1.0 point, 0 or 1."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from([ZERO, ONE]))
    if kind == 1:
        return 1 - draw(st.integers(1, 2**10)) * TINY
    e = draw(st.sampled_from(ends))
    if kind == 2:
        return e
    x = e + draw(st.integers(-(2**10) + 1, 2**10 - 1)) * TINY / 2**10
    return x if 0 <= x <= 1 else e


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_canonical_form_and_union_match_exact_reference(data):
    ends = data.draw(tied_ends())
    parts = [data.draw(tied_ivs(ends)) for _ in range(data.draw(st.integers(1, 3)))]
    items = [iv for part in parts for iv in part]
    want = ref_canonical(list(items))
    assert IntervalSet(items).ivs == want
    assert IntervalSet.union_all(IntervalSet(p) for p in parts).ivs == want
    assert IntervalSet(parts[0]).union(IntervalSet(items)).ivs == want
    assert IntervalSet(items).measure() == ref_measure(want)


def _gap_outcome(gap, *args):
    try:
        return gap(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_queries_match_exact_reference(data):
    ends = data.draw(tied_ends())
    s = IntervalSet(data.draw(tied_ivs(ends)))
    other = IntervalSet(data.draw(tied_ivs(ends)))
    for _ in range(6):
        x = data.draw(near_points(ends))
        assert s.contains_point(x) == ref_contains_point(s.ivs, x)
    for t in (other, *(IntervalSet([iv]) for iv in other.ivs)):
        assert s.covers(t) == ref_covers(s.ivs, t.ivs)
        # the gap is None where s does not cover t
        assert _gap_outcome(s.min_gap_to_boundary, t) == _gap_outcome(
            ref_min_gap, s.ivs, t.ivs
        )


@st.composite
def tied_arcs(draw) -> list[Arc]:
    """Arcs between tied ends: each runs from an end below 1 to another end,
    wrapping past 0 when that end lies below its start; from an end to
    itself it has length 0 or 1."""
    ends = draw(tied_ends())
    arcs = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.sampled_from([e for e in ends if e < 1]))
        end = draw(st.sampled_from(ends))
        length = end - start if end > start else end - start + 1
        if end == start and draw(st.booleans()):
            length = ZERO
        arcs.append(Arc(start, length))
    return arcs


def ref_from_arcs(arcs, closed: bool) -> tuple[Iv, ...]:
    """The union of the arcs' closures or interiors, each split by the
    reference and canonicalised by the reference."""
    items = []
    for a in arcs:
        parts = ref_arc_intervals(a.start, a.length)
        if len(parts) == 2:
            (lo, _), (_, hi) = parts
            items += [Iv(lo, closed, ONE, True), Iv(ZERO, True, hi, closed)]
        elif parts:
            ((lo, hi),) = parts
            items.append(Iv(lo, closed, hi, closed))
        elif closed:
            items.append(Iv(a.start, True, a.start, True))
    return ref_canonical(items)


@settings(max_examples=400, deadline=None)
@given(tied_arcs(), st.booleans())
def test_from_arcs_matches_exact_reference(arcs, closed):
    got = IntervalSet.from_arcs(arcs, closed).ivs
    want = ref_from_arcs(arcs, closed)
    assert got == want
    # intervals built from integers read as those built from Fractions
    for iv, ref in zip(got, want):
        assert repr(iv) == repr(ref) and hash(iv) == hash(ref)
        assert pickle.loads(pickle.dumps(iv)) == iv
        assert iv.__reduce__() == ref.__reduce__() == (Iv, _fields(ref))


def test_iv_reads_as_its_fraction_ends():
    iv = Iv(F(2, 6), False, F(1, 2), True)
    assert repr(iv) == "Iv(lo=Fraction(1, 3), lo_closed=False, hi=Fraction(1, 2), hi_closed=True)"
    assert type(iv.lo) is type(iv.hi) is Fraction
    assert iv == Iv(F(1, 3), False, F(1, 2), True) != Iv(F(1, 3), True, F(1, 2), True)
    assert hash(iv) == hash((F(1, 3), False, F(1, 2), True))
    assert pickle.loads(pickle.dumps(iv)) == iv
    assert str(IntervalSet([iv, Iv(ZERO, True, ZERO, True)])) == "IntervalSet([0,0] u (1/3,1/2])"


def test_tied_ends_are_ordered_exactly():
    # five ends share the float of 1/3; a float tie decides nothing
    c = F(1, 3)
    lo, mid, hi = c - TINY, c, c + TINY
    assert float(lo) == float(mid) == float(hi)
    s = IntervalSet([Iv(mid, False, hi, True), Iv(lo, True, mid, False)])
    assert s.ivs == (Iv(lo, True, mid, False), Iv(mid, False, hi, True))
    assert not s.contains_point(mid)
    assert s.contains_point(mid - TINY / 2) and s.contains_point(mid + TINY / 2)
    assert not s.covers(IntervalSet([Iv(lo, True, hi, True)]))
    assert IntervalSet([Iv(lo, True, mid, True), Iv(mid, False, hi, True)]).ivs == (
        Iv(lo, True, hi, True),
    )


PARSE_CASES = [
    "1/2", " 1/2", "1/2 ", "\t3/4\n", "1/-2", "1 / 2", "1/ 2", "1 /2", "+3/4",
    "-3/4", "--3/4", "+-3/4", "-0/5", "1_0/3", "10/3_0", "1__0/3", "1e3",
    "1.5", "1.5/2", "3", "-3", "1/0", "0/0", "-1/0", "/2", "1/", "+/2", "",
    " ", "1//2", "1/2/3", "0x1/2", "١/٢", "²/3", "1/²",
    "007/010", "inf", "nan", "1/2 x",
    # Fraction would build 10**exponent: an exponent above MAX_EXPONENT is
    # refused unless the text is malformed anyway
    "1e4300", "-1.5E-4300", "1e4301", "1e99999999", "1e-99999999", "2E+4_301",
    ".5e1_0000", "e10000", "1/2e9999", "1e__9999", "1e9999e1", "1ee9999",
]


def _outcome(parse, text):
    try:
        value = parse(text)
    except InvalidInput as exc:
        return "InvalidInput", str(exc)
    return type(value), value


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_rational_matches_fraction(text):
    assert _outcome(parse_rational, text) == _outcome(ref_parse_rational, text)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.sampled_from(list("0123456789+-/_ .e١²")),
        max_size=10,
    ).map("".join)
)
def test_parse_rational_matches_fraction_on_any_text(text):
    assert _outcome(parse_rational, text) == _outcome(ref_parse_rational, text)


@pytest.mark.parametrize("text", PARSE_CASES)
def test_as_fraction_reads_text_by_parse_rational(text):
    assert _outcome(as_fraction, text) == _outcome(parse_rational, text)


@pytest.mark.parametrize("text", ["1E+9999999", "1E-9999999", "Infinity", "NaN", "sNaN"])
def test_as_fraction_refuses_decimals_at_once(text):
    # Fraction(Decimal("1E+9999999")) would first build 10**9999999
    start = time.perf_counter()
    with pytest.raises(InvalidInput):
        as_fraction(Decimal(text))
    assert time.perf_counter() - start < 1
    assert _outcome(as_fraction, Decimal(text)) == _outcome(parse_rational, text)


@pytest.mark.parametrize(
    "text, value", [("0.1", F(1, 10)), ("-0", ZERO), ("1.5E+3", F(1500)), ("7", F(7))]
)
def test_as_fraction_reads_a_decimal_as_its_text(text, value):
    x = as_fraction(Decimal(text))
    assert type(x) is Fraction and x == value


def test_decimal_coordinates_are_invalid_input_not_overflow():
    with pytest.raises(InvalidInput):
        PLCircleMap([0, Decimal("Infinity")], [0, 1])


def test_parse_rational_rejects_what_is_not_text():
    for value in (None, 3, F(1, 2)):
        assert _outcome(parse_rational, value) == _outcome(ref_parse_rational, value)


rationals = st.one_of(
    st.fractions(),
    st.integers(-(2**80), 2**80).map(F),
    st.tuples(st.integers(-5, 5), st.integers(1, 2**10)).map(
        lambda t: t[0] + 1 - t[1] * TINY
    ),
)


@settings(max_examples=500, deadline=None)
@given(rationals)
def test_mod1_matches_exact_reference(x):
    r = mod1(x)
    assert type(r) is Fraction and r == ref_mod1(x)
    assert 0 <= r < 1


@st.composite
def plateau_maps(draw) -> PLCircleMap:
    """PL maps of degree -2..3 with plateaus and breakpoints in float-tied
    clusters."""
    inner = [e for e in draw(tied_ends()) if 0 < e < 1]
    bps = [ZERO, *inner, ONE]
    vals = [F(draw(st.integers(-60, 60)), 20)]
    for _ in bps[1:]:
        if draw(st.integers(0, 2)) == 0:
            vals.append(vals[-1])
        else:
            vals.append(F(draw(st.integers(-60, 60)), 20) + draw(st.integers(-3, 3)) * TINY)
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return PLCircleMap(bps, vals)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lift_evaluate_matches_exact_reference(data):
    f = data.draw(plateau_maps())
    ends = list(f.breakpoints)
    for _ in range(6):
        t = data.draw(near_points(ends)) + data.draw(st.integers(-3, 3))
        assert f.lift_evaluate(t) == ref_lift_evaluate(f, t)
        assert f.evaluate(t) == ref_mod1(ref_lift_evaluate(f, ref_mod1(t)))


# ---------------------------------------------------------------------------
# Iv and Arc on integers, and the shredding grid


@st.composite
def exact_ends(draw) -> list:
    """Ends for intervals and arcs, sorted by value.

    Clusters k/2^60 + j/2^70 that share a float, small rationals, negative
    ends and ends above 1, the complement 1 - e of each end (so that a
    start and a length can add up to exactly 1), and ints next to the
    Fractions of the same value.
    """
    centres = draw(
        st.lists(
            st.one_of(
                st.integers(-(2**60), 2**61).map(lambda k: F(k, 2**60)),
                st.tuples(st.integers(-40, 80), st.integers(1, 41)).map(lambda t: F(*t)),
                st.sampled_from([ZERO, ONE]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    ends = {c + j * TINY for c in centres for j in offsets}
    ends |= {1 - e for e in ends}
    ints = draw(st.lists(st.integers(-2, 3), max_size=3))
    return sorted([*ends, *ints, *map(F, ints)])


def _made(make, *args):
    """The value built, or the message of the ValueError raised."""
    try:
        return make(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _fields(v) -> tuple:
    if isinstance(v, Iv):
        return v.lo, v.lo_closed, v.hi, v.hi_closed
    return v.start, v.length


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_iv_checks_and_contains_match_fraction_reference(data):
    ends = data.draw(exact_ends())
    pick = st.sampled_from(ends)
    points = [*ends, *(e + d for e in ends for d in (-TINY / 2, TINY / 2))]
    for _ in range(8):
        lo, hi = data.draw(pick), data.draw(pick)
        loc, hic = data.draw(st.booleans()), data.draw(st.booleans())
        iv = _made(Iv, lo, loc, hi, hic)
        want = ref_iv_check(lo, loc, hi, hic)
        if want is not None:
            assert iv == ("ValueError", want)
            continue
        assert _fields(iv) == (lo, loc, hi, hic)
        # the ends are stored as their integers in lowest terms
        assert (iv.ln, iv.ld, iv.hn, iv.hd) == (
            F(lo).numerator, F(lo).denominator, F(hi).numerator, F(hi).denominator
        )
        for x in points:
            assert iv.contains(x) == ref_iv_contains(lo, loc, hi, hic, x)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_arc_checks_and_intervals_match_fraction_reference(data):
    ends = data.draw(exact_ends())
    pick = st.sampled_from(ends)
    for _ in range(8):
        start, length = data.draw(pick), data.draw(pick)
        arc = _made(Arc, start, length)
        want = ref_arc_check(start, length)
        if want is not None:
            assert arc == ("ValueError", want)
        else:
            assert _fields(arc) == (start, length)
            assert arc.start is start and arc.length is length
            assert arc.intervals() == ref_arc_intervals(start, length)
        made = _made(Arc.make, start, length)
        want = ref_arc_make_check(length)
        if want is not None:
            assert made == ("ValueError", want)
        else:
            assert _fields(made) == (ref_mod1(F(start)), length)


@pytest.mark.parametrize("loc, hic", [(a, b) for a in (False, True) for b in (False, True)])
@pytest.mark.parametrize(
    "lo, hi",
    [
        (F(1, 3), F(1, 3)),
        (F(1, 3) + TINY, F(1, 3) + TINY),
        (F(-5, 2), F(-5, 2)),
        (F(7, 3), F(7, 3)),
        (0, F(0)),
        (F(1), 1),
        (-2, -2),
    ],
)
def test_equal_ends_with_every_flag_pair(lo, hi, loc, hic):
    want = ref_iv_check(lo, loc, hi, hic)
    iv = _made(Iv, lo, loc, hi, hic)
    if want is None:
        assert _fields(iv) == (lo, loc, hi, hic)
        assert iv.contains(lo) and not iv.contains(lo + TINY)
    else:
        assert iv == ("ValueError", want)


def test_arc_ends_that_add_up_to_one():
    # start + length = 1 exactly stays one piece; 2^-70 more wraps
    for start, length in [(F(3, 4), F(1, 4)), (1 - TINY, TINY), (0, 1), (F(0), F(1))]:
        assert Arc(start, length).intervals() == ref_arc_intervals(start, length)
        assert len(Arc(start, length).intervals()) == 1
        assert Arc.make(start, length) == Arc(start, length)
    wrap = Arc(F(3, 4), F(1, 4) + TINY)
    assert wrap.intervals() == [(F(3, 4), ONE), (ZERO, TINY)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_iv_and_arc_equality_hash_and_repr_follow_their_fields(data):
    ends = [e for e in data.draw(exact_ends()) if 0 <= e <= 1]
    pick = st.sampled_from([*ends, 0, 1, ZERO, ONE])
    values = []
    for _ in range(6):
        lo, hi = sorted([data.draw(pick), data.draw(pick)])
        flags = (True, True) if lo == hi else (data.draw(st.booleans()), data.draw(st.booleans()))
        values.append(Iv(lo, flags[0], hi, flags[1]))
        start, length = data.draw(pick), data.draw(pick)
        if start < 1:
            values.append(Arc(start, length))
    for v in values:
        fields = _fields(v)
        assert hash(v) == hash(fields)
        names = ("lo", "lo_closed", "hi", "hi_closed") if isinstance(v, Iv) else ("start", "length")
        shown = ", ".join(f"{n}={x!r}" for n, x in zip(names, fields))
        assert repr(v) == f"{type(v).__name__}({shown})"
        for w in values:
            same = type(v) is type(w) and fields == _fields(w)
            assert (v == w) == same and (v != w) == (not same)
            if same:
                assert hash(v) == hash(w)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        st.integers(1, 2**70 - 1).map(lambda k: F(k, 2**70)),
    ).filter(lambda e: 0 < e < 1),
    st.integers(1, 6),
    st.integers(2, 6),
)
def test_grid_matches_fraction_sums(eps, n, m):
    assert _grid(eps, n, m) == ref_grid(eps, n, m)


# ---------------------------------------------------------------------------
# preimages on integers


def ref_preimage_index(f: PLCircleMap):
    """The piece index of ``preimage_of_set`` on Fractions: each piece's
    lift values ordered by ``sorted``, and the span kept by ``max``."""
    vals = f.lift_values
    entries = []
    span = ZERO
    for i in range(len(vals) - 1):
        lo, hi = sorted(vals[i : i + 2])
        span = max(span, hi - lo)
        n, d = lo.numerator, lo.denominator
        entries.extend(
            ((n - k * d) / d, i, k)
            for k in range(-(-n // d) - 1, hi.numerator // hi.denominator + 1)
        )
    entries.sort()
    return entries, span


def ref_preimage_of_set(f: PLCircleMap, s: IntervalSet) -> IntervalSet:
    """Each candidate tested by Fraction comparisons and solved by Fraction
    arithmetic, then clipped to its piece."""
    ivs = s.ivs
    if not ivs:
        return IntervalSet()
    entries, span = ref_preimage_index(f)
    bps, vals = f.breakpoints, f.lift_values
    slopes = reference_slopes(bps, vals)
    out: list[Iv] = []
    for iv in ivs:
        first = bisect_left(entries, float(iv.lo - span), key=_KEY)
        stop = bisect_right(entries, float(iv.hi), key=_KEY)
        for _, i, k in entries[first:stop]:
            fa, fb = vals[i], vals[i + 1]
            lo_v, hi_v = (fa, fb) if fa <= fb else (fb, fa)
            if lo_v - k > iv.hi or hi_v - k < iv.lo:
                continue
            a, b = bps[i], bps[i + 1]
            slope = slopes[i]
            if slope == 0:
                if iv.contains(fa - k):
                    out.append(Iv(a, True, b, True))
                continue
            t1 = a + (iv.lo + k - fa) / slope
            t2 = a + (iv.hi + k - fa) / slope
            if slope > 0:
                plo, ploc, phi, phic = t1, iv.lo_closed, t2, iv.hi_closed
            else:
                plo, ploc, phi, phic = t2, iv.hi_closed, t1, iv.lo_closed
            if plo < a:
                plo, ploc = a, True
            if phi > b:
                phi, phic = b, True
            if plo > phi or (plo == phi and not (ploc and phic)):
                continue
            out.append(Iv(plo, ploc, phi, phic))
    return IntervalSet(out)


@st.composite
def preimage_maps(draw) -> PLCircleMap:
    """PL maps of degree -2..3 whose lift values sit in clusters c + j/2^70
    plus a few turns, around centres k/2^60, small rationals and integers.

    Repeated values make plateaus, at integer heights among others; values
    drawn apart give slopes of both signs and pieces whose lift range spans
    several turns, and values of one cluster share a float.
    """
    inner = [e for e in draw(tied_ends()) if 0 < e < 1]
    bps = [ZERO, *inner, ONE]
    centres = draw(
        st.lists(
            st.one_of(
                st.integers(1, 2**60 - 1).map(lambda k: F(k, 2**60)),
                st.tuples(st.integers(-40, 40), st.integers(1, 12)).map(lambda t: F(*t)),
                st.integers(-2, 2).map(F),
            ),
            min_size=1,
            max_size=3,
        )
    )
    value = st.builds(
        lambda c, j, turn: c + j * TINY + turn,
        st.sampled_from(centres),
        st.sampled_from([0, 0, -3, -1, 1, 2]),
        st.integers(-3, 3),
    )
    vals = [draw(value)]
    for _ in bps[1:]:
        vals.append(vals[-1] if draw(st.integers(0, 3)) == 0 else draw(value))
    vals[-1] = vals[0] + draw(st.integers(-2, 3))
    return PLCircleMap(bps, vals)


@st.composite
def preimage_ends(draw, f: PLCircleMap) -> list[Fraction]:
    """Tied ends, 0 and 1, f's lift values taken mod 1, and points within
    2^-70 of those."""
    ends = set(draw(tied_ends()))
    for v in f.lift_values:
        x = ref_mod1(v)
        ends.update(x + j * TINY for j in (-1, 0, 1))
    return sorted(e for e in ends if 0 <= e <= 1)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_preimage_matches_fraction_reference(data):
    f = data.draw(preimage_maps())
    assert f._preimage_index() == ref_preimage_index(f)
    ends = data.draw(preimage_ends(f))
    for _ in range(4):
        s = IntervalSet(data.draw(tied_ivs(ends)))
        assert f.preimage_of_set(s) == ref_preimage_of_set(f, s)


# a rising piece over three turns, a falling one, a plateau at the integer
# height 1 and a plateau at 1/2
FLAG_MAP = PLCircleMap(
    [ZERO, F(1, 4), F(1, 2), F(5, 8), F(3, 4), ONE],
    [F(1, 2), F(7, 2), F(1), F(1), F(1, 2), F(3, 2)],
)


@pytest.mark.parametrize("loc, hic", [(a, b) for a in (False, True) for b in (False, True)])
@pytest.mark.parametrize(
    "lo, hi",
    [(ZERO, ONE), (ZERO, F(1, 2)), (F(1, 2), ONE), (F(1, 4), F(3, 4)), (ZERO, TINY)],
)
def test_preimage_of_every_flag_pair_matches_fraction_reference(lo, hi, loc, hic):
    s = IntervalSet([Iv(lo, loc, hi, hic)])
    assert FLAG_MAP.preimage_of_set(s) == ref_preimage_of_set(FLAG_MAP, s)


@pytest.mark.parametrize("x", [ZERO, F(1, 2), ONE, TINY, 1 - TINY, F(1, 3)])
def test_preimage_of_a_point_matches_fraction_reference(x):
    s = IntervalSet.point(x)
    assert FLAG_MAP.preimage_of_set(s) == ref_preimage_of_set(FLAG_MAP, s)
