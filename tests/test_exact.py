from fractions import Fraction
from itertools import product

import pytest

from circledyn.exact import (
    Arc,
    IntervalSet,
    Word,
    circle_dist,
    mod1,
)

F = Fraction


def test_word_concat_examples():
    a = Word.from_string("010", 2)
    b = Word.from_string("11", 2)
    assert str(Word(2, a.digits + b.digits)) == "01011"
    assert Word(8, Word(8, ()).digits + Word.from_string("7", 8).digits).digits == (7,)
    c, d = Word.from_string("21", 3), Word.from_string("02", 3)
    assert str(Word(3, c.digits + d.digits)) == "2102"


def test_word_concat_mismatched_alphabets():
    # a base-3 digit does not fit the base-2 alphabet
    with pytest.raises(ValueError):
        Word(2, Word.from_string("01", 2).digits + Word.from_string("21", 3).digits)


def test_word_interval_examples():
    assert Word.from_string("000", 2).interval() == Arc(F(0), F(1, 8))
    assert Word.from_string("111", 2).interval() == Arc(F(7, 8), F(1, 8))
    assert Word(3, ()).interval() == Arc(F(0), F(1))


def test_arc_measure_and_membership():
    assert Arc(F(0), F(1, 8)).measure == F(1, 8)
    wrap = Arc(F(3, 4), F(1, 2))
    assert wrap.contains(mod1(F(1, 8)))
    assert not wrap.contains(mod1(F(1, 2)))
    assert not Arc(F(0), F(1, 8)).contains(mod1(F(1, 8)))
    assert Arc(F(0), F(1, 8)).contains(mod1(F(0)))


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 3, 5, 8])
def test_word_intervals_partition_circle(ell, p):
    if ell**p > 100_000:
        pytest.skip("covered by smaller sizes")
    arcs = [Word(ell, d).interval() for d in product(range(ell), repeat=p)]
    assert sum(a.length for a in arcs) == 1
    for i in range(len(arcs) - 1):
        assert arcs[i].end == arcs[i + 1].start
    assert arcs[-1].end == arcs[0].start


def test_word_interval_refinement():
    for ell in (2, 3):
        for d in product(range(ell), repeat=3):
            w = Word(ell, d)
            parent = w.interval()
            kids = [Word(ell, d + (c,)).interval() for c in range(ell)]
            assert kids[0].start == parent.start
            assert sum(k.length for k in kids) == parent.length
            for i in range(len(kids) - 1):
                assert kids[i].end == kids[i + 1].start


def test_rational_arithmetic_exact(rng):
    for _ in range(200):
        a = F(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        b = F(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        assert (a + b) - b == a


def test_circle_dist():
    assert circle_dist(F(0), F(3, 4)) == F(1, 4)
    assert circle_dist(F(1, 8), F(7, 8)) == F(1, 4)
    assert circle_dist(F(1, 3), F(1, 3)) == 0
    assert mod1(F(-1, 4)) == F(3, 4)


class TestIntervalSet:
    def test_union_merges_touching_closed(self):
        s = IntervalSet.closed(F(0), F(1, 4)).union(
            IntervalSet.closed(F(1, 4), F(1, 2))
        )
        assert len(s.ivs) == 1
        assert s.measure() == F(1, 2)

    def test_open_intervals_do_not_merge_across_missing_point(self):
        s = IntervalSet.open(F(0), F(1, 4)).union(
            IntervalSet.open(F(1, 4), F(1, 2))
        )
        assert len(s.ivs) == 2
        assert not s.contains_point(F(1, 4))

    def test_covers_respects_topology(self):
        open_half = IntervalSet.open(F(0), F(1, 2))
        assert open_half.covers(IntervalSet.closed(F(1, 8), F(3, 8)))
        assert not open_half.covers(IntervalSet.closed(F(0), F(1, 4)))
        assert not open_half.covers(IntervalSet.point(F(1, 2)))

    def test_covers_chains_through_touching_hosts(self):
        s = IntervalSet.closed(F(0), F(1, 4)).union(
            IntervalSet.closed(F(1, 4), F(1, 2))
        ).union(IntervalSet.open(F(1, 2), F(3, 4)))
        assert s.covers(IntervalSet.closed(F(1, 8), F(1, 2)))
        assert not s.covers(IntervalSet.closed(F(1, 8), F(3, 4)))

    def test_wrap_identification(self):
        s = IntervalSet.closed(F(3, 4), F(1))
        assert s.contains_point(F(0))
        # the interior of an arc that wraps strictly past 0 holds 0 ~ 1
        wrap = Arc(F(3, 4), F(1, 2))
        interior = IntervalSet.from_arc_open(wrap)
        assert wrap.contains(F(0)) and interior.contains_point(F(0))
        assert interior.covers(IntervalSet.from_arc_closed(Arc(F(7, 8), F(1, 4))))
        assert not interior.contains_point(F(3, 4))
        assert not interior.contains_point(F(1, 4))
        assert interior.measure() == F(1, 2)
        ends_at_one = IntervalSet.from_arc_open(Arc(F(3, 4), F(1, 4)))
        assert not ends_at_one.contains_point(F(0))

    def test_min_gap(self):
        host = IntervalSet.open(F(0), F(1, 2))
        inner = IntervalSet.closed(F(1, 8), F(1, 4))
        assert host.min_gap_to_boundary(inner) == F(1, 8)


def test_arc_from_wrapping_has_two_pieces():
    wrap = Arc(F(7, 8), F(1, 4))
    assert wrap.intervals() == [(F(7, 8), F(1)), (F(0), F(1, 8))]
    assert wrap.end == F(1, 8)
    assert wrap.diameter() == F(1, 4)
    assert Arc(F(0), F(3, 4)).diameter() == F(1, 2)
