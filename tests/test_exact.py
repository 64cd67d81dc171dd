import copy
import pickle
import sys
from fractions import Fraction

import pytest

from circledyn import formats
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.exact import (
    Arc,
    IntervalSet,
    Iv,
    circle_dist,
    format_rational,
    mod1,
    parse_rational,
)
from circledyn.measures import CylinderSpec
from circledyn.partitions import family_from_homeo
from circledyn.plmaps import PLCircleMap

F = Fraction


# Words are digit tuples; the level-p cells of the identity chart are their
# intervals [v/ell^p, (v+1)/ell^p), in word order.


def word_intervals(ell: int, p: int) -> tuple[Arc, ...]:
    return family_from_homeo(PLCircleMap.identity(), ell, p).cells(p)


def test_word_concat_mismatched_alphabets():
    # a base-3 digit does not fit the base-2 alphabet
    with pytest.raises(InvalidInput, match=r"word digits \{2\} outside 0..1"):
        CylinderSpec(2, 2, {(0, 1): F(1, 2), (2, 1): F(1, 2)})
    rec = {"ell": 2, "p": 2, "values": {"01": "1/2", "21": "1/2"}}
    with pytest.raises(InvalidInput, match=r"word digits \{2\} outside 0..1"):
        formats.spec_from_record(rec)


def test_word_interval_examples():
    cells = word_intervals(2, 3)
    assert cells[0] == Arc(F(0), F(1, 8))
    assert cells[-1] == Arc(F(7, 8), F(1, 8))
    third = F(1, 3)
    assert word_intervals(3, 1) == (Arc(F(0), third), Arc(third, third), Arc(2 * third, third))


def test_arc_measure_and_membership():
    wrap = Arc(F(3, 4), F(1, 2))
    assert sum(hi - lo for lo, hi in wrap.intervals()) == wrap.length == F(1, 2)
    assert wrap.contains(mod1(F(1, 8)))
    assert not wrap.contains(mod1(F(1, 2)))
    assert not Arc(F(0), F(1, 8)).contains(mod1(F(1, 8)))
    assert Arc(F(0), F(1, 8)).contains(mod1(F(0)))


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 3, 5, 8])
def test_word_intervals_partition_circle(ell, p):
    if ell**p > 100_000:
        pytest.skip("covered by smaller sizes")
    arcs = word_intervals(ell, p)
    assert len(arcs) == ell**p
    assert sum(a.length for a in arcs) == 1
    for i in range(len(arcs) - 1):
        assert arcs[i].end == arcs[i + 1].start
    assert arcs[-1].end == arcs[0].start


def test_word_interval_refinement():
    for ell in (2, 3, 4):
        fam = family_from_homeo(PLCircleMap.identity(), ell, 4)
        for k in range(1, 4):
            children = fam.cells(k + 1)
            # word v (in value order) has the children ell*v .. ell*v + ell - 1
            for v, parent in enumerate(fam.cells(k)):
                kids = children[ell * v : ell * (v + 1)]
                assert parent == Arc(F(v, ell**k), F(1, ell**k))
                assert kids[0].start == parent.start
                assert sum(kid.length for kid in kids) == parent.length
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
        s = IntervalSet([Iv(F(0), True, F(1, 4), True)]).union(
            IntervalSet([Iv(F(1, 4), True, F(1, 2), True)])
        )
        assert len(s.ivs) == 1
        assert s.measure() == F(1, 2)

    def test_open_intervals_do_not_merge_across_missing_point(self):
        s = IntervalSet([Iv(F(0), False, F(1, 4), False)]).union(
            IntervalSet([Iv(F(1, 4), False, F(1, 2), False)])
        )
        assert len(s.ivs) == 2
        assert not s.contains_point(F(1, 4))

    def test_covers_respects_topology(self):
        open_half = IntervalSet([Iv(F(0), False, F(1, 2), False)])
        assert open_half.covers(IntervalSet([Iv(F(1, 8), True, F(3, 8), True)]))
        assert not open_half.covers(IntervalSet([Iv(F(0), True, F(1, 4), True)]))
        assert not open_half.covers(IntervalSet.point(F(1, 2)))

    def test_covers_chains_through_touching_hosts(self):
        s = IntervalSet([Iv(F(0), True, F(1, 4), True)]).union(
            IntervalSet([Iv(F(1, 4), True, F(1, 2), True)])
        ).union(IntervalSet([Iv(F(1, 2), False, F(3, 4), False)]))
        assert s.covers(IntervalSet([Iv(F(1, 8), True, F(1, 2), True)]))
        assert not s.covers(IntervalSet([Iv(F(1, 8), True, F(3, 4), True)]))

    def test_wrap_identification(self):
        s = IntervalSet([Iv(F(3, 4), True, F(1), True)])
        assert s.contains_point(F(0))
        # the interior of an arc that wraps strictly past 0 holds 0 ~ 1
        wrap = Arc(F(3, 4), F(1, 2))
        interior = IntervalSet.from_arcs([wrap], closed=False)
        assert wrap.contains(F(0)) and interior.contains_point(F(0))
        assert interior.covers(
            IntervalSet.from_arcs([Arc(F(7, 8), F(1, 4))], closed=True)
        )
        assert not interior.contains_point(F(3, 4))
        assert not interior.contains_point(F(1, 4))
        assert interior.measure() == F(1, 2)
        ends_at_one = IntervalSet.from_arcs([Arc(F(3, 4), F(1, 4))], closed=False)
        assert not ends_at_one.contains_point(F(0))

    def test_from_arcs_holds_the_closure_or_the_interior_of_each_arc(self):
        wrap, half = Arc(F(7, 8), F(1, 4)), Arc.degenerate(F(1, 2))
        assert IntervalSet.from_arcs([wrap, half], closed=True).ivs == (
            Iv(F(0), True, F(1, 8), True),
            Iv(F(1, 2), True, F(1, 2), True),
            Iv(F(7, 8), True, F(1), True),
        )
        # the open pieces of a wrapping arc are closed at the seam 0 ~ 1, and
        # the interior of a zero-length arc is empty
        assert IntervalSet.from_arcs([wrap, half], closed=False).ivs == (
            Iv(F(0), True, F(1, 8), False),
            Iv(F(7, 8), False, F(1), True),
        )
        assert IntervalSet.from_arcs([Arc.full()], closed=False).ivs == (
            Iv(F(0), False, F(1), False),
        )
        assert IntervalSet.from_arcs([], closed=True).ivs == ()

    @pytest.mark.parametrize("closed", [False, True])
    def test_from_arcs_is_the_union_of_its_arcs(self, closed):
        # overlapping, touching, wrapping, ending at 1, zero-length and full
        arcs = [
            Arc(F(7, 8), F(1, 4)),
            Arc(F(3, 4), F(1, 4)),
            Arc(F(1, 16), F(1, 8)),
            Arc(F(3, 16), F(1, 8)),
            Arc.degenerate(F(5, 16)),
            Arc.degenerate(F(1, 8)),
        ]
        one_by_one = [IntervalSet.from_arcs([a], closed) for a in arcs]
        assert IntervalSet.from_arcs(arcs, closed) == IntervalSet.union_all(one_by_one)
        assert IntervalSet.from_arcs(arcs + [Arc.full()], closed) == IntervalSet.union_all(
            [*one_by_one, IntervalSet.from_arcs([Arc.full()], closed)]
        )

    def test_min_gap(self):
        host = IntervalSet([Iv(F(0), False, F(1, 2), False)])
        inner = IntervalSet([Iv(F(1, 8), True, F(1, 4), True)])
        assert host.min_gap_to_boundary(inner) == F(1, 8)


def test_arc_from_wrapping_has_two_pieces():
    wrap = Arc(F(7, 8), F(1, 4))
    assert wrap.intervals() == [(F(7, 8), F(1)), (F(0), F(1, 8))]
    assert wrap.end == F(1, 8)
    assert wrap.diameter() == F(1, 4)
    assert Arc(F(0), F(3, 4)).diameter() == F(1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Arc(0.5, 0.25),
        lambda: Arc(F(1, 2), 0.25),
        lambda: Arc.make(0.5, F(1, 4)),
        lambda: Arc.make(F(1, 2), 0.25),
        lambda: Iv(0.1, True, 0.2, False),
        lambda: Iv(F(1, 10), True, 0.2, False),
    ],
)
def test_float_ends_are_invalid_input(build):
    # refused at construction, before any interval-set query reads them
    with pytest.raises(InvalidInput, match="floats are not exact rationals"):
        build()


def test_ends_that_are_not_rationals_are_invalid_input():
    with pytest.raises(InvalidInput, match="not a rational number: '1/2'"):
        Arc("1/2", F(1, 4))
    with pytest.raises(InvalidInput, match="not a rational number: None"):
        Iv(F(0), True, None, True)


def test_arcs_and_intervals_are_immutable_values():
    arc, iv = Arc(F(1, 3), F(1, 2)), Iv(F(1, 3), False, F(1, 2), True)
    for v, name in ((arc, "start"), (iv, "hi_closed")):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(v, name, F(0))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(v, name)
        with pytest.raises(AttributeError):
            v.other = 1
        assert copy.copy(v) == v == pickle.loads(pickle.dumps(v))
    assert {arc: 1}[Arc(F(1, 3), F(1, 2))] == 1


def test_format_rational_stops_at_the_digit_limit():
    # a numerator or denominator of `limit` digits is written and read back;
    # one more digit is a ResourceCap that names the sizes
    limit = sys.get_int_max_str_digits()
    widest = F(10**limit - 1, 3)
    assert parse_rational(format_rational(widest)) == widest
    for x in (F(10**limit + 1, 3), F(3, 10**limit + 1)):
        n, d = x.numerator.bit_length(), x.denominator.bit_length()
        with pytest.raises(ResourceCap, match=f"{n}-bit numerator and a {d}-bit denominator"):
            format_rational(x)
