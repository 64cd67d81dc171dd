"""Record round trips: reading back a written record gives the same value,
and writing that value again gives the same bytes."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import formats
from circledyn.expanding import wicked_perturb
from circledyn.measures import CylinderSpec
from circledyn.partitions import family_from_homeo

from test_family_views import pl_homeos
from test_measure_queries import probability_measures

F = Fraction


@settings(max_examples=200, deadline=None)
@given(probability_measures())
def test_measure_record_round_trip(mu):
    text = formats.dumps(formats.measure_to_record(mu))
    back = formats.measure_from_record(json.loads(text))
    assert back == mu
    assert formats.dumps(formats.measure_to_record(back)) == text


@st.composite
def sparse_specs(draw) -> CylinderSpec:
    """A spec over 2 to 36 letters with a few positive words."""
    ell = draw(st.integers(2, 36))
    level = draw(st.integers(1, 3))
    word = st.tuples(*[st.integers(0, ell - 1)] * level)
    words = draw(st.lists(word, min_size=1, max_size=8, unique=True))
    weights = [F(draw(st.integers(1, 50)), draw(st.integers(1, 7))) for _ in words]
    total = sum(weights)
    return CylinderSpec(ell, level, {w: x / total for w, x in zip(words, weights)})


@settings(max_examples=200, deadline=None)
@given(sparse_specs())
def test_spec_record_round_trip(spec):
    text = formats.dumps(formats.spec_to_record(spec))
    back = formats.spec_from_record(json.loads(text))
    assert back == spec
    assert formats.dumps(formats.spec_to_record(back)) == text


def _check_family(fam):
    text = formats.dumps(formats.family_to_record(fam))
    back = formats.family_from_record(json.loads(text))
    assert (back.ell, back.basepoint) == (fam.ell, fam.basepoint)
    # the same words in the same order, with the same positions and lengths
    assert [list(t.items()) for t in back.tables] == [
        list(t.items()) for t in fam.tables
    ]
    assert formats.dumps(formats.family_to_record(back)) == text


@settings(max_examples=60, deadline=None)
@given(pl_homeos(), st.sampled_from([(2, 1), (2, 4), (3, 3), (4, 2)]))
def test_family_record_round_trip(h, ell_depth):
    _check_family(family_from_homeo(h, *ell_depth))


@st.composite
def degenerate_targets(draw) -> CylinderSpec:
    """A target with an empty cylinder: a Dirac mass or a Bernoulli table
    with one digit of probability 0."""
    ell = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(1, 2))
    if draw(st.booleans()):
        return CylinderSpec.dirac_zero(ell, p)
    weights = [draw(st.integers(1, 5)) for _ in range(ell)]
    weights[draw(st.integers(0, ell - 1))] = 0
    return CylinderSpec.bernoulli([F(w, sum(weights)) for w in weights], p)


@settings(max_examples=40, deadline=None)
@given(pl_homeos(), degenerate_targets(), st.sampled_from([F(1, 2), F(1, 3)]))
def test_degenerate_wicked_family_record_round_trip(h, target, eps):
    n0 = 1
    while F(1, target.ell**n0) > eps:
        n0 += 1
    res = wicked_perturb(h, target.ell, target, eps, n0 + target.level + 1)
    assert res.is_degenerate
    _check_family(res)
