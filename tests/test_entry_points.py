"""Library entry points read their rationals by ``exact.as_fraction`` and
their counts by ``exact.as_count``.

A float is never an exact rational and a malformed string is no rational
at all; a count is an ``int`` of at least 1 (2 for an alphabet size, 0 for
a push-forward iterate), and neither 2.5 nor ``True`` is one.  Each must end as ``InvalidInput`` naming the value, before any
work is done.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from circledyn.classifier import WProtocol, rotation_number
from circledyn.cli import main
from circledyn.errors import InvalidInput
from circledyn.expanding import expanding_map, rotation_companions, wicked_perturb
from circledyn.measures import CircleMeasure, CylinderSpec, cesaro, dirac_periodic
from circledyn.partitions import family_from_homeo
from circledyn.exact import IntervalSet
from circledyn.plmaps import Observable, PLCircleMap
from circledyn.shredder import ShredConfig, birkhoff_gap_bound, shred, verify_shredding

F = Fraction


def _birkhoff(x=None, n=10):
    """The bracket at x, by default a point of the first cycle set."""
    g, report = shred(expanding_map(2), F(1, 5))
    if x is None:
        x = report.cycles[report.regions[0].label][0].midpoint
    return birkhoff_gap_bound(g, report, Observable.tent(F(1, 2)), x, n)


def _verify(cap):
    """verify_shredding of the doubling map's certificate at eps 1/5, whose
    item v(c) takes the plateau route and reads no preimage."""
    g, report = shred(expanding_map(2), F(1, 5))
    return verify_shredding(g, report, preimage_interval_cap=cap)


def _wicked(eps, n):
    target = CylinderSpec.dirac_zero(2, 1)
    return wicked_perturb(PLCircleMap.identity(), 2, target, eps, n)


# ---------------------------------------------------------------------------
# rationals


RATIONAL_READERS = {
    "shred eps": lambda v: shred(expanding_map(2), v),
    "wicked_perturb eps": lambda v: _wicked(v, 8),
    "dirac_periodic p": lambda v: dirac_periodic(expanding_map(2), v, 2),
    "birkhoff_gap_bound x": _birkhoff,
    "WProtocol tol": lambda v: WProtocol(tol=v),
}


@pytest.mark.parametrize(
    "value, message",
    [
        (0.1, "floats are not exact rationals: 0.1"),
        ("one half", "not a rational number: 'one half'"),
    ],
)
@pytest.mark.parametrize("reader", list(RATIONAL_READERS))
def test_a_rational_that_is_not_exact_is_invalid(reader, value, message):
    with pytest.raises(InvalidInput, match=message):
        RATIONAL_READERS[reader](value)


def test_protocol_reads_its_rationals():
    p = WProtocol(tol="1/2")
    assert p.tol == F(1, 2) and type(p.tol) is Fraction


@pytest.mark.parametrize(
    "field, value, message",
    [("horizons", 5, "horizons must be a sequence of integers, got 5")],
)
def test_a_protocol_field_that_is_no_sequence_is_invalid(field, value, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        WProtocol(**{field: value})


def test_a_rational_string_is_read_exactly():
    _, report = shred(expanding_map(2), "1/5")
    assert report.eps == F(1, 5)
    assert dirac_periodic(expanding_map(2), "1/3", 2) == dirac_periodic(
        expanding_map(2), F(1, 3), 2
    )


# ---------------------------------------------------------------------------
# counts


COUNT_READERS = [
    pytest.param("max period", lambda n: WProtocol(max_period=n, horizons=(5,)), id="max_period"),
    pytest.param(
        "max period",
        lambda n: rotation_number(PLCircleMap.rotation(F(2, 5)), n),
        id="rotation_number",
    ),
    pytest.param(
        "cesaro horizon",
        lambda n: cesaro(expanding_map(2), CircleMeasure.lebesgue(), n),
        id="cesaro",
    ),
    pytest.param(
        "measure complexity cap",
        lambda n: cesaro(expanding_map(2), CircleMeasure.lebesgue(), 1, complexity_cap=n),
        id="cesaro-complexity_cap",
    ),
    pytest.param("horizon", lambda n: _birkhoff(n=n), id="birkhoff_gap_bound"),
    pytest.param(
        "cell count",
        lambda n: shred(expanding_map(2), F(1, 2), ShredConfig(cells=n)),
        id="ShredConfig-cells",
    ),
    pytest.param(
        "subdivision count",
        lambda n: shred(expanding_map(2), F(1, 2), ShredConfig(subdivisions=n)),
        id="ShredConfig-subdivisions",
    ),
    pytest.param(
        "period", lambda n: dirac_periodic(expanding_map(2), F(1, 3), n), id="dirac_periodic"
    ),
    pytest.param("cylinder level", lambda n: CylinderSpec.lebesgue(2, n), id="CylinderSpec"),
    pytest.param(
        "depth", lambda n: family_from_homeo(PLCircleMap.identity(), 2, n), id="family_from_homeo"
    ),
    pytest.param(
        "horizon",
        lambda n: family_from_homeo(PLCircleMap.identity(), 2, 3).cesaro_spec(n, 1),
        id="cesaro_spec",
    ),
    pytest.param("window end n", lambda n: _wicked(F(1, 4), n), id="wicked_perturb"),
    pytest.param(
        "orbit length", lambda n: PLCircleMap.identity().orbit(F(1, 3), n), id="orbit"
    ),
    pytest.param(
        "cylinder level",
        lambda n: family_from_homeo(PLCircleMap.identity(), 2, 3).cylinder_pushforward(0, n),
        id="cylinder_pushforward-p",
    ),
]

# size caps, read as counts before any work
CAP_READERS = [
    pytest.param("preimage interval cap", _verify, id="verify_shredding"),
    pytest.param(
        "preimage interval cap",
        lambda n: expanding_map(2).preimage_of_set(IntervalSet.point(F(1, 3)), n),
        id="preimage_of_set",
    ),
]
COUNT_READERS += CAP_READERS


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("what, read", COUNT_READERS)
def test_a_count_that_is_not_an_int_is_invalid(what, read, value):
    with pytest.raises(InvalidInput, match=f"^{what} must be an integer, got {value!r}$"):
        read(value)


@pytest.mark.parametrize("what, read", COUNT_READERS)
def test_a_count_below_one_is_invalid(what, read):
    with pytest.raises(InvalidInput, match=f"^{what} must be >= 1, got 0$"):
        read(0)


@pytest.mark.parametrize("what, read", CAP_READERS)
def test_a_negative_cap_is_invalid(what, read):
    with pytest.raises(InvalidInput, match=f"^{what} must be >= 1, got -1$"):
        read(-1)


# counts whose least value is not 1: an alphabet has at least two letters,
# and the 0-th push-forward is the chart's own cylinder table
FLOORED_READERS = [
    pytest.param("alphabet size", 2, lambda n: CylinderSpec.lebesgue(n, 1), id="CylinderSpec"),
    pytest.param(
        "alphabet size", 2,
        lambda n: family_from_homeo(PLCircleMap.identity(), n, 1),
        id="family_from_homeo",
    ),
    pytest.param(
        "alphabet size", 2,
        lambda n: wicked_perturb(PLCircleMap.identity(), n, CylinderSpec.dirac_zero(2, 1), F(1, 4), 8),
        id="wicked_perturb",
    ),
    pytest.param(
        "alphabet size", 2,
        lambda n: rotation_companions(PLCircleMap.identity(), n),
        id="rotation_companions",
    ),
    pytest.param(
        "push-forward iterate q", 0,
        lambda n: family_from_homeo(PLCircleMap.identity(), 2, 3).cylinder_pushforward(n, 1),
        id="cylinder_pushforward-q",
    ),
]


@pytest.mark.parametrize("value", [2.5, 1.5, True])
@pytest.mark.parametrize("what, least, read", FLOORED_READERS)
def test_a_floored_count_that_is_not_an_int_is_invalid(what, least, read, value):
    with pytest.raises(InvalidInput, match=f"^{what} must be an integer, got {value!r}$"):
        read(value)


@pytest.mark.parametrize("what, least, read", FLOORED_READERS)
def test_a_count_below_its_floor_is_invalid(what, least, read):
    with pytest.raises(InvalidInput, match=f"^{what} must be >= {least}, got {least - 1}$"):
        read(least - 1)
    read(least)


# ---------------------------------------------------------------------------
# settings that are module constants, not arguments


def test_fixed_settings_take_no_argument():
    with pytest.raises(TypeError, match="battery_centers"):
        WProtocol(battery_centers=(F(0),))
    assert WProtocol().battery_centers == tuple(F(j, 8) for j in range(8))
    with pytest.raises(TypeError, match="max_breakpoints"):
        expanding_map(2).compose(expanding_map(2), max_breakpoints=10)
    argv = ["wicked", "h.json", "t.json", "--ell", "2", "--eps", "1/4", "--n", "8",
            "--family-dump-depth-cap", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
