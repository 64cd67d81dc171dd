"""The record writer and the fields it derives.

``formats.dumps`` writes exactly the text of the ``json`` module's
``indent=1`` call, kept here as the reference; the grid fields of a report
record equal the strings of the grid built from Fractions; and
``parse_rational`` reads each text that takes its digits-slash-digits path,
or just misses it, with the value or the refusal it has always had.
"""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import formats
from circledyn.cli import main
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.exact import format_rational, parse_rational
from circledyn.expanding import expanding_map
from circledyn.measures import CircleMeasure, CylinderSpec
from circledyn.partitions import family_from_homeo
from circledyn.plmaps import PLCircleMap
from circledyn.shredder import TrappingReport, shred, verify_shredding

from conftest import random_pl_homeo, random_pl_map
from test_measure_queries import probability_measures

F = Fraction


def ref_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


# ---------------------------------------------------------------------------
# the writer against the json module

# quotes, backslashes, control characters, a lone surrogate, non-ASCII and
# non-BMP characters, and the % of the template
SPECIAL = '"\\/\x00\x08\t\n\x1f\x7f %é€ \ud800😀'
texts = st.one_of(
    st.text(),
    st.text(st.sampled_from(SPECIAL), max_size=6),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
keys = st.one_of(st.text(max_size=4), st.text(st.sampled_from(SPECIAL + "ab"), max_size=3))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**5000), 2**5000),
    texts,
)


@st.composite
def same_key_dicts(draw, values) -> list:
    """A list of dicts over one key set, in varying insertion order: the
    template's case when every value is a string."""
    names = draw(st.lists(keys, min_size=1, max_size=3, unique=True))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(names))
        out.append({k: draw(values) for k in order})
    return out


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.lists(texts, max_size=4),
        st.lists(st.integers(-(2**5000), 2**5000), max_size=4),
        same_key_dicts(st.one_of(texts, texts, leaves)),
        st.just([]),
        st.just({}),
        st.just(()),
    )


records = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(records)
def test_dumps_is_the_json_text(obj):
    assert formats.dumps(obj) == ref_dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        [1, 2.0],
        {"a": [0.5]},
        {1: "a"},
        {"a": {None: 1}},
        [{"a": "1"}, {1: "2"}],
        [{1: "x"}],
        {True: 1},
        {1, 2},
        [frozenset()],
        F(1, 2),
    ],
    ids=[
        "float", "float-in-list", "float-in-dict", "int-key", "none-key",
        "int-key-in-list", "int-key-only", "bool-key", "set", "frozenset", "fraction",
    ],
)
def test_dumps_refuses_what_records_do_not_hold(obj):
    # json.dumps writes a float, and coerces an int, bool or None key to a
    # string; records hold none of them
    with pytest.raises(TypeError):
        formats.dumps(obj)


@pytest.mark.parametrize("seed", range(4))
def test_every_record_is_the_json_text(seed):
    rng = random.Random(seed)
    f = random_pl_map(rng, degree=2)
    g, report = shred(expanding_map(2 + seed % 2), F(1, 5 + seed))
    verify_shredding(g, report)
    assert report.verification is not None
    mu = CircleMeasure(
        [(F(1, 3), F(1, 4)), (F(0), F(1, 4))], [(F(1, 7), F(9, 14), F(1))]
    )
    records = [
        formats.map_to_record(f),
        formats.map_to_record(g),
        formats.measure_to_record(mu),
        formats.measure_to_record(CircleMeasure.lebesgue()),
        formats.spec_to_record(CylinderSpec.dirac_zero(2 + seed, 3)),
        formats.family_to_record(family_from_homeo(random_pl_homeo(rng), 2, 3)),
        formats.report_to_record(report),
    ]
    for rec in records:
        assert formats.dumps(rec) == ref_dumps(rec)


@settings(max_examples=100, deadline=None)
@given(probability_measures())
def test_measure_records_are_the_json_text(mu):
    rec = formats.measure_to_record(mu)
    assert formats.dumps(rec) == ref_dumps(rec)


def _json_text(path) -> str:
    text = path.read_text()
    assert text == ref_dumps(json.loads(text)), path.name
    return text


def test_cli_records_and_manifests_are_the_json_text(tmp_path, capsys):
    # fixed points 0, 1/4, 1/2, 3/4: classify writes basins, rationals,
    # verdicts and null evidence
    h = PLCircleMap(
        [F(k, 8) for k in range(9)],
        [F(0), F(3, 16), F(1, 4), F(5, 16), F(1, 2), F(11, 16), F(3, 4), F(13, 16), F(1)],
    )
    path = tmp_path / "h.json"
    path.write_text(formats.dumps(formats.map_to_record(h)))
    out = tmp_path / "classify"
    assert main(["--out-dir", str(out), "classify", str(path), "--grid", "2"]) == 0
    assert capsys.readouterr().out == _json_text(out / "classification.json")
    _json_text(out / "manifest.json")
    path = tmp_path / "e2.json"
    path.write_text(formats.dumps(formats.map_to_record(expanding_map(2))))
    out = tmp_path / "shred"
    assert main(["--out-dir", str(out), "shred", str(path), "--eps", "1/5"]) == 0
    for name in ("perturbed.json", "report.json", "manifest.json"):
        _json_text(out / name)


# ---------------------------------------------------------------------------
# grid fields


def ref_grid_record(report: TrappingReport) -> dict:
    """The six derived fields of a report record, built from Fractions."""
    eps, n, m = report.eps, len(report.tau), report.subdivisions
    nm = n * m
    sub_len = F(1, nm)
    delta = eps / (4 * nm)
    inner_len = sub_len - 2 * delta
    starts = [[F(i * m + j, nm) for j in range(m)] for i in range(n)]
    fmt = format_rational
    return {
        "delta": fmt(delta),
        "cells": [{"start": fmt(row[0]), "length": fmt(F(1, n))} for row in starts],
        "subcells": [
            [{"start": fmt(s), "length": fmt(sub_len)} for s in row] for row in starts
        ],
        "interiorCells": [
            [{"start": fmt(s + delta), "length": fmt(inner_len)} for s in row]
            for row in starts
        ],
        "anchors": [[fmt(s + F(1, 2 * nm)) for s in row] for row in starts],
        "orbits": [list(o) for o in report.orbits],
    }


@st.composite
def scales(draw) -> Fraction:
    den = draw(st.one_of(st.integers(2, 100), st.integers(2, 2**200)))
    return F(draw(st.integers(1, den - 1)), den)


@settings(max_examples=150, deadline=None)
@given(scales(), st.integers(1, 100), st.integers(1, 30), st.data())
def test_grid_record_matches_fraction_reference(eps, n, m, data):
    tau = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    report = TrappingReport(eps, tau, m, (), {})
    assert formats._grid_record(report) == ref_grid_record(report)


def test_grid_record_past_the_digit_limit_is_a_resource_cap():
    # eps itself is within the int-to-str limit; the grid's denominator of
    # 4 * 10 * 3 * 10^k is not, as format_rational would say of its delta
    k = sys.get_int_max_str_digits() - 1
    report = TrappingReport(F(1, 3 * 10**k), (0,) * 10, 1, (), {})
    assert len(format_rational(report.eps)) < sys.get_int_max_str_digits() + 3
    with pytest.raises(ResourceCap, match="digit limit of integer string conversion"):
        formats._grid_record(report)


@pytest.fixture
def shredded(tmp_path):
    e2 = tmp_path / "e2.json"
    e2.write_text(formats.dumps(formats.map_to_record(expanding_map(2))))
    out = tmp_path / "shred"
    assert main(["--out-dir", str(out), "shred", str(e2), "--eps", "1/5"]) == 0
    return out


def _unreduced(text: str) -> str:
    num, den = text.split("/")
    return f"{2 * int(num)}/{2 * int(den)}"


def _moved(text: str) -> str:
    return format_rational(parse_rational(text) + F(1, 2**70))


@pytest.mark.parametrize(
    "field, tamper",
    [
        ("delta", lambda rec: rec.__setitem__("delta", _unreduced(rec["delta"]))),
        ("anchors", lambda rec: rec["anchors"][1].__setitem__(2, _unreduced(rec["anchors"][1][2]))),
        ("subcells", lambda rec: rec["subcells"][0][1].__setitem__(
            "start", _unreduced(rec["subcells"][0][1]["start"]))),
        ("interiorCells", lambda rec: rec["interiorCells"][2][0].__setitem__(
            "length", _unreduced(rec["interiorCells"][2][0]["length"]))),
        ("anchors", lambda rec: rec["anchors"][3].__setitem__(1, _moved(rec["anchors"][3][1]))),
    ],
    ids=["delta-unreduced", "anchor-unreduced", "subcell-unreduced",
         "interior-unreduced", "anchor-moved"],
)
def test_a_grid_string_not_written_as_derived_exits_2(shredded, capsys, field, tamper):
    rec = json.loads((shredded / "report.json").read_text())
    tamper(rec)
    path = shredded / "tampered.json"
    path.write_text(json.dumps(rec))
    capsys.readouterr()
    assert main(["verify", str(shredded / "perturbed.json"), str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"invalid input: malformed report record: {field} " in err


# ---------------------------------------------------------------------------
# the reader's fast path

# underscores in the digits are Fraction's own reading from Python 3.11
UNDERSCORES = sys.version_info >= (3, 11)


@pytest.mark.parametrize(
    "text, value",
    [
        (" 1/2", F(1, 2)),
        ("1/2 ", F(1, 2)),
        ("+1/2", F(1, 2)),
        ("-1/2", F(-1, 2)),
        ("1_0/3", F(10, 3) if UNDERSCORES else None),
        ("٣/٤", F(3, 4)),
        ("0/5", F(0)),
        ("12/8", F(3, 2)),
        ("1/0", None),
        ("0/0", None),
        ("/2", None),
        ("1/", None),
        ("1/-2", None),
        ("1/2/3", None),
        ("1e4301", None),
    ],
)
def test_parse_rational_reads_as_before(text, value):
    if value is None:
        with pytest.raises(InvalidInput):
            parse_rational(text)
    else:
        x = parse_rational(text)
        assert type(x) is Fraction and x == value


def test_parse_rational_refuses_digits_past_the_limit():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(InvalidInput, match="not a rational number"):
        parse_rational(digits + "/3")
    with pytest.raises(InvalidInput, match="exponent of '1e4301' is above"):
        parse_rational("1e4301")
