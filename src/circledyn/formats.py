"""File formats: JSON records with rationals as "num/den" strings, CSV exports.

All writers emit canonical JSON (sorted keys, fixed separators, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Sequence

from .errors import InvalidInput
from .exact import ONE, ZERO, Arc, format_rational, format_ratios, parse_rational
from .measures import CircleMeasure, CylinderSpec, _word_str
from .partitions import ConsistentFamily
from .plmaps import Observable, PLCircleMap
from .shredder import Region, TrappingReport, _grid_integers


# what reading a record of the wrong shape or with bad rationals raises
_MALFORMED = (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError)
# cdf.csv holds the closed CDF at 0, 1/CDF_SAMPLES, ..., 1
CDF_SAMPLES = 256


def dumps(obj: Any) -> str:
    """Canonical JSON text of a record and a newline: exactly the text the
    ``json`` module writes with sorted keys, the separators "," and ": "
    and an indent of one space, which forces its pure-Python encoder.

    Records hold dicts with ``str`` keys, lists and tuples, ``str``,
    ``int``, ``bool`` and None; anything else is ``TypeError``.  Strings
    are quoted by the C ``encode_basestring_ascii`` of ``json`` and ints
    written by ``int.__repr__``.  A list of strings or of ints is joined
    in one go, and a list of dicts with the same keys and string values,
    such as a list of arcs, fills one template.
    """
    return _encode(obj, "\n") + "\n"


def _encode(x: Any, nl: str) -> str:
    """x as JSON text; nl is the newline and indent of x's own line."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + " "
    if isinstance(x, dict):
        if not x:
            return "{}"
        for key in x:
            if not isinstance(key, str):
                raise TypeError(f"record keys must be str, not {type(key).__name__}")
        body = ("," + inner).join(
            [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(x.items())]
        )
        return "{" + inner + body + nl + "}"
    if isinstance(x, (list, tuple)):
        return "[" + inner + _list_body(x, inner) + nl + "]" if x else "[]"
    raise TypeError(f"{type(x).__name__} is not a record value")


def _list_body(items: list | tuple, nl: str) -> str:
    """The items of a nonempty list as JSON text, each on a line that
    starts with nl."""
    sep = "," + nl
    kinds = set(map(type, items))
    if kinds == {str}:
        return sep.join(map(_quote, items))
    if kinds == {int}:
        return sep.join(map(int.__repr__, items))
    if kinds == {dict}:
        first = items[0].keys()
        keys = sorted(first) if all(type(k) is str for k in first) else ()
        if keys and all(d.keys() == first for d in items):
            pick = itemgetter(*keys)
            values = (
                list(map(pick, items))
                if len(keys) == 1
                else list(chain.from_iterable(map(pick, items)))
            )
            if set(map(type, values)) == {str}:
                deeper = nl + " "
                fill = (
                    "{" + deeper
                    + ("," + deeper).join(
                        [_quote(k).replace("%", "%%") + ": %s" for k in keys]
                    )
                    + nl + "}"
                )
                return sep.join([fill] * len(items)) % tuple(map(_quote, values))
    return sep.join([_encode(v, nl) for v in items])


def _int_from_record(rec: dict, key: str) -> int:
    """A JSON integer: 2.9, true or "1" is not read as one."""
    value = rec[key]
    if type(value) is not int:
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def _arc_record(a: Arc) -> dict:
    return {"start": format_rational(a.start), "length": format_rational(a.length)}


# -- maps


def map_to_record(f: PLCircleMap) -> dict:
    return {
        "breakpoints": [format_rational(b) for b in f.breakpoints],
        "liftValues": [format_rational(v) for v in f.lift_values],
    }


def map_from_record(rec: dict) -> PLCircleMap:
    try:
        bps = [parse_rational(s) for s in rec["breakpoints"]]
        vals = [parse_rational(s) for s in rec["liftValues"]]
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed map record: {exc}") from exc
    return PLCircleMap(bps, vals)


def observable_from_record(rec: dict) -> Observable:
    try:
        bps = [parse_rational(s) for s in rec["breakpoints"]]
        vals = [parse_rational(s) for s in rec["values"]]
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed observable record: {exc}") from exc
    return Observable(bps, vals)


# -- measures


def measure_to_record(mu: CircleMeasure) -> dict:
    return {
        "atoms": [
            {"at": format_rational(p), "mass": format_rational(w)}
            for p, w in mu.atoms
        ],
        "pieces": [
            {
                "start": format_rational(lo),
                "length": format_rational(hi - lo),
                "density": format_rational(d),
            }
            for lo, hi, d in mu.pieces
        ],
    }


def measure_from_record(rec: dict) -> CircleMeasure:
    try:
        atoms = [
            (parse_rational(a["at"]), parse_rational(a["mass"]))
            for a in rec.get("atoms", [])
        ]
        pieces = []
        for p in rec.get("pieces", []):
            start = parse_rational(p["start"])
            length = parse_rational(p["length"])
            density = parse_rational(p["density"])
            arc = Arc.make(start, length)
            for lo, hi in arc.intervals():
                pieces.append((lo, hi, density))
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed measure record: {exc}") from exc
    return CircleMeasure(atoms=atoms, pieces=pieces)


# -- cylinder specs


def spec_to_record(spec: CylinderSpec) -> dict:
    return {
        "ell": spec.ell,
        "p": spec.level,
        "values": {
            _word_str(w, spec.ell): format_rational(v)
            for w, v in sorted(spec.values.items())
        },
    }


def spec_from_record(rec: dict) -> CylinderSpec:
    try:
        ell = _int_from_record(rec, "ell")
        p = _int_from_record(rec, "p")
        table = {k: parse_rational(v) for k, v in rec["values"].items()}
        return CylinderSpec.from_strings(ell, p, table)
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed cylinder spec record: {exc}") from exc


# -- families


def family_to_record(fam: ConsistentFamily) -> dict:
    return {
        "ell": fam.ell,
        "depth": fam.depth,
        "levels": [[_arc_record(c) for c in level] for level in fam.levels],
    }


def family_from_record(rec: dict) -> ConsistentFamily:
    try:
        ell = _int_from_record(rec, "ell")
        depth = _int_from_record(rec, "depth")
        levels = tuple(
            tuple(
                Arc(parse_rational(c["start"]), parse_rational(c["length"]))
                for c in level
            )
            for level in rec["levels"]
        )
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed family record: {exc}") from exc
    return ConsistentFamily(ell, depth, levels)


# -- trapping reports


def _grid_record(report: TrappingReport) -> dict:
    """The six fields of a report record that eps, tau and the subdivision
    count fix: the grid of ``shredder._grid_integers`` and the orbits of
    tau."""
    m = report.subdivisions
    den, (delta, sub_len, inner_len), rows = _grid_integers(
        report.eps, len(report.tau), m
    )
    delta_s, cell_s, sub_s, inner_s = format_ratios(
        (delta, m * sub_len, sub_len, inner_len), den
    )
    starts, inner, anchors = [], [], []
    for row in rows:
        a, b, c = zip(*row)
        starts.append(format_ratios(a, den))
        inner.append(format_ratios(b, den))
        anchors.append(format_ratios(c, den))
    return {
        "delta": delta_s,
        "cells": [{"start": row[0], "length": cell_s} for row in starts],
        "subcells": [
            [{"start": s, "length": sub_s} for s in row] for row in starts
        ],
        "interiorCells": [
            [{"start": s, "length": inner_s} for s in row] for row in inner
        ],
        "anchors": anchors,
        "orbits": [list(o) for o in report.orbits],
    }


def _region_cells(
    basins: tuple[tuple[int, ...], ...], label: tuple[int, ...]
) -> list[int] | None:
    """The ``cells`` of a region record: the tau basin of the orbit its label
    names, or None when the label names no orbit."""
    r = label[0] if label else -1
    return list(basins[r]) if 0 <= r < len(basins) else None


def report_to_record(report: TrappingReport) -> dict:
    basins = report.basins
    rec = {
        "eps": format_rational(report.eps),
        "tau": list(report.tau),
        **_grid_record(report),
        "regions": [
            {
                "label": list(reg.label),
                "cells": _region_cells(basins, reg.label),
                "arcs": [_arc_record(a) for a in reg.arcs],
            }
            for reg in report.regions
        ],
        "cycles": [
            {
                "label": list(label),
                "sets": [_arc_record(a) for a in arcs],
            }
            for label, arcs in sorted(report.cycles.items())
        ],
    }
    if report.verification is not None:
        rec["verification"] = {
            key: {
                "passed": v.passed,
                "slack": None if v.slack is None else format_rational(v.slack),
                "detail": v.detail,
            }
            for key, v in report.verification.items.items()
        }
    return rec


def _arc_from_record(rec: dict) -> Arc:
    return Arc(parse_rational(rec["start"]), parse_rational(rec["length"]))


def _label_from_record(value: Any) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(d) is int for d in value):
        raise ValueError(f"label {value!r} is not a list of integers")
    return tuple(value)


def _tau_from_record(value: Any) -> tuple[int, ...]:
    """tau maps the cells to themselves: integers in [0, len(tau))."""
    if not isinstance(value, list) or not all(
        type(t) is int and 0 <= t < len(value) for t in value
    ):
        raise ValueError(f"tau {value!r} is not a list of integers in [0, len(tau))")
    return tuple(value)


def report_from_record(rec: dict) -> TrappingReport:
    """Read a report record; the fields that eps, tau and the subdivision
    count fix, and the cells of each region, must be exactly what
    ``report_to_record`` writes."""
    try:
        regions = tuple(
            Region(
                label=_label_from_record(r["label"]),
                arcs=tuple(_arc_from_record(a) for a in r["arcs"]),
            )
            for r in rec["regions"]
        )
        cycles = {}
        for c in rec["cycles"]:
            label = _label_from_record(c["label"])
            if label in cycles:
                raise InvalidInput(
                    f"malformed report record: cycles lists label {label} twice"
                )
            cycles[label] = tuple(_arc_from_record(a) for a in c["sets"])
        subcells = rec["subcells"]
        report = TrappingReport(
            eps=parse_rational(rec["eps"]),
            tau=_tau_from_record(rec["tau"]),
            subdivisions=len(subcells[0]) if subcells else 0,
            regions=regions,
            cycles=cycles,
        )
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed report record: {exc}") from exc
    # the scale the report certifies; shred refuses the same range
    if not ZERO < report.eps < ONE:
        raise InvalidInput(
            f"malformed report record: eps {report.eps} must lie in (0, 1)"
        )
    if not regions:
        raise InvalidInput("malformed report record: no regions")
    empty = [reg.label for reg in regions if not reg.arcs]
    if empty:
        raise InvalidInput(f"malformed report record: region {empty[0]} has no arcs")
    missing = [reg.label for reg in regions if reg.label not in cycles]
    if missing:
        raise InvalidInput(
            f"malformed report record: region {missing[0]} has no cycles entry"
        )
    n, m = len(report.tau), report.subdivisions
    if not n or not m:
        raise InvalidInput("malformed report record: tau and subcells must not be empty")
    # the grid derived below is as large as the subcells the record holds
    if len(subcells) != n or not all(
        isinstance(row, list) and len(row) == m for row in subcells
    ):
        raise InvalidInput(
            f"malformed report record: subcells is not {n} rows of {m} subcells"
        )
    for key, value in _grid_record(report).items():
        if rec.get(key) != value:
            raise InvalidInput(
                f"malformed report record: {key} differs from what eps, tau "
                f"and {m} subdivisions give"
            )
    basins = report.basins
    for reg, r in zip(regions, rec["regions"]):
        cells, want = r.get("cells"), _region_cells(basins, reg.label)
        if want is None or cells != want or any(type(c) is not int for c in cells):
            raise InvalidInput(
                f"malformed report record: cells of region {reg.label} are "
                f"not the tau basin of its orbit"
            )
    return report


# -- CSV helpers


def csv_lines(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(c) for c in row))
    return "\n".join(out) + "\n"


def cdf_samples(mu: CircleMeasure) -> list[tuple[str, str]]:
    rows = []
    for i in range(CDF_SAMPLES + 1):
        x = Fraction(i, CDF_SAMPLES)
        rows.append((format_rational(x), format_rational(mu.cdf_closed(x))))
    return rows
