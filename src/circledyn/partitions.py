"""Consistent base-l partition hierarchies and their homeomorphism charts.

A consistent family assigns to each level k <= depth an ordered circular
partition into l^k cells, laid counterclockwise from a common basepoint in
word order, with each cell equal to the union of its children.  Families
with all cells of positive length correspond exactly to orientation
preserving PL circle homeomorphisms pulling back the standard base-l grid.
Push-forwards of Lebesgue under iterates of the expanding map E_l through
such a chart are read off the cells exactly, at the level of base-l
cylinder values.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import InvalidInput
from .exact import HALF, ONE, ZERO, Arc, as_count, mod1
from .measures import CylinderSpec, _word_str
from .plmaps import PLCircleMap, form_gap, line_form, sup_dist_to_int

# the positive cells of one level: word -> (lift position, length)
Table = dict[tuple[int, ...], tuple[Fraction, Fraction]]


@dataclass(frozen=True, init=False)
class ConsistentFamily:
    """Levels 1..depth of nested circular partitions, stored by positive cells.

    ``tables[k-1]`` maps each level-k word whose cell has positive length to
    the cell's (lift position, length), in word order.  Positions are
    cumulative from ``basepoint`` in [0, 1), so they live in [basepoint,
    basepoint + 1).  A word missing from its table is an empty cell: such
    (degenerate) families describe targets with vanishing cylinder masses;
    they validate but cannot be realized by a homeomorphism.

    ``ConsistentFamily(ell, depth, levels)`` reads the dense form:
    ``levels[k-1]`` lists the l^k arcs of level k in word order, a
    zero-length arc being an empty cell.  ``from_tables`` takes the sparse
    form.  ``levels`` and ``cells(k)`` give the dense form back.  Both
    constructors raise ``InvalidInput`` naming the first inconsistent cell.
    """

    ell: int
    basepoint: Fraction
    tables: tuple[Table, ...]

    def __init__(self, ell: int, depth: int, levels: Sequence[Sequence[Arc]]):
        tables = _from_levels(ell, depth, levels)
        self._store(ell=ell, basepoint=levels[0][0].start, tables=tables)

    @classmethod
    def from_tables(
        cls, ell: int, basepoint: Fraction, tables: Sequence[Table], **fields
    ) -> "ConsistentFamily":
        """Build from the sparse form; ``fields`` fill a subclass's own fields."""
        fam = cls.__new__(cls)
        fam._store(ell=ell, basepoint=basepoint, tables=tuple(tables), **fields)
        return fam

    def _store(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        _check_tables(self.ell, self.basepoint, self.tables)

    # -- views

    @property
    def depth(self) -> int:
        return len(self.tables)

    @property
    def is_degenerate(self) -> bool:
        return any(len(t) < self.ell**k for k, t in enumerate(self.tables, 1))

    def cells(self, level: int) -> tuple[Arc, ...]:
        """The l^level cells of a level in word order, empty ones included."""
        if not 1 <= level <= self.depth:
            raise InvalidInput(f"level {level} outside 1..{self.depth}")
        table = self.tables[level - 1]
        out = []
        pos = self.basepoint
        for w in product(range(self.ell), repeat=level):
            entry = table.get(w)
            length = entry[1] if entry else ZERO
            out.append(Arc(mod1(pos), length))
            pos += length
        return tuple(out)

    @property
    def levels(self) -> tuple[tuple[Arc, ...], ...]:
        return tuple(self.cells(k) for k in range(1, self.depth + 1))

    def homeomorphism(self) -> PLCircleMap:
        return homeo_from_family(self)

    # -- exact cylinder computations

    def cylinder_pushforward(self, q: int, p: int) -> CylinderSpec:
        """Cylinder values of the q-th expanding push-forward of the chart.

        Each value is the total length of the cells whose words end in the
        given suffix, q levels deeper than the requested cylinder level.
        """
        as_count(q, "push-forward iterate q", 0)
        as_count(p, "cylinder level")
        if q + p > self.depth:
            raise InvalidInput(
                f"family depth {self.depth} insufficient for level {q + p}"
            )
        acc: dict[tuple[int, ...], Fraction] = {}
        for w, (_, length) in self.tables[q + p - 1].items():
            alpha = w[q:]
            acc[alpha] = acc.get(alpha, ZERO) + length
        return CylinderSpec(self.ell, p, acc)

    def cesaro_spec(self, horizon: int, p: int) -> CylinderSpec:
        """(1/horizon) sum over k < horizon of the k-th push-forward cylinders."""
        as_count(horizon, "horizon")
        acc: dict[tuple[int, ...], Fraction] = {}
        for k in range(horizon):
            for w, v in self.cylinder_pushforward(k, p).values.items():
                acc[w] = acc.get(w, ZERO) + v
        inv = Fraction(1, horizon)
        return CylinderSpec(self.ell, p, {w: v * inv for w, v in acc.items()})

    # -- metric view

    def c0_distance_to(self, g: PLCircleMap) -> Fraction:
        """Exact sup_x d(g(x), h'(x)) for the (possibly jump-) realization.

        The realization maps each positive deepest cell affinely onto its
        grid interval and jumps across the grid intervals of empty cells;
        jump positions take the right-continuous value, which coincides with
        the next cell's start, so the supremum is attained over the closures
        of the positive cells.
        """
        top = self.ell**self.depth
        best = ZERO
        for w, (pos, length) in self.tables[-1].items():
            value = 0
            for d in w:
                value = value * self.ell + d
            end = pos + length  # the cell rises from value/top to (value + 1)/top
            line = line_form(pos.numerator, pos.denominator, value, top,
                             end.numerator, end.denominator, value + 1, top)
            cuts, lifts = g._walk(pos, end)
            sup = sup_dist_to_int([form_gap(v, line, t) for t, v in zip(cuts, lifts)])
            if sup > best:
                best = sup
            if best == HALF:
                break
        return best


def _inconsistent(ell: int, level: int, word: tuple[int, ...], reason: str) -> InvalidInput:
    with suppress(InvalidInput):  # over 36 letters, or not a word: the tuple
        word = _word_str(word, ell)
    return InvalidInput(f"inconsistent family at level {level}, word {word}: {reason}")


def _from_levels(
    ell: int, depth: int, levels: Sequence[Sequence[Arc]]
) -> tuple[Table, ...]:
    """Check what only the dense form states (cell counts and arc starts)
    and convert it to tables of its positive cells."""
    as_count(ell, "alphabet size", 2)
    if depth < 1 or len(levels) != depth:
        raise _inconsistent(ell, 0, (), "level count != depth")
    if not levels[0]:
        raise _inconsistent(ell, 1, (), "empty level")
    tables = []
    for k, cells in enumerate(levels, 1):
        if len(cells) != ell**k:
            raise _inconsistent(
                ell, k, (), f"expected {ell ** k} cells, got {len(cells)}"
            )
        table: Table = {}
        pos = levels[0][0].start
        for w, cell in zip(product(range(ell), repeat=k), cells):
            if cell.start != mod1(pos):
                raise _inconsistent(
                    ell, k, w, "cells not laid consecutively in word order"
                )
            if cell.length:
                table[w] = (pos, cell.length)
            pos += cell.length
        tables.append(table)
    return tuple(tables)


def _check_tables(ell: int, basepoint: Fraction, tables: Sequence[Table]) -> None:
    """Raise ``InvalidInput`` at the first violation of the sparse form.

    Each level must lay positive cells consecutively from the basepoint in
    word order and sum to 1, and each cell must lie inside its parent.  As
    both levels tile [basepoint, basepoint + 1), the children of a cell then
    tile it, so their lengths sum to the parent's.
    """
    as_count(ell, "alphabet size", 2)
    if not tables:
        raise _inconsistent(ell, 0, (), "depth must be >= 1")
    if not ZERO <= basepoint < ONE:
        raise _inconsistent(ell, 0, (), f"basepoint {basepoint} outside [0, 1)")
    parents: Table = {(): (basepoint, ONE)}
    for k, table in enumerate(tables, 1):
        pos, prev = basepoint, None
        for w, (start, length) in table.items():
            if len(w) != k or not 0 <= w[-1] < ell:
                raise _inconsistent(ell, k, w, f"not a level-{k} word")
            if prev is not None and w <= prev:
                raise _inconsistent(ell, k, w, "words not in word order")
            if length <= 0:
                raise _inconsistent(ell, k, w, "a listed cell must have positive length")
            if start != pos:
                raise _inconsistent(
                    ell, k, w, "cells not laid consecutively in word order"
                )
            pos = start + length
            parent = parents.get(w[:-1])
            if parent is None or start < parent[0] or pos > parent[0] + parent[1]:
                raise _inconsistent(ell, k, w, "cell outside its parent")
            prev = w
        if pos != basepoint + ONE:
            raise _inconsistent(
                ell, k, (), f"cell lengths sum to {pos - basepoint}, not 1"
            )
        parents = table


def family_from_homeo(h: PLCircleMap, ell: int, depth: int) -> ConsistentFamily:
    """Pull the standard base-l grid back through an orientation-preserving homeo."""
    if not h.orientation_preserving:
        raise InvalidInput("family requires an orientation-preserving homeomorphism")
    as_count(ell, "alphabet size", 2)
    as_count(depth, "depth")
    g = h.invert()
    count = ell**depth
    lifts = [g.lift_evaluate(Fraction(i, count)) for i in range(count + 1)]
    # positions count from the basepoint mod1(lifts[0])
    shift = lifts[0].numerator // lifts[0].denominator
    tables = []
    for k in range(1, depth + 1):
        grid = lifts[:: ell ** (depth - k)]
        tables.append({
            w: (grid[i] - shift, grid[i + 1] - grid[i])
            for i, w in enumerate(product(range(ell), repeat=k))
        })
    return ConsistentFamily.from_tables(ell, lifts[0] - shift, tables)


def homeo_from_family(fam: ConsistentFamily) -> PLCircleMap:
    """The PL homeomorphism affine on deepest cells sending each cell to its grid interval."""
    if fam.is_degenerate:
        raise InvalidInput(
            "family has empty cells; no homeomorphism realizes it"
        )
    scale = Fraction(1, fam.ell**fam.depth)
    points = [(pos, idx * scale) for idx, (pos, _) in enumerate(fam.tables[-1].values())]
    points.append((fam.basepoint + ONE, ONE))
    return PLCircleMap.from_lift_points(points)
