"""Linear expanding maps, their conjugacy charts, and window perturbations.

The conjugation map sends an orientation-preserving homeomorphism h to
f = h^-1 E h, where E is the degree-l linear expanding map.  Push-forwards of
Lebesgue under iterates of E through h are computed exactly at the level of
base-l cylinder values via the partition family of h.  ``wicked_perturb``
rebuilds the family so that an entire window of push-forward iterates matches
a prescribed invariant cylinder table exactly; targets with vanishing
cylinders produce degenerate families (empty cells) whose realization is a
monotone jump function rather than a homeomorphism, and the result object
exposes both views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .errors import InvalidInput, ResourceCap
from .exact import HALF, ONE, ZERO, Arc, mod1
from .measures import CylinderSpec
from .partitions import ConsistentFamily, family_from_homeo, homeo_from_family
from .plmaps import PLCircleMap, sup_dist_to_int

DEFAULT_CELL_CAP = 500_000


def expanding_map(ell: int) -> PLCircleMap:
    """The linear circle map of integer degree ell, |ell| >= 2."""
    if abs(ell) < 2:
        raise InvalidInput("expanding degree must satisfy |ell| >= 2")
    return PLCircleMap([ZERO, ONE], [ZERO, Fraction(ell)])


@dataclass(frozen=True)
class ExpandingConjugacy:
    """A map f = h^-1 E_ell h together with its conjugating chart."""

    ell: int
    h: PLCircleMap
    f: PLCircleMap

    @property
    def fixed_point_count(self) -> int:
        return sum(1 for c in self.f.fixed_point_components() if c.is_point)


def conjugate(h: PLCircleMap, ell: int) -> ExpandingConjugacy:
    if not h.orientation_preserving:
        raise InvalidInput("conjugator must be an orientation-preserving homeomorphism")
    e = expanding_map(ell)
    f = h.invert().compose(e.compose(h))
    conj = ExpandingConjugacy(ell, h, f)
    if f.degree != ell:
        raise InvalidInput(f"conjugate degree {f.degree} != {ell}")
    expected = abs(ell - 1)
    got = conj.fixed_point_count
    if got != expected:
        raise InvalidInput(
            f"conjugate has {got} fixed points, expected {expected}"
        )
    return conj


def rotation_companions(h: PLCircleMap, ell: int) -> list[PLCircleMap]:
    """All conjugators producing the same map: rotations by j/(ell-1) after h."""
    if ell < 2:
        raise InvalidInput("companions defined for ell >= 2")
    if not h.orientation_preserving:
        raise InvalidInput("conjugator must be an orientation-preserving homeomorphism")
    return [
        PLCircleMap.rotation(Fraction(j, ell - 1)).compose(h)
        for j in range(ell - 1)
    ]


# ---------------------------------------------------------------------------
# Window perturbation


@dataclass
class PerturbedConjugator:
    """Result of ``wicked_perturb``: a partition family realizing the window.

    ``tables[k-1]`` maps each positive level-k word to (lift position,
    length); positions are cumulative from the basepoint, so they live in
    [basepoint, basepoint + 1).  When every cylinder of the target is
    positive the family is realized by an honest PL homeomorphism; otherwise
    the realization is a monotone function with jumps across the grid
    intervals of the empty cells, and only the family view is exact.
    """

    ell: int
    n0: int
    n: int
    target: CylinderSpec
    basepoint: Fraction
    depth: int
    tables: list[dict[tuple[int, ...], tuple[Fraction, Fraction]]]

    # -- family views

    @property
    def is_degenerate(self) -> bool:
        for k in range(1, self.depth + 1):
            if len(self.tables[k - 1]) < self.ell**k:
                return True
        return False

    def cell_measure(self, word: tuple[int, ...]) -> Fraction:
        entry = self.tables[len(word) - 1].get(tuple(word))
        return entry[1] if entry else ZERO

    def to_family(self, allow_degenerate: bool = True) -> ConsistentFamily:
        levels = []
        for k in range(1, self.depth + 1):
            table = self.tables[k - 1]
            count = self.ell**k
            cells = []
            cursor = self.basepoint
            for idx in range(count):
                w = _digits(idx, self.ell, k)
                entry = table.get(w)
                length = entry[1] if entry else ZERO
                cells.append(Arc(mod1(cursor), length))
                cursor += length
            levels.append(tuple(cells))
        return ConsistentFamily(
            self.ell, self.depth, tuple(levels), allow_degenerate=allow_degenerate
        )

    def homeomorphism(self) -> PLCircleMap:
        if self.is_degenerate:
            raise InvalidInput(
                "target has vanishing cylinders; the realization is not a "
                "homeomorphism (use the family or distance views instead)"
            )
        return homeo_from_family(self.to_family(allow_degenerate=False))

    # -- exact cylinder computations

    def cylinder_pushforward(self, q: int, p: int) -> CylinderSpec:
        """Cylinder values of the q-th expanding push-forward of the chart."""
        level = q + p
        if not 1 <= level <= self.depth:
            raise InvalidInput(
                f"need family depth {level}, built only {self.depth}"
            )
        scale = self.ell**p
        acc: dict[tuple[int, ...], Fraction] = {}
        for w, (_, length) in self.tables[level - 1].items():
            alpha = w[-p:]
            acc[alpha] = acc.get(alpha, ZERO) + length
        return CylinderSpec(self.ell, p, acc)

    def cesaro_spec(self, horizon: int, p: int) -> CylinderSpec:
        if horizon < 1:
            raise InvalidInput("horizon must be >= 1")
        acc: dict[tuple[int, ...], Fraction] = {}
        for k in range(horizon):
            spec = self.cylinder_pushforward(k, p)
            for w, v in spec.values.items():
                acc[w] = acc.get(w, ZERO) + v
        h = Fraction(1, horizon)
        return CylinderSpec(
            self.ell, p, {w: v * h for w, v in acc.items()}
        )

    # -- metric view

    def c0_distance_to(self, g: PLCircleMap) -> Fraction:
        """Exact sup_x d(g(x), h'(x)) for the (possibly jump-) realization.

        The realization maps each positive deepest cell affinely onto its
        grid interval and jumps across the grid intervals of empty cells;
        jump positions take the right-continuous value, which coincides with
        the next cell's start, so the supremum is attained over the closures
        of the positive cells.
        """
        deepest = self.tables[self.depth - 1]
        scale = Fraction(1, self.ell**self.depth)
        best = ZERO
        for w, (pos, length) in sorted(deepest.items(), key=lambda kv: kv[1][0]):
            a_w = _value(w, self.ell) * scale
            slope = scale / length
            sup = _sup_circle_distance_affine(g, pos, pos + length, a_w, slope)
            if sup > best:
                best = sup
            if best == HALF:
                break
        return best


def _digits(value: int, ell: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        value, d = divmod(value, ell)
        out.append(d)
    return tuple(reversed(out))


def _value(digits: tuple[int, ...], ell: int) -> int:
    v = 0
    for d in digits:
        v = v * ell + d
    return v


def _sup_circle_distance_affine(
    g: PLCircleMap,
    lo: Fraction,
    hi: Fraction,
    a0: Fraction,
    slope: Fraction,
) -> Fraction:
    """Sup over [lo, hi] of circle distance between g and an affine lift."""
    cuts = {lo, hi}
    for b in g.breakpoints[:-1]:
        k_min = math.ceil(lo - b)
        k_max = math.floor(hi - b)
        for k in range(k_min, k_max + 1):
            t = b + k
            if lo < t < hi:
                cuts.add(t)
    return sup_dist_to_int(
        [g.lift_evaluate(t) - (a0 + slope * (t - lo)) for t in sorted(cuts)]
    )


def wicked_perturb(
    h: PLCircleMap,
    ell: int,
    target: CylinderSpec,
    eps: Fraction,
    n: int,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> PerturbedConjugator:
    """Rebuild h's partition family so that the expanding push-forwards of
    Lebesgue hit ``target`` exactly for every iterate in [n0, n-1].

    Levels up to n0 (the coarsest scale below eps) are kept from h, which
    pins the perturbation distance strictly below eps; deeper levels place
    mass inside each level-n0 cell proportionally to the target's stationary
    extension, so the telescoping sum over preimage words reproduces the
    target cylinder values identically.
    """
    if ell < 2:
        raise InvalidInput("window perturbation requires ell >= 2")
    if not h.orientation_preserving:
        raise InvalidInput("h must be an orientation-preserving homeomorphism")
    eps = Fraction(eps)
    if not (ZERO < eps < ONE):
        raise InvalidInput("eps must lie in (0, 1)")
    if target.ell != ell:
        raise InvalidInput("target alphabet does not match ell")
    if not target.is_invariant():
        raise InvalidInput(
            "target cylinder table fails the invariance marginal test"
        )
    n0 = 1
    while Fraction(1, ell**n0) > eps:
        n0 += 1
    p_t = target.level
    if n <= n0 + p_t:
        raise InvalidInput(f"window end n must exceed n0 + p = {n0 + p_t}")
    depth = n - 1 + p_t

    base_family = family_from_homeo(h, ell, n0)
    basepoint_pos = base_family.basepoint
    tables: list[dict[tuple[int, ...], tuple[Fraction, Fraction]]] = []
    total_cells = 0
    for k in range(1, n0 + 1):
        table = {}
        cursor = basepoint_pos
        for idx, cell in enumerate(base_family.cells(k)):
            w = _digits(idx, ell, k)
            table[w] = (cursor, cell.length)
            cursor += cell.length
        tables.append(table)
        total_cells += len(table)

    ext = target.extension_table(depth - n0, max_cells=cell_cap)
    base_level = tables[n0 - 1]
    beta_order = sorted(base_level.items(), key=lambda kv: kv[1][0])
    for k in range(n0 + 1, depth + 1):
        mu_table = ext[k - n0 - 1]
        gamma_order = sorted(mu_table.keys(), key=lambda w: _value(w, ell))
        table = {}
        for beta, (pos_b, len_b) in beta_order:
            cursor = pos_b
            for gamma in gamma_order:
                length = len_b * mu_table[gamma]
                if length > 0:
                    table[beta + gamma] = (cursor, length)
                    cursor += length
        tables.append(table)
        total_cells += len(table)
        if total_cells > cell_cap:
            raise ResourceCap(
                f"family reached {total_cells} positive cells, "
                f"above the cap {cell_cap}"
            )

    return PerturbedConjugator(
        ell=ell,
        n0=n0,
        n=n,
        target=target,
        basepoint=basepoint_pos,
        depth=depth,
        tables=tables,
    )


# ---------------------------------------------------------------------------
# Cylinder push-forward from families or charts


def cylinder_pushforward(
    source: ConsistentFamily | PLCircleMap | PerturbedConjugator,
    ell: int,
    q: int,
    p: int,
) -> CylinderSpec:
    """Cylinder values of the q-th expanding push-forward of Lebesgue via the chart.

    Each value is the total length of the cells whose words end in the given
    suffix, q levels deeper than the requested cylinder level.
    """
    if q < 0 or p < 1:
        raise InvalidInput("need q >= 0 and p >= 1")
    if isinstance(source, PerturbedConjugator):
        return source.cylinder_pushforward(q, p)
    if isinstance(source, PLCircleMap):
        fam = family_from_homeo(source, ell, q + p)
    else:
        fam = source
        if fam.ell != ell:
            raise InvalidInput("family alphabet does not match ell")
        if fam.depth < q + p:
            raise InvalidInput(
                f"family depth {fam.depth} insufficient for level {q + p}"
            )
    scale = ell**p
    acc: dict[int, Fraction] = {}
    for idx, cell in enumerate(fam.cells(q + p)):
        key = idx % scale
        acc[key] = acc.get(key, ZERO) + cell.length
    return CylinderSpec(
        ell, p, {_digits(v, ell, p): mass for v, mass in acc.items()}
    )


def cesaro_cylinder(
    source: ConsistentFamily | PLCircleMap | PerturbedConjugator,
    ell: int,
    n: int,
    p: int,
) -> CylinderSpec:
    """(1/n) sum over k < n of the k-th push-forward cylinder vectors."""
    if n < 1:
        raise InvalidInput("horizon must be >= 1")
    if isinstance(source, PLCircleMap):
        source = family_from_homeo(source, ell, n - 1 + p)
    if isinstance(source, PerturbedConjugator):
        return source.cesaro_spec(n, p)
    acc: dict[tuple[int, ...], Fraction] = {}
    for k in range(n):
        spec = cylinder_pushforward(source, ell, k, p)
        for w, v in spec.values.items():
            acc[w] = acc.get(w, ZERO) + v
    inv = Fraction(1, n)
    return CylinderSpec(ell, p, {w: v * inv for w, v in acc.items()})
