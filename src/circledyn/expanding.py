"""Linear expanding maps, their conjugacy charts, and window perturbations.

The conjugation map sends an orientation-preserving homeomorphism h to
f = h^-1 E h, where E is the degree-l linear expanding map.  Push-forwards of
Lebesgue under iterates of E through h are computed exactly at the level of
base-l cylinder values via the partition family of h.  ``wicked_perturb``
rebuilds the family so that an entire window of push-forward iterates matches
a prescribed invariant cylinder table exactly; targets with vanishing
cylinders produce degenerate families (empty cells) whose realization is a
monotone jump function rather than a homeomorphism.  The result is itself a
``ConsistentFamily``, whose methods give its cylinder and distance views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, ResourceCap
from .exact import ONE, ZERO, as_count, as_fraction
from .measures import CylinderSpec
from .partitions import ConsistentFamily, family_from_homeo
from .plmaps import PLCircleMap

DEFAULT_CELL_CAP = 500_000
# the cap on the word digits of a family's levels below the kept ones: a
# level-q cell is stored under a q-digit tuple, about 8 bytes a digit
WORD_DIGIT_CAP = 10**7


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
    as_count(ell, "alphabet size", 2)
    if not h.orientation_preserving:
        raise InvalidInput("conjugator must be an orientation-preserving homeomorphism")
    return [
        PLCircleMap.rotation(Fraction(j, ell - 1)).compose(h)
        for j in range(ell - 1)
    ]


# ---------------------------------------------------------------------------
# Window perturbation


@dataclass(frozen=True, init=False)
class PerturbedConjugator(ConsistentFamily):
    """Result of ``wicked_perturb``: a partition family realizing the window.

    Levels up to ``n0`` are those of the base homeomorphism; deeper levels
    follow ``target``, so the push-forwards q = n0 .. n-1 match it.  When
    every cylinder of the target is positive the family is realized by an
    honest PL homeomorphism; otherwise the realization is a monotone
    function with jumps across the grid intervals of the empty cells, and
    only the family view is exact.
    """

    n0: int
    n: int
    target: CylinderSpec


def wicked_perturb(
    h: PLCircleMap,
    ell: int,
    target: CylinderSpec,
    eps: Fraction,
    n: int,
) -> PerturbedConjugator:
    """Rebuild h's partition family so that the expanding push-forwards of
    Lebesgue hit ``target`` exactly for every iterate in [n0, n-1].

    Levels up to n0 (the coarsest scale below eps) are kept from h, which
    pins the perturbation distance strictly below eps; deeper levels place
    mass inside each level-n0 cell proportionally to the target's stationary
    extension, so the telescoping sum over preimage words reproduces the
    target cylinder values identically.
    """
    as_count(ell, "alphabet size", 2)
    if not h.orientation_preserving:
        raise InvalidInput("h must be an orientation-preserving homeomorphism")
    eps = as_fraction(eps)
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
    as_count(n, "window end n")
    if n <= n0 + p_t:
        raise InvalidInput(f"window end n must exceed n0 + p = {n0 + p_t}")
    depth = n - 1 + p_t
    cell_cap = DEFAULT_CELL_CAP

    # kept level k holds ell^k cells, and a deeper level one cell per kept
    # level-n0 cell and extension value, as both are positive.  An extension
    # level holds at least one value, so a deeper level q at least ell^n0
    # cells of q digits: both bounded before the extension is listed
    kept = (ell ** (n0 + 1) - ell) // (ell - 1)
    least_cells = kept + ell**n0 * (depth - n0)
    digits = ell**n0 * (depth * (depth + 1) - n0 * (n0 + 1)) // 2
    if digits > WORD_DIGIT_CAP:
        raise ResourceCap(
            f"family needs at least {least_cells} positive cells, above the cap {cell_cap}"
            if least_cells > cell_cap
            else f"family words need at least {digits} digits, above the cap {WORD_DIGIT_CAP}"
        )
    ext = target.extension_table(depth - n0, max_cells=cell_cap)
    total_cells = kept + ell**n0 * sum(map(len, ext))
    if total_cells > cell_cap:
        raise ResourceCap(
            f"family needs {total_cells} positive cells, above the cap {cell_cap}"
        )
    base = family_from_homeo(h, ell, n0)
    tables = list(base.tables)
    for mu_table in ext:
        gamma_order = sorted(mu_table)
        table = {}
        for beta, (pos_b, len_b) in tables[n0 - 1].items():
            cursor = pos_b
            for gamma in gamma_order:
                length = len_b * mu_table[gamma]
                table[beta + gamma] = (cursor, length)
                cursor += length
        tables.append(table)

    return PerturbedConjugator.from_tables(
        ell, base.basepoint, tables, n0=n0, n=n, target=target
    )

