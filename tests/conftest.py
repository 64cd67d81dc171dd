"""Shared generators for seeded-random instances used across the suite."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from circledyn.exact import Arc
from circledyn.measures import CircleMeasure
from circledyn.partitions import ConsistentFamily, homeo_from_family
from circledyn.plmaps import PLCircleMap

F = Fraction


def reference_slopes(bps, vals) -> list[Fraction]:
    """Each piece's slope from its two end points: two Fraction subtractions
    and one division per piece."""
    return [(vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i]) for i in range(len(bps) - 1)]


def reference_forms(bps, vals) -> list[tuple[int, int, int]]:
    """Each piece's line as integers (A, B, D), F(t) = (A + B*t)/D: the
    slope s and intercept c = v - s*b as Fractions, D the lcm of their
    denominators."""
    out = []
    for s, b, v in zip(reference_slopes(bps, vals), bps, vals):
        c = v - s * b
        d = lcm(c.denominator, s.denominator)
        out.append((int(c * d), int(s * d), d))
    return out


def rand_fraction(rng: random.Random, den: int = 64) -> Fraction:
    return F(rng.randrange(den), den)


def random_pl_map(
    rng: random.Random, n_break: int = 6, degree: int = 1, den: int = 64
) -> PLCircleMap:
    """Continuous PL map with random breakpoints and values, given degree."""
    xs = sorted(rng.sample([F(i, den) for i in range(1, den)], n_break - 1))
    bps = [F(0)] + xs + [F(1)]
    vals = [F(rng.randrange(den), den) for _ in bps]
    vals[-1] = vals[0] + degree
    return PLCircleMap(bps, vals)


def random_pl_homeo(
    rng: random.Random, n_break: int = 5, den: int = 64
) -> PLCircleMap:
    """Orientation-preserving PL homeomorphism with random graph."""
    xs = sorted(rng.sample([F(i, den) for i in range(1, den)], n_break - 1))
    bps = [F(0)] + xs + [F(1)]
    increments = [F(rng.randrange(1, den), den) for _ in range(len(bps) - 1)]
    total = sum(increments, start=F(0))
    v0 = F(rng.randrange(den), den)
    vals = [v0]
    for inc in increments:
        vals.append(vals[-1] + inc / total)
    return PLCircleMap(bps, vals)


def random_transversal_homeo(
    rng: random.Random, pairs: int = 2, den: int = 720720
) -> PLCircleMap:
    """Homeomorphism with exactly 2*pairs transversal fixed points.

    Fixed points alternate repelling/attracting; between consecutive fixed
    points the graph is pushed strictly above or below the identity.
    """
    count = 2 * pairs
    while True:
        pts = sorted(rng.sample(range(den), count))
        fixed = [F(p, den) for p in pts]
        if all(fixed[i + 1] - fixed[i] > F(1, 100) for i in range(count - 1)) \
           and (fixed[0] + 1 - fixed[-1]) > F(1, 100):
            break
    bps: list[Fraction] = []
    vals: list[Fraction] = []
    for i in range(count):
        a = fixed[i]
        b = fixed[i + 1] if i + 1 < count else fixed[0] + 1
        mid = (a + b) / 2
        room = (b - a) / 4
        bump = min(room, F(1, 50)) * (1 if i % 2 == 0 else -1)
        bps.extend([a, mid])
        vals.extend([a, mid + bump])
    # rotate the graph so it starts at 0
    pts_lift = list(zip(bps, vals))
    first = pts_lift[0][0]
    pts_lift.append((first + 1, pts_lift[0][1] + 1))
    return PLCircleMap.from_lift_points(pts_lift)


WILD_PRIMES = (16229, 16333, 16427, 16547)  # each has ord(2, p) = p - 1 > 1e4


def wild_base_homeo() -> PLCircleMap:
    """Homeomorphism whose level-2 cells have large-order prime numerators.

    Orbits of the induced expanding conjugates then have periods beyond the
    default horizons, so finite-scale average spreads stay visible.
    """
    lengths = [F(p, 65536) for p in WILD_PRIMES]
    pos = F(0)
    cells2 = []
    for length in lengths:
        cells2.append(Arc(pos, length))
        pos += length
    cells1 = (
        Arc(F(0), lengths[0] + lengths[1]),
        Arc(lengths[0] + lengths[1], lengths[2] + lengths[3]),
    )
    fam = ConsistentFamily(2, 2, (cells1, tuple(cells2)))
    return homeo_from_family(fam)


def lebesgue_on(arcs: list[Arc]) -> tuple[Fraction, CircleMeasure]:
    """(m, mu): the total length m of disjoint arcs, and Lebesgue restricted
    to them and normalised, density 1/m on each arc's pieces."""
    m = sum((a.length for a in arcs), start=F(0))
    return m, CircleMeasure(pieces=[(lo, hi, 1 / m) for a in arcs for lo, hi in a.intervals()])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture(scope="session")
def lebesgue() -> CircleMeasure:
    return CircleMeasure.lebesgue()
