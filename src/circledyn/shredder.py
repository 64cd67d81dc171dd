"""Shredding perturbation for continuous PL circle maps, with exact verifier.

Given f and a scale eps, the constructor subdivides the circle into cells and
subcells, replaces f on the interior of every subcell by a constant anchor
value (keeping f's values at subcell boundaries, affine on two thin collars),
and returns the perturbed map together with a full report: trapping regions
built from interiors of subcells grouped by the eventual cycles of the cell
transition map, the per-region cyclic sets, and exact verification of the
five trapping properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInput, ResourceCap, VerificationFailure
from .exact import (
    ONE,
    ZERO,
    Arc,
    IntervalSet,
    as_count,
    as_fraction,
    mod1,
    signed_circle_offset,
)
from .orbits import orbit_averages
from .plmaps import DEFAULT_BREAKPOINT_CAP, PREIMAGE_INTERVAL_CAP, Observable, PLCircleMap


@dataclass(frozen=True)
class ShredConfig:
    """Partition geometry knobs; default policies fill unset fields.

    ``cells`` is the coarse cell count (must satisfy the fineness condition
    (Lip(f)+1)/cells < eps), ``subdivisions`` the per-cell subcell count
    (must exceed 1/eps); the collar half-width is eps/4 subcells.
    """

    cells: int | None = None
    subdivisions: int | None = None

    def resolved(self, f: PLCircleMap, eps: Fraction) -> "ShredConfig":
        """This config with ``cells`` and ``subdivisions`` filled in and
        checked for f at scale eps."""
        lip = f.lipschitz
        min_cells = math.floor((lip + 1) / eps) + 1
        cells = min_cells if self.cells is None else as_count(self.cells, "cell count")
        if (lip + 1) * Fraction(1, cells) >= eps:
            raise InvalidInput(
                f"infeasible fineness: {cells} cells cannot keep the "
                f"perturbation below {eps}; need at least {min_cells} cells"
            )
        subs = (
            math.floor(1 / eps) + 1
            if self.subdivisions is None
            else as_count(self.subdivisions, "subdivision count")
        )
        if subs * eps <= 1:
            raise InvalidInput(
                f"subdivision count {subs} must exceed 1/eps = {1 / eps}"
            )
        breakpoints = 3 * cells * subs + 1
        if breakpoints > DEFAULT_BREAKPOINT_CAP:
            raise ResourceCap(
                f"{cells} cells x {subs} subdivisions would give {breakpoints} "
                f"breakpoints, above the breakpoint cap {DEFAULT_BREAKPOINT_CAP}"
            )
        return ShredConfig(cells, subs)


def _length_sum(arcs: Iterable[Arc]) -> Fraction:
    """Total length of the arcs, summed as integers over one common
    denominator, as ``IntervalSet.measure`` sums its intervals."""
    lengths = [a.length for a in arcs]
    den = math.lcm(*(x.denominator for x in lengths))
    return Fraction(sum(den // x.denominator * x.numerator for x in lengths), den)


@dataclass(frozen=True)
class Region:
    """One trapping region: interiors of the j-th subcells over a tau basin."""

    label: tuple[int, int]  # (orbit index r, subdivision j)
    arcs: tuple[Arc, ...]  # open delta-interiors

    def measure(self) -> Fraction:
        return _length_sum(self.arcs)

    def open_set(self) -> IntervalSet:
        return IntervalSet.from_arcs(self.arcs, closed=False)

    def closed_set(self) -> IntervalSet:
        return IntervalSet.from_arcs(self.arcs, closed=True)


@dataclass
class ItemVerdict:
    passed: bool
    slack: Fraction | None
    detail: str


@dataclass
class TrappingReport:
    """The certificate the shredder built, plus verification results.

    ``eps``, ``tau`` and ``subdivisions`` fix the grid (see
    ``_grid_integers``); ``regions`` and ``cycles`` are what
    ``verify_shredding`` checks.
    """

    eps: Fraction
    tau: tuple[int, ...]
    subdivisions: int
    regions: tuple[Region, ...]
    cycles: dict[tuple[int, int], tuple[Arc, ...]]
    verification: "ShredVerification | None" = None

    @property
    def region_count(self) -> int:
        return len(self.regions)

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Periodic orbits of tau."""
        return _tau_orbits(self.tau)[0]

    @property
    def basins(self) -> tuple[tuple[int, ...], ...]:
        """The cells tau carries into each orbit, in increasing order; the
        region labelled (r, j) lies over the cells of basin r."""
        return _tau_basins(self.tau)


@dataclass
class ShredVerification:
    items: dict[str, ItemVerdict]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.items.values())


# ---------------------------------------------------------------------------
# Construction


def _tau_orbits(tau: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Periodic orbits of a functional graph and the orbit index of each i.

    One pass: each walk follows tau from an unvisited node until it meets a
    node seen before; a node on the walk itself closes a new cycle.  Orbits
    are ordered by their least member and listed from it.
    """
    n = len(tau)
    cycle_of = [-1] * n  # index into cycles; -2 while on the current walk
    cycles: list[list[int]] = []
    for i in range(n):
        walk = []
        j = i
        while cycle_of[j] == -1:
            cycle_of[j] = -2
            walk.append(j)
            j = tau[j]
        if cycle_of[j] == -2:
            cid = len(cycles)
            cycles.append(walk[walk.index(j):])
        else:
            cid = cycle_of[j]
        for k in walk:
            cycle_of[k] = cid
    order = sorted(range(len(cycles)), key=lambda c: min(cycles[c]))
    rank = [0] * len(cycles)
    orbits = []
    for r, c in enumerate(order):
        rank[c] = r
        cyc = cycles[c]
        start = cyc.index(min(cyc))
        orbits.append(tuple(cyc[start:] + cyc[:start]))
    return tuple(orbits), [rank[c] for c in cycle_of]


def _tau_basins(tau: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Per periodic orbit of tau (in ``_tau_orbits`` order), the cells of its
    basin in increasing order."""
    orbits, basin = _tau_orbits(tau)
    members: list[list[int]] = [[] for _ in orbits]
    for i, r in enumerate(basin):
        members[r].append(i)
    return tuple(map(tuple, members))


def _grid_integers(
    eps: Fraction, n: int, m: int
) -> tuple[int, tuple[int, int, int], list[list[tuple[int, int, int]]]]:
    """The shredding grid of n cells of m subcells each at scale eps, as
    numerators over the common denominator den = 4*n*m*den(eps).

    Subcell (i, j) starts at (i*m + j)/(n*m).  With delta = eps/(4*n*m), its
    interior is [start + delta, start + 1/(n*m) - delta] and its anchor is
    start + 1/(2*n*m).  Returns den, the numerators of delta, the subcell
    length and the interior length, and per cell the numerators of the
    (start, interior start, anchor) of each of its subcells.  ``shred``
    and both directions of the report record read these integers.
    """
    en, ed = eps.numerator, eps.denominator
    step = 4 * ed  # the subcell length over den
    rows = [
        [
            (a, a + en, a + 2 * ed)
            for a in range(i * m * step, (i + 1) * m * step, step)
        ]
        for i in range(n)
    ]
    return n * m * step, (en, step, step - 2 * en), rows


def _grid(eps: Fraction, n: int, m: int) -> tuple[Fraction, Fraction, Fraction, list]:
    """``_grid_integers`` as Fractions: delta, the subcell length, the
    interior length and, per cell, the (start, interior start, anchor) of
    each of its subcells."""
    den, lengths, rows = _grid_integers(eps, n, m)
    delta, sub_len, inner_len = (Fraction(x, den) for x in lengths)
    return delta, sub_len, inner_len, [
        [(Fraction(a, den), Fraction(b, den), Fraction(c, den)) for a, b, c in row]
        for row in rows
    ]


def shred(
    f: PLCircleMap,
    eps: Fraction,
    cfg: ShredConfig | None = None,
) -> tuple[PLCircleMap, TrappingReport]:
    """Perturb f at scale eps into a map with small trapping regions.

    Returns the perturbed map g (c0-distance to f strictly below eps) and the
    report describing the grid, regions, and cycles.  Verification is left
    to ``verify_shredding``.
    """
    eps = as_fraction(eps)
    if not (ZERO < eps < ONE):
        raise InvalidInput("eps must lie in (0, 1)")
    rc = (cfg or ShredConfig()).resolved(f, eps)
    n_cells, n_subs = rc.cells, rc.subdivisions
    _, _, inner_len, grid = _grid(eps, n_cells, n_subs)
    interiors = [[Arc(b, inner_len) for _, b, _ in row] for row in grid]

    # cell transition: where the midpoint of each cell lands
    mids = [Fraction(2 * i + 1, 2 * n_cells) for i in range(n_cells)]
    # floor: y in [t/n, (t+1)/n)
    tau = tuple(int(f.evaluate(x) * n_cells) for x in mids)

    # perturbed map: keep f at subcell boundaries, constant anchor on the
    # interior, affine collars; anchor lift representative chosen nearest the
    # image of the defining midpoint so the lift stays within the fine scale
    bps: list[Fraction] = []
    vals: list[Fraction] = []
    for i in range(n_cells):
        y_hat = f.lift_evaluate(mids[i])
        for (a, b, _), (_, _, target) in zip(grid[i], grid[tau[i]]):
            a_hat = y_hat + signed_circle_offset(target, mod1(y_hat))
            bps.extend([a, b, b + inner_len])
            vals.extend([f.lift_evaluate(a), a_hat, a_hat])
    bps.append(ONE)
    vals.append(f.lift_evaluate(ONE))
    g = PLCircleMap(bps, vals)

    regions = [
        Region(label=(r, j), arcs=tuple(interiors[i][j] for i in members))
        for r, members in enumerate(_tau_basins(tau))
        for j in range(n_subs)
    ]
    # cycle sets run from tau(alpha) round to alpha, the orbit's least member
    cycles = {
        (r, j): tuple(interiors[i][j] for i in orbit[1:] + orbit[:1])
        for r, orbit in enumerate(_tau_orbits(tau)[0])
        for j in range(n_subs)
    }

    report = TrappingReport(
        eps=eps,
        tau=tau,
        subdivisions=n_subs,
        regions=tuple(regions),
        cycles=cycles,
    )
    return g, report


# ---------------------------------------------------------------------------
# Verification


def _first_overlap(regions: Sequence[Region]) -> str:
    """Name the first region whose arcs overlap each other or an earlier
    region; called when the arcs sum to more than their union, so one does."""
    seen = IntervalSet()
    for reg in regions:
        u = reg.open_set()
        if u.measure() != reg.measure():
            return f"the arcs of region {reg.label} overlap"
        grown = seen.union(u)
        if grown.measure() != seen.measure() + u.measure():
            return f"region {reg.label} overlaps an earlier region"
        seen = grown


def _per_region(checks: Iterable[Fraction | str]) -> tuple[Fraction | None, str | None]:
    """The rule of every item checked region by region: each check is a
    margin or the detail of a failure, and the first failure ends the walk.
    Returns the least margin seen and the failure, or None."""
    least = None
    for c in checks:
        if isinstance(c, str):
            return least, c
        least = c if least is None or c < least else least
    return least, None


def _plateau_arcs(g: PLCircleMap, arcs: Iterable[Arc]) -> bool:
    """Whether item v(c) may take the plateau route on these arcs: each has
    positive length, and none wraps past 0 when g's degree is nonzero (its
    closure meets the lift at 1 and at 0, whose values differ by the
    degree).  Decided on the arcs' integers."""
    for arc in arcs:
        s, n = arc.start, arc.length
        ln, ld = n.numerator, n.denominator
        if not ln:
            return False
        if g.degree and s.numerator * ld + ln * s.denominator > s.denominator * ld:
            return False
    return True


def _chase_failure(
    g: PLCircleMap,
    points: Iterable[tuple[int, int]],
    cycle_open: IntervalSet,
    n_steps: int,
) -> bool:
    """Whether some point p/q, given as the integer pair (p, q) with q > 0,
    fails to enter the open cycle union within n_steps - 1 steps of g.

    Each point's exact step count to the cycle is recorded, keyed by its
    integers, with those of the points on its walk, so a walk that meets
    one already counted stops there, and chains that merge are walked
    once.  A step is ``PLCircleMap.step``, the map's one-point step, which
    builds no Fraction and makes the step form of the pieces the walks
    visit only."""
    g_step = g.step
    steps_to: dict[tuple[int, int], int] = {}
    bound = n_steps - 1
    for p, q in points:
        walk = []
        while True:
            key = p, q
            known = steps_to.get(key)
            if known is None and cycle_open.contains_ratio(p % q, q):
                known = 0
            if known is not None:
                break
            if len(walk) >= bound:
                return True
            walk.append(key)
            p, q = g_step(p, q)
        total = len(walk) + known
        if total > bound:
            return True
        for k in walk:
            steps_to[k] = total
            total -= 1
    return False


def _step_margin(g: PLCircleMap, w: Arc, nxt: Arc) -> Fraction | None:
    """Item v(b) for one cycle step: the least distance from g(cl w) to the
    boundary of the open arc nxt, or None when nxt does not hold it.

    The image is the lift range [m, M] of g over cl w
    (``PLCircleMap.lift_range``).  Shifted by the integer k that puts m in
    [a, a + 1), where a is nxt's start and L its length, it lies in the
    open arc exactly when a < m - k and M - k < a + L, and the margin is
    the smaller of the two gaps.  So an arc of length 0 holds no image, and
    no arc holds an image that spans a whole turn or more.  Every test is
    an integer cross product, and one ``Fraction`` is built, for the
    margin: it equals ``min_gap_to_boundary`` of the image set within the
    open arc's set, and None stands for "not covered".
    """
    mn, md, xn, xd = g.lift_range(w)
    a, length = nxt.start, nxt.length
    an, ad, ln, ld = a.numerator, a.denominator, length.numerator, length.denominator
    # m - a = k + left_n / left_d with 0 <= left_n < left_d
    left_d = md * ad
    k, left_n = divmod(mn * ad - an * md, left_d)
    if not left_n:
        return None
    # a + L - (M - k), over ad * ld * xd
    right_d = ad * ld * xd
    right_n = ((an + k * ad) * ld + ln * ad) * xd - xn * ad * ld
    if right_n <= 0:
        return None
    if left_n * right_d <= right_n * left_d:
        return Fraction(left_n, left_d)
    return Fraction(right_n, right_d)


def verify_shredding(
    g: PLCircleMap,
    report: TrappingReport,
    preimage_interval_cap: int = PREIMAGE_INTERVAL_CAP,
) -> ShredVerification:
    """Exact verification of the five trapping-region properties.

    Items i, iv and v walk the listed regions by the rule of ``_per_region``.
    The slack of item v is the least margin seen, also before a failure;
    items i and iv report a slack only when they pass.  A region's closed
    image is one ``image_of_set`` sweep, and item i's margin is one
    ``min_gap_to_boundary`` merge.  Each cycle step of item v(b) is decided
    on integers by ``_step_margin``, the lift range of g over the closed
    cycle arc against the next open arc, with no ``IntervalSet`` built.
    The preimage route of item v(c) passes ``preimage_interval_cap`` to
    each preimage step: ``ResourceCap`` as soon as a step's hits, before
    they are merged, or the union of the steps pass it.  The cap is read by
    ``exact.as_count`` first, whichever route runs."""
    as_count(preimage_interval_cap, "preimage interval cap")
    eps = report.eps
    regions = report.regions
    n_steps = len(report.tau)
    items: dict[str, ItemVerdict] = {}

    # per-region data, in the listed order; measures of the open sets, so
    # arcs listed twice or regions that overlap cannot inflate them
    opens = [reg.open_set() for reg in regions]
    closures = [reg.closed_set() for reg in regions]
    images = [g.image_of_set(c) for c in closures]
    measures = [u.measure() for u in opens]

    def margin(outer: IntervalSet, inner: IntervalSet, detail: str) -> Fraction | str:
        gap = outer.min_gap_to_boundary(inner)
        return detail if gap is None else gap

    # i) forward invariance: g(closure U) inside the open U
    least, failure = _per_region(
        margin(u, img, f"region {reg.label}: image escapes")
        for reg, u, img in zip(regions, opens, images)
    )
    items["i"] = ItemVerdict(
        not failure, None if failure else least, failure or "g(cl U) strictly inside U"
    )

    # ii) each region has measure < eps
    max_measure = max(measures)
    items["ii"] = ItemVerdict(
        max_measure < eps, eps - max_measure, f"max m(U) = {max_measure}"
    )

    # iii) regions cover measure > 1 - eps, and are pairwise disjoint
    covered = IntervalSet.union_all(opens).measure()
    summed = _length_sum(a for reg in regions for a in reg.arcs)
    detail_iii = f"m(union U) = {covered}"
    if summed != covered:
        detail_iii += f", but the arcs sum to {summed}: {_first_overlap(regions)}"
    items["iii"] = ItemVerdict(
        covered > ONE - eps and summed == covered, covered - (ONE - eps), detail_iii
    )

    # iv) crushing: m(g(U)) < eps * m(U)
    least, failure = _per_region(
        bound - m if m < bound else f"region {reg.label}: m(g(U)) = {m} >= {bound}"
        for reg, m, bound in zip(
            regions, (img.measure() for img in images), (eps * x for x in measures)
        )
    )
    items["iv"] = ItemVerdict(
        not failure, None if failure else least, failure or "images crushed"
    )

    def absorption_failure(
        reg: Region, closure: IntervalSet, image: IntervalSet, cycle_open: IntervalSet
    ) -> str | None:
        """Item v(c): the failure detail, or None when closure(U) lies in
        the open cycle union within n_steps preimages."""
        # each closed arc's image is one point exactly when the region's
        # image is points only: g^m(closure arc) = {y_m} for m >= 1, so
        # absorption reduces to chasing the plateau values
        ivs = image.ivs
        if _plateau_arcs(g, reg.arcs) and all(iv.ln == iv.hn and iv.ld == iv.hd for iv in ivs):
            if _chase_failure(g, ((iv.ln, iv.ld) for iv in ivs), cycle_open, n_steps):
                return f"{reg.label}: plateau value never reaches cycle"
            return None
        # general route: iterated preimages of the open cycle union
        s = cycle_open
        for _ in range(n_steps + 1):
            if s.covers(closure):
                return None
            s = s.union(g.preimage_of_set(s, preimage_interval_cap))
            if len(s.ivs) > preimage_interval_cap:
                raise ResourceCap(
                    f"preimage iteration for region {reg.label} reached {len(s.ivs)} "
                    f"intervals, above the interval cap {preimage_interval_cap}"
                )
        return None if s.covers(closure) else f"{reg.label}: closure(U) not absorbed"

    # v) cycles of small diameter absorbing the region
    def absorption():
        for reg, closure, image in zip(regions, closures, images):
            cyc = report.cycles[reg.label]
            # (a) diameters
            for w in cyc:
                d = w.diameter()
                yield eps - d if d < eps else f"{reg.label}: diam W = {d} >= eps"
            # (b) cyclic forward containment
            for idx, w in enumerate(cyc):
                gap = _step_margin(g, w, cyc[(idx + 1) % len(cyc)])
                yield f"{reg.label}: g(cl W^{idx+1}) escapes" if gap is None else gap
            # (c) closure(U) absorbed by the cycle within n_steps preimages
            cycle_open = IntervalSet.from_arcs(cyc, closed=False)
            if failure := absorption_failure(reg, closure, image, cycle_open):
                yield failure

    least, failure = _per_region(absorption())
    items["v"] = ItemVerdict(
        not failure, least, failure or "cycles absorb the regions"
    )

    verification = ShredVerification(items)
    report.verification = verification
    return verification


# ---------------------------------------------------------------------------
# Witnesses


def singularity_witness(
    g: PLCircleMap, report: TrappingReport
) -> tuple[tuple[Arc, ...], Fraction, Fraction]:
    """The total-singularity witness V: m(V) > 1-eps while m(g(V)) < eps."""
    if report.verification is None or not report.verification.all_passed:
        raise VerificationFailure(
            "singularity witness requires a fully verified report"
        )
    arcs = tuple(a for reg in report.regions for a in reg.arcs)
    m_v = _length_sum(arcs)
    closed = IntervalSet.from_arcs(arcs, closed=True)
    m_gv = g.image_of_set(closed).measure()
    if not (m_v > ONE - report.eps and m_gv < report.eps):
        raise VerificationFailure(
            f"no valid witness: m(V) = {m_v}, m(g(V)) = {m_gv}"
        )
    return arcs, m_v, m_gv


@dataclass(frozen=True)
class BirkhoffBracket:
    cycle_mean: Fraction  # average of phi over one exact cycle from x
    oscillation: Fraction  # max oscillation of phi over the cycle sets
    remainder: int  # r = n mod k
    lower: Fraction
    upper: Fraction
    empirical: Fraction
    contains: bool


def birkhoff_gap_bound(
    g: PLCircleMap,
    report: TrappingReport,
    phi: Observable,
    x: Fraction,
    n: int,
) -> BirkhoffBracket:
    """Exact finite-average bracket around the cycle mean for x in a cycle set."""
    as_count(n, "horizon")
    x = mod1(as_fraction(x))
    home = None
    for label, cyc in report.cycles.items():
        for idx, w in enumerate(cyc):
            if w.length > 0 and w.contains(x):
                home = (label, idx)
                break
        if home:
            break
    if home is None:
        raise InvalidInput("point does not lie in any cycle set of the report")
    label, _ = home
    cyc = report.cycles[label]
    k = len(cyc)
    gamma = sum((phi.evaluate(p) for p in g.orbit(x, k)), start=ZERO) / k
    osc = max(phi.oscillation_on_arc(w) for w in cyc)
    r = n % k
    norm = phi.sup_norm
    lower = gamma - osc - Fraction(r, n) * norm
    upper = gamma + osc + Fraction(r, n) * norm
    res = orbit_averages(g, x, [phi], [n])
    empirical = res.averages[0][n]
    return BirkhoffBracket(
        cycle_mean=gamma,
        oscillation=osc,
        remainder=r,
        lower=lower,
        upper=upper,
        empirical=empirical,
        contains=lower <= empirical <= upper,
    )
