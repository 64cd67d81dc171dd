"""Rotation numbers, basin decompositions, and the w-taxonomy diagnostics.

Homeomorphisms with rational rotation number admit an exact structural
analysis: every orbit converges monotonically to a periodic orbit, so
physical measures are periodic Dirac measures whose basins are unions of the
complementary intervals of the periodic set.  Non-invertible maps go through
an exact orbit protocol: eventually periodic orbits (detected by exact
repetition) certify Birkhoff limits; others record finite-horizon average
spreads.  Every verdict is three-valued: the definitions quantify over
almost-every point and all invariant measures, which no finite protocol can
decide, so evidence is witnessed or refuted only at declared tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Sequence

from .errors import InvalidInput, ResourceCap
from .exact import ONE, ZERO, Arc, IntervalSet, as_count, as_fraction, mod1
from .measures import CircleMeasure, CylinderSpec, cesaro, dirac_periodic
from .orbits import check_horizons, grid_averages
from .plmaps import Observable, PLCircleMap, PeriodicComponent
from .shredder import TrappingReport, singularity_witness, verify_shredding

__all__ = [
    "RotationNumber",
    "rotation_number",
    "BasinDecomposition",
    "PhysicalMeasure",
    "basin_decomposition",
    "WProtocol",
    "LabelVerdict",
    "WDiagnostics",
    "classify",
]

W_LABELS = ("wonderful", "wholesome", "weird", "wacky", "wicked")


@dataclass(frozen=True)
class RotationNumber:
    value: Fraction | None  # exact rational rotation number, when detected
    period: int | None  # minimal period realizing it
    bracket: tuple[Fraction, Fraction] | None  # interval estimate otherwise


def rotation_number(h: PLCircleMap, max_period: int = 16) -> RotationNumber:
    """Exact rotation number p/q: the first mediant (q <= max_period) of a
    Stern–Brocot descent with lift(h^q)(x) = x + p solvable; otherwise the
    Farey neighbours a/b < c/d of order max_period around it.
    """
    return _rotation_search(h, max_period)[0]


# The rotation search refuses a composition that costs (as in ``cost`` below)
# over this many times h∘h: powers no larger than h pass at any max_period.
_POWER_GROWTH_CAP = 2**15


def _rotation_search(
    h: PLCircleMap, max_period: int
) -> tuple[RotationNumber, PLCircleMap | None]:
    """The rotation number of h, and h^q when it is detected at period q.

    A Stern–Brocot descent (Concrete Mathematics §4.5) between Farey
    neighbours a/b < rho < c/d, each end (a, b, h^b, w) with h^b + w the true
    lift.  No denominator on the path to r/s reaches s, so the first power
    with a fixed point is h^s.
    """
    if not h.is_homeomorphism or h.degree != 1:
        raise InvalidInput("rotation number requires an orientation-preserving homeomorphism")
    as_count(max_period, "max period")

    def cost(f: PLCircleMap, g: PLCircleMap) -> int:  # breakpoints times bits
        bits = sum(max(v.denominator.bit_length() for v in m.breakpoints + m.lift_values)
                   for m in (f, g))
        return (len(f.breakpoints) + len(g.breakpoints)) * (bits + 64)

    disp = [v - x for x, v in zip(h.breakpoints, h.lift_values)]
    r = ceil(min(disp))
    if r <= max(disp):
        return RotationNumber(Fraction(r), 1, None), h
    ends, budget = [(r - 1, 1, h, 0), (r, 1, h, 0)], _POWER_GROWTH_CAP * cost(h, h)
    while ends[0][1] + ends[1][1] <= max_period:
        (a, b, f, wf), (c, d, g, wg) = ends
        if cost(f, g) > budget:
            raise ResourceCap(f"rotation search at bracket ({a}/{b}, {c}/{d}): powers outgrew h")
        hq = f.compose(g)
        w = wf + wg + floor(f.lift_evaluate(g.lift_values[0]))
        disp = [v - x + w - a - c for x, v in zip(hq.breakpoints, hq.lift_values)]
        if min(disp) <= 0 <= max(disp):
            return RotationNumber(Fraction(a + c, b + d), b + d, None), hq
        # below rho the mediant replaces a/b, above it c/d
        ends[max(disp) < 0] = (a + c, b + d, hq, w)
    (a, b, _, _), (c, d, _, _) = ends
    return RotationNumber(None, None, (Fraction(a, b), Fraction(c, d))), None


@dataclass(frozen=True)
class PhysicalMeasure:
    measure: CircleMeasure
    orbit_representative: Fraction
    period: int
    basin_arcs: tuple[Arc, ...]
    basin_measure: Fraction


@dataclass(frozen=True)
class BasinDecomposition:
    rotation: Fraction
    period: int
    periodic_components: tuple[PeriodicComponent, ...]
    complementary: tuple[tuple[Arc, str], ...]  # (interval, "left"|"right")
    physical_measures: tuple[PhysicalMeasure, ...]
    periodic_set_measure: Fraction

    @property
    def basin_total(self) -> Fraction:
        return sum(
            (pm.basin_measure for pm in self.physical_measures), start=ZERO
        )


def basin_decomposition(
    h: PLCircleMap, max_period: int = 16
) -> BasinDecomposition:
    """Exact periodic set, complementary dynamics, and physical measures."""
    rot, hq = _rotation_search(h, max_period)
    if rot.value is None:
        raise InvalidInput(
            f"rotation number not rational within period {max_period}; "
            f"bracket {rot.bracket}"
        )
    return _decompose(h, rot, hq)


def _decompose(
    h: PLCircleMap, rot: RotationNumber, hq: PLCircleMap
) -> BasinDecomposition:
    """The basin decomposition of h, read from the power h^q that detected rot.

    No smaller power of h has a fixed point, so r/q is in lowest terms and
    every periodic orbit of h has minimal period q.
    """
    period = rot.period
    comps = tuple(
        replace(c, minimal_period=period) for c in hq.fixed_point_components()
    )

    arcs = [c.arc for c in comps if not c.is_point]
    per_set = IntervalSet.union_all(
        [IntervalSet.from_arcs(arcs, closed=True)]
        + [IntervalSet.point(c.point) for c in comps if c.is_point]
    )
    per_measure = per_set.measure()

    def displacement_level(x: Fraction) -> Fraction:
        return hq.lift_evaluate(x) - x

    gaps: list[tuple[Fraction, Fraction]] = []  # (start, length), start in [0,1)
    ivs = per_set.ivs
    if not ivs:
        raise InvalidInput(
            "homeomorphism with rational rotation number must have periodic points"
        )
    if per_measure != ONE:
        for idx in range(len(ivs)):
            cur_hi = ivs[idx].hi
            if idx + 1 < len(ivs):
                nxt_lo = ivs[idx + 1].lo
            else:
                nxt_lo = ivs[0].lo + ONE
            length = nxt_lo - cur_hi
            if length > 0:
                gaps.append((mod1(cur_hi), length))

    complementary: list[tuple[Arc, str]] = []
    basins: dict[Fraction, list[Arc]] = {}
    for start, length in gaps:
        k_level = displacement_level(start)
        if k_level.denominator != 1:
            raise InvalidInput("gap endpoint is not exactly periodic")
        mid = mod1(start + length / 2)
        sign_val = displacement_level(mid) - k_level
        arc = Arc(start, length)
        if sign_val > 0:
            side = "right"
            att = arc.end
        elif sign_val < 0:
            side = "left"
            att = start
        else:
            raise InvalidInput("interior of a complementary interval contains periodic points")
        complementary.append((arc, side))
        basins.setdefault(min(h.orbit(att, period)), []).append(arc)

    physical = []
    for rep in sorted(basins):
        arcs = tuple(basins[rep])
        total = sum((a.length for a in arcs), start=ZERO)
        physical.append(
            PhysicalMeasure(
                measure=dirac_periodic(h, rep, period),
                orbit_representative=rep,
                period=period,
                basin_arcs=arcs,
                basin_measure=total,
            )
        )

    decomposition = BasinDecomposition(
        rotation=rot.value,
        period=period,
        periodic_components=comps,
        complementary=tuple(complementary),
        physical_measures=tuple(physical),
        periodic_set_measure=per_measure,
    )
    if decomposition.basin_total + per_measure != ONE:
        raise InvalidInput(
            "basin measures and periodic set do not partition the circle"
        )
    return decomposition


# ---------------------------------------------------------------------------
# w-taxonomy diagnostics


# Fixed scales of the protocol: an average spread above GAP_THRESHOLD counts
# as large; a Cesaro spec within WICKED_TOL of a declared spec hits it; orbit
# points whose denominator outgrows DENOMINATOR_BIT_CAP bits (``orbits``) are
# inconclusive; the short Cesaro run of ``_wicked_verdict`` stops at the last
# of CESARO_HORIZONS or at CESARO_COMPLEXITY_CAP; the grid walks of
# ``_classify_general`` take at most GRID_STEP_CAP steps, grid size times the
# largest horizon (ten times the default protocol).
GAP_THRESHOLD = Fraction(1, 200)
WICKED_TOL = Fraction(1, 16)
CESARO_HORIZONS = (1, 2, 4, 8)
CESARO_COMPLEXITY_CAP = 20000
GRID_STEP_CAP = 10**8


@dataclass(frozen=True)
class WProtocol:
    """Finite-scale protocol: grid, horizons, battery, tolerance and the
    period bound of the rotation search."""

    grid_size: int = 1000
    horizons: tuple[int, ...] = (100, 1000, 10000)
    battery_centers: tuple[Fraction, ...] = tuple(
        Fraction(j, 8) for j in range(8)
    )
    tol: Fraction = Fraction(1, 100)
    max_period: int = 16

    def __post_init__(self) -> None:
        as_count(self.grid_size, "grid size")
        check_horizons(self.horizons)
        as_count(self.max_period, "max period")
        object.__setattr__(self, "tol", as_fraction(self.tol))
        centers = self.battery_centers
        if isinstance(centers, str) or not isinstance(centers, Iterable):
            raise InvalidInput(f"battery_centers must be a sequence of rationals, got {centers!r}")
        object.__setattr__(self, "battery_centers", tuple(map(as_fraction, centers)))
        if not ZERO < self.tol < ONE:
            raise InvalidInput(f"tol must lie in (0, 1), got {self.tol}")
        if not self.battery_centers:
            raise InvalidInput("battery_centers must not be empty")


@dataclass
class LabelVerdict:
    status: str  # witnessed | refuted | inconclusive
    evidence: dict

    @property
    def witnessed(self) -> bool:
        return self.status == "witnessed"


@dataclass
class WDiagnostics:
    labels: dict[str, LabelVerdict]
    derived_from_square: bool = False
    protocol: WProtocol = field(default_factory=WProtocol)

    def __post_init__(self) -> None:
        # conflicting finite-scale evidence is downgraded, never co-witnessed
        for a, b in (("wholesome", "wacky"), ("wonderful", "weird")):
            if self.labels[a].witnessed and self.labels[b].witnessed:
                for key in (a, b):
                    v = self.labels[key]
                    self.labels[key] = LabelVerdict(
                        "inconclusive",
                        {**v.evidence, "conflict": f"{a} and {b} both scored"},
                    )

    def status(self, label: str) -> str:
        return self.labels[label].status


def classify(
    f: PLCircleMap,
    protocol: WProtocol | None = None,
    report: TrappingReport | None = None,
    trajectory: Sequence[tuple[int, CylinderSpec]] | None = None,
    declared_specs: Sequence[CylinderSpec] | None = None,
) -> WDiagnostics:
    """Finite-scale w-taxonomy diagnostics; evidence, never proof.

    ``report`` supplies the trapping certificate of a shredded map (enables
    the totally-singular witness and the small-basin bound on a map that is
    not a homeomorphism); it is verified against f, whatever verification it
    carries.  ``trajectory``
    supplies precomputed Cesaro cylinder specs (horizon, spec) for the
    w5 check; otherwise a short push-forward Cesaro run is attempted against
    ``declared_specs``.
    """
    protocol = protocol or WProtocol()
    if f.is_homeomorphism:
        if f.degree == 1:
            return _classify_homeo(f, protocol, trajectory, declared_specs)
        diag = _classify_homeo(
            f.compose(f), protocol, trajectory, declared_specs
        )
        for verdict in diag.labels.values():
            verdict.evidence["derived_from_square"] = True
        diag.derived_from_square = True
        return diag
    return _classify_general(f, protocol, report, trajectory, declared_specs)


def _classify_homeo(
    h: PLCircleMap,
    protocol: WProtocol,
    trajectory: Sequence[tuple[int, CylinderSpec]] | None,
    declared_specs: Sequence[CylinderSpec] | None,
) -> WDiagnostics:
    rot, hq = _rotation_search(h, protocol.max_period)
    if rot.value is None:
        ev = {"rotation_bracket": rot.bracket}
        labels = {
            label: LabelVerdict("inconclusive", dict(ev)) for label in W_LABELS
        }
        return WDiagnostics(labels, protocol=protocol)

    decomp = _decompose(h, rot, hq)
    coverage = decomp.basin_total
    ev_common = {
        "rotation_number": rot.value,
        "period": decomp.period,
        "basin_coverage": coverage,
        "periodic_set_measure": decomp.periodic_set_measure,
        "physical_measure_count": len(decomp.physical_measures),
    }
    labels: dict[str, LabelVerdict] = {}
    labels["wonderful"] = LabelVerdict(
        "witnessed" if coverage >= ONE - protocol.tol else "refuted",
        {
            **ev_common,
            "basins": [
                (pm.orbit_representative, pm.basin_measure)
                for pm in decomp.physical_measures
            ],
        },
    )
    labels["wholesome"] = LabelVerdict(
        "witnessed",
        {
            **ev_common,
            "reason": "rational rotation number: every orbit converges to a periodic orbit",
        },
    )
    labels["wacky"] = LabelVerdict(
        "refuted", {**ev_common, "reason": "Birkhoff limits exist everywhere"}
    )
    labels["weird"] = LabelVerdict(
        "refuted",
        {
            "reason": "invertible PL maps pull null sets to null sets, never totally singular"
        },
    )
    labels["wicked"] = LabelVerdict(
        "refuted",
        {
            **ev_common,
            "reason": "Birkhoff limits exist a.e., so Cesaro push-forwards converge",
        },
    )
    return WDiagnostics(labels, protocol=protocol)


def _classify_general(
    f: PLCircleMap,
    protocol: WProtocol,
    report: TrappingReport | None,
    trajectory: Sequence[tuple[int, CylinderSpec]] | None,
    declared_specs: Sequence[CylinderSpec] | None,
) -> WDiagnostics:
    battery = [Observable.tent(c) for c in protocol.battery_centers]
    n, top = protocol.grid_size, max(protocol.horizons)
    if n * top > GRID_STEP_CAP:
        raise ResourceCap(
            f"grid of {n} points to horizon {top} is {n * top} steps, "
            f"above the cap {GRID_STEP_CAP}"
        )
    # the certificate counts only as verified against f itself
    certified = report is not None and verify_shredding(f, report).all_passed
    grid = [Fraction(i, n) for i in range(n)]

    small = 0
    large = 0
    inconclusive = 0
    periodic_hits = 0
    basin_counts: dict[Fraction, int] = {}
    gap_rows: list[tuple[Fraction, Fraction | None, bool]] = []
    results = grid_averages(f, grid, battery, protocol.horizons)
    for x, res in zip(grid, results):
        if res.inconclusive:
            inconclusive += 1
            gap_rows.append((x, None, False))
            continue
        gap = res.max_gap()
        if res.eventually_periodic:
            periodic_hits += 1
            key = res.cycle_min
            basin_counts[key] = basin_counts.get(key, 0) + 1
        if gap < protocol.tol:
            small += 1
        if gap > GAP_THRESHOLD:
            large += 1
        gap_rows.append((x, gap, res.eventually_periodic))

    need = (ONE - protocol.tol) * n

    def fraction_verdict(count: int) -> str:
        if Fraction(count) >= need:
            return "witnessed"
        if Fraction(count + inconclusive) < need:
            return "refuted"
        return "inconclusive"

    ev_orbit = {
        "grid_size": n,
        "horizons": protocol.horizons,
        "small_gap_points": small,
        "large_gap_points": large,
        "inconclusive_points": inconclusive,
        "eventually_periodic_points": periodic_hits,
    }
    labels: dict[str, LabelVerdict] = {}
    labels["wholesome"] = LabelVerdict(fraction_verdict(small), dict(ev_orbit))
    labels["wacky"] = LabelVerdict(fraction_verdict(large), dict(ev_orbit))

    max_emp_basin = (
        Fraction(max(basin_counts.values()), n) if basin_counts else ZERO
    )
    emp_coverage = Fraction(periodic_hits, n)

    weird_status = "refuted"
    weird_ev: dict = {}
    wonderful_status: str
    wonderful_ev: dict = {
        **ev_orbit,
        "empirical_basin_coverage": emp_coverage,
        "empirical_basin_count": len(basin_counts),
        "max_empirical_basin": max_emp_basin,
    }
    if certified:
        arcs, m_v, m_gv = singularity_witness(f, report)
        basin_bound = 2 * report.eps
        weird_ev = {
            "witness_measure": m_v,
            "witness_image_measure": m_gv,
            "eps": report.eps,
            "basin_bound": basin_bound,
            "max_empirical_basin": max_emp_basin,
        }
        if labels["wholesome"].witnessed and max_emp_basin < basin_bound:
            weird_status = "witnessed"
            wonderful_status = "refuted"
            wonderful_ev["reason"] = (
                f"every basin is bounded by {basin_bound} at scale eps={report.eps}"
            )
        else:
            weird_status = "inconclusive"
            wonderful_status = "inconclusive"
    else:
        if labels["wholesome"].status == "refuted":
            weird_status = "refuted"
            weird_ev = {"reason": "not wholesome at this scale"}
        elif labels["wholesome"].witnessed:
            weird_status = "inconclusive"
            weird_ev = {"reason": "no singularity certificate supplied"}
        else:
            weird_status = "inconclusive"
        if emp_coverage >= ONE - protocol.tol:
            wonderful_status = "witnessed"
        elif labels["wholesome"].status == "refuted":
            wonderful_status = "refuted"
        else:
            wonderful_status = "inconclusive"
    labels["weird"] = LabelVerdict(weird_status, weird_ev)
    labels["wonderful"] = LabelVerdict(wonderful_status, wonderful_ev)

    labels["wicked"] = _wicked_verdict(f, trajectory, declared_specs)

    diag = WDiagnostics(labels, protocol=protocol)
    diag.labels["wholesome"].evidence["gap_rows"] = gap_rows
    return diag


def _wicked_verdict(
    f: PLCircleMap,
    trajectory: Sequence[tuple[int, CylinderSpec]] | None,
    declared_specs: Sequence[CylinderSpec] | None,
) -> LabelVerdict:
    if not declared_specs:
        return LabelVerdict(
            "inconclusive", {"reason": "no declared invariant specs to test"}
        )
    traj: list[tuple[int, CylinderSpec]] = []
    truncated = False
    if trajectory is not None:
        traj = list(trajectory)
    else:
        level = declared_specs[0].level
        ell = declared_specs[0].ell
        mu = CircleMeasure.lebesgue()
        try:
            for horizon in CESARO_HORIZONS:
                avg = cesaro(f, mu, horizon, complexity_cap=CESARO_COMPLEXITY_CAP)
                traj.append((horizon, avg.cylinder_vector(ell, level)))
        except ResourceCap:
            truncated = True
    hits: dict[int, list[int]] = {}
    for idx, spec in enumerate(declared_specs):
        for horizon, t_spec in traj:
            if t_spec.ell != spec.ell or t_spec.level != spec.level:
                continue
            if t_spec.distance(spec) < WICKED_TOL:
                hits.setdefault(idx, []).append(horizon)
    ev = {
        "declared_spec_count": len(declared_specs),
        "hits": {idx: hs for idx, hs in hits.items()},
        "trajectory_horizons": [h for h, _ in traj],
        "wicked_tol": WICKED_TOL,
        "truncated": truncated,
    }
    if len(hits) >= 2:
        return LabelVerdict("witnessed", ev)
    if truncated or not traj:
        return LabelVerdict("inconclusive", ev)
    return LabelVerdict("refuted", ev)
