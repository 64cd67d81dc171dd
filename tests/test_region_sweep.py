"""The region sweep of ``verify_shredding`` against the per-arc verifier.

``verify_shredding`` takes a region's closed image in one
``PLCircleMap.image_of_set`` sweep, item i's margin in one
``IntervalSet.min_gap_to_boundary`` merge and each cycle step of item v(b)
on integers (``shredder._step_margin``), reads the plateau route off the
region image and chases plateau values with recorded step counts.  The
verifier it replaced took one image per arc, asked ``covers`` before each
margin and chased every plateau value on its own.  That verifier is kept
here, with its per-interval image and its margin, as the reference: every
item verdict (passed, slack, detail) must be equal, on shredded maps and on
forged certificates.  It asks coverage and membership through the interval
walks of ``test_float_hints``, not through the library's ``IntervalSet``
queries that it is compared with.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from circledyn.errors import CircledynError, ResourceCap
from circledyn.exact import ONE, ZERO, Arc, IntervalSet, Iv, mod1
from circledyn.expanding import expanding_map
from circledyn.plmaps import PLCircleMap
from circledyn.shredder import (
    ItemVerdict,
    Region,
    ShredConfig,
    ShredVerification,
    TrappingReport,
    _chase_failure,
    _first_overlap,
    _length_sum,
    _per_region,
    shred,
    verify_shredding,
)

from test_float_hints import ref_candidate, ref_contains_point, ref_covers

F = Fraction
TINY = F(1, 2**70)


# ---------------------------------------------------------------------------
# the per-arc verifier


def ref_wrap(lo, loc, hi, hic) -> list[Iv]:
    span = hi - lo
    if span > ONE or (span == ONE and (loc or hic)):
        return [Iv(ZERO, True, ONE, True)]
    shift = lo.numerator // lo.denominator
    lo, hi = lo - shift, hi - shift
    if hi <= ONE:
        return [Iv(lo, loc, hi, hic)]
    return [Iv(lo, loc, ONE, True), Iv(ZERO, True, hi - ONE, hic)]


def ref_point(v) -> Iv:
    x = mod1(v)
    return Iv(x, True, x, True)


def ref_image_of_iv(f: PLCircleMap, iv: Iv) -> list[Iv]:
    """One lift walk over the interval, one wrapped range per piece."""
    lo, hi = iv.lo, iv.hi
    lifts = f._walk(lo, hi)[1]
    if lo == hi:
        return [ref_point(lifts[0])]
    out: list[Iv] = []
    last = len(lifts) - 2
    for k in range(last + 1):
        fa, fb = lifts[k], lifts[k + 1]
        if fa == fb:
            out.append(ref_point(fa))
            continue
        a_closed = iv.lo_closed if k == 0 else True
        b_closed = iv.hi_closed if k == last else True
        if fa < fb:
            out.extend(ref_wrap(fa, a_closed, fb, b_closed))
        else:
            out.extend(ref_wrap(fb, b_closed, fa, a_closed))
    return out


def ref_image_of_set(f: PLCircleMap, s: IntervalSet) -> IntervalSet:
    return IntervalSet([piece for iv in s.ivs for piece in ref_image_of_iv(f, iv)])


def ref_min_gap(outer: IntervalSet, inner: IntervalSet) -> Fraction:
    """The margin as the per-arc verifier took it, after ``covers``."""
    ivs = outer.ivs
    seam = (
        bool(ivs)
        and ivs[0].lo == ZERO < ivs[0].hi
        and ivs[-1].lo < ONE == ivs[-1].hi
        and (ivs[0].lo_closed or ivs[-1].hi_closed)
    )
    best = None
    for iv in inner.ivs:
        host = ref_candidate(ivs, iv.lo)
        if host is not None and iv.hi <= host.hi:
            left, right = iv.lo - host.lo, host.hi - iv.hi
            if seam and host.lo == ZERO:
                left += ONE - ivs[-1].lo
            if seam and host.hi == ONE:
                right += ivs[0].hi
            for gap in (left, right):
                if best is None or gap < best:
                    best = gap
    if best is None:
        raise ValueError("inner set not covered interval-by-interval")
    return best


def ref_verify(g: PLCircleMap, report: TrappingReport, cap: int = 100_000):
    eps = report.eps
    regions = report.regions
    n_steps = len(report.tau)
    items = {}

    def image(arc: Arc) -> IntervalSet:
        return ref_image_of_set(g, IntervalSet.from_arcs((arc,), closed=True))

    opens = [reg.open_set() for reg in regions]
    images = [IntervalSet.union_all(image(a) for a in reg.arcs) for reg in regions]
    measures = [u.measure() for u in opens]

    least, failure = _per_region(
        ref_min_gap(u, img)
        if ref_covers(u.ivs, img.ivs)
        else f"region {reg.label}: image escapes"
        for reg, u, img in zip(regions, opens, images)
    )
    items["i"] = ItemVerdict(
        not failure, None if failure else least, failure or "g(cl U) strictly inside U"
    )
    max_measure = max(measures)
    items["ii"] = ItemVerdict(max_measure < eps, eps - max_measure, f"max m(U) = {max_measure}")
    covered = IntervalSet.union_all(opens).measure()
    summed = _length_sum(a for reg in regions for a in reg.arcs)
    detail_iii = f"m(union U) = {covered}"
    if summed != covered:
        detail_iii += f", but the arcs sum to {summed}: {_first_overlap(regions)}"
    items["iii"] = ItemVerdict(
        covered > ONE - eps and summed == covered, covered - (ONE - eps), detail_iii
    )
    least, failure = _per_region(
        bound - m if m < bound else f"region {reg.label}: m(g(U)) = {m} >= {bound}"
        for reg, m, bound in zip(
            regions, (img.measure() for img in images), (eps * x for x in measures)
        )
    )
    items["iv"] = ItemVerdict(not failure, None if failure else least, failure or "images crushed")

    def absorption_failure(reg, cycle_open):
        plateau_values = []
        for arc in reg.arcs:
            if arc.length == 0 or (g.degree and arc.start + arc.length > ONE):
                break
            img = image(arc).ivs
            if len(img) != 1 or img[0].lo != img[0].hi:
                break
            plateau_values.append(img[0].lo)
        else:
            for y in dict.fromkeys(plateau_values):
                for _ in range(n_steps):
                    if ref_contains_point(cycle_open.ivs, y):
                        break
                    y = g.evaluate(y)
                else:
                    return f"{reg.label}: plateau value never reaches cycle"
            return None
        s, closure = cycle_open, reg.closed_set()
        for _ in range(n_steps + 1):
            if ref_covers(s.ivs, closure.ivs):
                return None
            s = s.union(g.preimage_of_set(s, cap))
            if len(s.ivs) > cap:
                raise ResourceCap(
                    f"preimage iteration for region {reg.label} reached {len(s.ivs)} "
                    f"intervals, above the interval cap {cap}"
                )
        if ref_covers(s.ivs, closure.ivs):
            return None
        return f"{reg.label}: closure(U) not absorbed"

    def absorption():
        for reg in regions:
            cyc = report.cycles[reg.label]
            for w in cyc:
                d = w.diameter()
                yield eps - d if d < eps else f"{reg.label}: diam W = {d} >= eps"
            for idx, w in enumerate(cyc):
                nxt = IntervalSet.from_arcs((cyc[(idx + 1) % len(cyc)],), closed=False)
                img = image(w)
                yield (
                    ref_min_gap(nxt, img)
                    if ref_covers(nxt.ivs, img.ivs)
                    else f"{reg.label}: g(cl W^{idx+1}) escapes"
                )
            cycle_open = IntervalSet.from_arcs(cyc, closed=False)
            if failure := absorption_failure(reg, cycle_open):
                yield failure

    least, failure = _per_region(absorption())
    items["v"] = ItemVerdict(not failure, least, failure or "cycles absorb the regions")
    return ShredVerification(items)


# a preimage interval cap that keeps each forged preimage route short; both
# verifiers pass it to each preimage step and raise the same ResourceCap on
# reaching it
CAP = 2000


def outcome(verify, g, report):
    """Every item verdict as a tuple, or the error raised."""
    try:
        res = verify(g, report, CAP)
    except CircledynError as exc:
        return type(exc).__name__, str(exc)
    return {k: (v.passed, v.slack, v.detail) for k, v in res.items.items()}


def assert_same_verdicts(g, report):
    want = outcome(ref_verify, g, report)
    assert outcome(verify_shredding, g, report) == want
    return want


# ---------------------------------------------------------------------------
# inputs


@st.composite
def tame_maps(draw, degrees=st.integers(-1, 3)) -> PLCircleMap:
    """A PL map of the given degree, breakpoints on a 1/16 grid and slopes
    within 4 of the degree, so that a shred stays small."""
    degree = draw(degrees)
    xs = sorted(draw(st.sets(st.integers(1, 15), max_size=3)))
    v0 = F(draw(st.integers(0, 15)), 16)
    vals = [v0]
    for x in xs:
        vals.append(v0 + degree * F(x, 16) + F(draw(st.integers(-4, 4)), 64))
    vals.append(v0 + degree)
    return PLCircleMap([ZERO, *(F(x, 16) for x in xs), ONE], vals)


EPS = st.integers(3, 7).map(lambda k: F(1, k))


def _at(data, seq, name):
    return data.draw(st.integers(0, len(seq) - 1), label=name)


def bump(g: PLCircleMap, start: Fraction, end: int, h: Fraction) -> PLCircleMap:
    """g with its lift value raised by h at the breakpoint ``end`` places
    after the breakpoint ``start``.  The lift's ends at 0 and 1 are the one
    circle point 0 ~ 1, so a bump there raises both and g stays a map."""
    j = g.breakpoints.index(start) + end
    vals = list(g.lift_values)
    if j in (0, len(vals) - 1):
        vals[0] += h
        vals[-1] += h
    else:
        vals[j] += h
    return PLCircleMap(g.breakpoints, vals)


def forge(data, g: PLCircleMap, report: TrappingReport):
    """One or two forgeries of a shredded certificate and its map."""
    regions = list(report.regions)
    cycles = dict(report.cycles)
    for _ in range(data.draw(st.integers(1, 2), label="forgeries")):
        kind = data.draw(
            st.sampled_from(
                ["reorder", "split", "wrap", "zero", "shift", "twice", "bump", "cycle"]
            ),
            label="kind",
        )
        k = _at(data, regions, "region")
        reg = regions[k]
        arcs = list(reg.arcs)
        i = _at(data, arcs, "arc")
        a = arcs[i]
        if kind == "reorder":
            arcs = data.draw(st.permutations(arcs), label="order")
        elif kind == "split":
            cut = a.length * data.draw(st.sampled_from([F(1, 3), F(1, 2), F(3, 4)]))
            arcs[i : i + 1] = [Arc(a.start, cut), Arc(mod1(a.start + cut), a.length - cut)]
        elif kind == "wrap":
            # the same length, straddling 0
            arcs[i] = Arc(mod1(-a.length * data.draw(st.sampled_from([F(1, 2), F(1, 5)]))), a.length)
        elif kind == "zero":
            arcs.insert(i, Arc.degenerate(a.start + a.length / 2))
        elif kind == "shift":
            sign = data.draw(st.sampled_from([1, -1]), label="sign")
            arcs[i] = Arc(mod1(a.start + sign * TINY), a.length)
        elif kind == "twice":
            regions.insert(_at(data, regions, "position"), reg)
        elif kind == "bump":
            # raise one end of the plateau over an interior: the region image
            # is no longer points, and item v takes the preimage route
            if a.start in g.breakpoints:
                end = data.draw(st.integers(0, 1), label="end")
                h = report.eps * F(1, 2 ** data.draw(st.integers(4, 12), label="h"))
                g = bump(g, a.start, end, h)
        else:
            cyc = list(cycles[reg.label])
            c = _at(data, cyc, "cycle arc")
            w = cyc[c]
            cyc[c] = data.draw(
                st.sampled_from(
                    [Arc(mod1(w.start + TINY), w.length), Arc(mod1(-w.length / 2), w.length)]
                ),
                label="cycle forgery",
            )
            cycles[reg.label] = tuple(cyc)
        if kind != "twice":
            regions[k] = Region(reg.label, tuple(arcs))
    forged = TrappingReport(
        eps=report.eps,
        tau=report.tau,
        subdivisions=report.subdivisions,
        regions=tuple(regions),
        cycles=cycles,
    )
    return g, forged


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(tame_maps(), EPS)
@example(expanding_map(2), F(1, 5))
@example(PLCircleMap([ZERO, ONE], [F(1, 3), F(-2, 3)]), F(1, 7))
def test_verdicts_match_the_per_arc_verifier_on_shredded_maps(f, eps):
    g, report = shred(f, eps)
    want = assert_same_verdicts(g, report)
    assert all(v[0] for v in want.values())


@settings(max_examples=150, deadline=None)
@given(tame_maps(), EPS, st.data())
def test_verdicts_match_the_per_arc_verifier_on_forged_reports(f, eps, data):
    g, report = shred(f, eps)
    want = assert_same_verdicts(*forge(data, g, report))
    event(want[0] if isinstance(want, tuple) else "".join("pF"[not v[0]] for v in want.values()))


def test_a_bump_at_the_breakpoint_1_raises_both_ends_of_the_lift():
    # region 3's arc 5 ends on the last breakpoint but one, so the bump of
    # its plateau's right end lands on the breakpoint 1: raising that lift
    # value alone would leave a lift whose ends differ by 1/48
    f = PLCircleMap([ZERO, F(1, 16), ONE], [F(5, 16), F(23, 64), F(5, 16)])
    eps = F(1, 3)
    g, report = shred(f, eps)
    a = report.regions[3].arcs[5]
    assert a == Arc(F(277, 288), F(5, 144))
    assert g.breakpoints.index(a.start) + 1 == len(g.breakpoints) - 1
    bumped = bump(g, a.start, 1, eps / 16)
    assert bumped.lift_values[0] == g.lift_values[0] + eps / 16
    assert bumped.lift_values[-1] == g.lift_values[-1] + eps / 16
    assert_same_verdicts(bumped, report)


def test_a_wrapped_arc_on_a_map_of_nonzero_degree_takes_the_preimage_route():
    # the closure of an arc across 0 meets the lift at 1 and at 0, whose
    # values differ by the degree, even where the image is one point
    g, report = shred(expanding_map(2), F(1, 5))
    label = report.regions[0].label
    cycle = report.cycles[label]
    wrapped = Arc(mod1(-cycle[0].length / 2), cycle[0].length)
    forged = TrappingReport(
        report.eps, report.tau, report.subdivisions,
        (Region(label, (wrapped,)), *report.regions[1:]), report.cycles,
    )
    assert_same_verdicts(g, forged)


# cell counts that are powers of the degree: tau is i -> d*i + 1 mod n,
# whose basins are trees of depth 2 to 4 with branches that merge
DEEP_CHASES = (
    (expanding_map(2), F(1, 5), 16),
    (expanding_map(2), F(1, 5), 32),
    (expanding_map(3), F(1, 5), 27),
)


def test_the_plateau_chase_stops_at_step_len_tau_minus_one():
    # the step bound is len(tau): a plateau value must be in the cycle by
    # step len(tau) - 1.  Walk every bound from 0 to one past the deepest
    # chain: item v passes exactly from that chain's step count on
    for f, eps, cells in DEEP_CHASES:
        g, report = shred(f, eps, ShredConfig(cells=cells))
        deepest = 0
        for reg in report.regions:
            cycle_open = IntervalSet.from_arcs(report.cycles[reg.label], closed=False)
            for iv in g.image_of_set(reg.closed_set()).ivs:
                y, m = iv.lo, 0
                while not cycle_open.contains_point(y):
                    y, m = g.evaluate(y), m + 1
                deepest = max(deepest, m)
        assert deepest >= 2
        for n_steps in range(deepest + 3):
            short = TrappingReport(
                report.eps, (0,) * n_steps, report.subdivisions,
                report.regions, report.cycles,
            )
            want = assert_same_verdicts(g, short)
            assert want["v"][0] == (n_steps > deepest), n_steps


def test_merged_chains_count_the_steps_of_the_chain_they_join():
    # the chase records each point's steps to the cycle; a later plateau
    # value whose walk joins a recorded chain must add that chain's count.
    # Find regions whose deepest value joins the chain of a value chased
    # before it, and check item v at that depth and one step more
    merged = 0
    for f, eps, cells in DEEP_CHASES:
        g, report = shred(f, eps, ShredConfig(cells=cells))
        for reg in report.regions:
            cycle_open = IntervalSet.from_arcs(report.cycles[reg.label], closed=False)
            points = [iv.lo for iv in g.image_of_set(reg.closed_set()).ivs]
            walks = []
            for y in points:
                walk = [y]
                while not cycle_open.contains_point(walk[-1]):
                    walk.append(g.evaluate(walk[-1]))
                walks.append(walk)
            deep = max(len(w) - 1 for w in walks)
            joins = any(
                len(w) - 1 == deep and any(v in w[1:-1] for v in points[:k])
                for k, w in enumerate(walks)
            )
            if not joins:
                continue
            merged += 1
            for n_steps in (deep, deep + 1):
                alone = TrappingReport(
                    report.eps, (0,) * n_steps, report.subdivisions, (reg,), report.cycles
                )
                assert verify_shredding(g, alone).items["v"].passed == (n_steps > deep)
                assert_same_verdicts(g, alone)
    assert merged


def test_a_walk_that_joins_a_counted_chain_adds_its_count():
    # chase the shallower value first: the deeper one then stops where its
    # walk meets the counted chain, and its count is the steps walked plus
    # that chain's count, which the bound len(tau) - 1 must cover
    f, eps, cells = DEEP_CHASES[0]
    g, report = shred(f, eps, ShredConfig(cells=cells))
    reg = report.regions[0]
    cycle_open = IntervalSet.from_arcs(report.cycles[reg.label], closed=False)
    points = [iv.lo for iv in g.image_of_set(reg.closed_set()).ivs]
    walk = [points[0]]
    while not cycle_open.contains_point(walk[-1]):
        walk.append(g.evaluate(walk[-1]))
    deep = len(walk) - 1
    joined = [z for z in walk[1:-1] if z in points]
    assert deep == 3 and joined
    for n_steps in (deep - 1, deep, deep + 1):
        pairs = [(z.numerator, z.denominator) for z in (joined[0], points[0])]
        failed = _chase_failure(g, pairs, cycle_open, n_steps)
        assert failed == (n_steps <= deep), n_steps


# ---------------------------------------------------------------------------
# the image sweep


@st.composite
def winding_maps(draw) -> PLCircleMap:
    """Maps whose pieces may span several turns, with flat pieces."""
    xs = sorted(draw(st.sets(st.integers(1, 15), max_size=4)))
    degree = draw(st.integers(-4, 4))
    v0 = F(draw(st.integers(0, 15)), 16)
    vals = [v0]
    for _ in xs:
        vals.append(
            vals[-1] if draw(st.integers(0, 3)) == 0
            else F(draw(st.integers(-80, 80)), 16)
        )
    vals.append(v0 + degree)
    return PLCircleMap([ZERO, *(F(x, 16) for x in xs), ONE], vals)


@st.composite
def sets_touching_the_ends(draw, f: PLCircleMap) -> IntervalSet:
    """Interval sets whose ends are 0, 1, breakpoints or k/48."""
    ends = st.one_of(
        st.sampled_from([ZERO, ONE]),
        st.sampled_from(f.breakpoints),
        st.integers(0, 48).map(lambda k: F(k, 48)),
    )
    ivs = []
    for _ in range(draw(st.integers(1, 5))):
        a, b = sorted((draw(ends), draw(ends)))
        if a == b:
            ivs.append(Iv(a, True, a, True))
        else:
            ivs.append(Iv(a, draw(st.booleans()), b, draw(st.booleans())))
    return IntervalSet(ivs)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_image_sweep_is_the_union_of_interval_images(data):
    f = data.draw(winding_maps())
    s = data.draw(sets_touching_the_ends(f))
    assert f.image_of_set(s).ivs == ref_image_of_set(f, s).ivs


def test_image_sweep_on_sets_through_0_and_1():
    # degree 3 with a piece that climbs two turns: [0, 1/8] u [7/8, 1] and
    # the points 0 and 1 meet the lift at both ends
    f = PLCircleMap([ZERO, F(1, 2), ONE], [F(1, 8), F(17, 8), F(25, 8)])
    for s in (
        IntervalSet([Iv(ZERO, True, F(1, 8), True), Iv(F(7, 8), True, ONE, True)]),
        IntervalSet([Iv(ZERO, False, F(1, 4), True), Iv(F(3, 4), True, ONE, False)]),
        IntervalSet([Iv(ZERO, True, ZERO, True), Iv(ONE, True, ONE, True)]),
        IntervalSet([Iv(F(1, 4), False, F(3, 4), False)]),
    ):
        assert f.image_of_set(s).ivs == ref_image_of_set(f, s).ivs
