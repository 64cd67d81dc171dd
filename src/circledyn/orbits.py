"""Exact Birkhoff averages along orbits, from occupation statistics.

The orbit of a rational point x = p/q under a PL map is walked once, in
integer pairs (p, q), and recorded in the order it is visited.  The walk
stops at the first repeat, after which the orbit is eventually periodic and
every average has a closed form; at a point whose denominator outgrows the
bit cap (maps that contract onto irrational-like grids blow up rational
complexity, and such points are reported inconclusive rather than
approximated); or at the last horizon.  Each horizon, the preperiod, the
cycle and a partial cycle are then slices of that one recorded orbit.

Per-step cost: the map's integer step table (A, B, D per piece, built once
per map) gives f(p/q) = ((A*q + B*p) mod D*q) / (D*q), so a step costs three
big-integer products, one ``%``, one ``gcd`` and one cell lookup by
``exact.locate``, which compares exactly only on a float tie.

Refinement invariant: every observable of a battery is affine on each cell of
the battery's common breakpoint refinement, and continuous, so either
neighbour's formula is exact at a cut.  The sum of the battery over a slice
therefore needs only two integers per (cell, denominator q): the number of
visits and the sum of the numerators p.  The closing scales each observable's
intercept and slope on each cell to integers by one common multiple, puts
the slice's points over one lcm of their denominators and builds one
Fraction per observable.

Batches: ``grid_averages`` runs ``orbit_averages`` at every point of a
list.  The walks are independent, so it forks one worker per CPU this
process may run on (the parent takes a share too), and each worker sends its
results back through a pipe; the list it returns is the sequential one.
"""

from __future__ import annotations

import copyreg
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter, mul
from typing import BinaryIO, Iterable, Sequence

from .errors import InvalidInput, ResourceCap
from .exact import ONE, ZERO, locate, mod1
from .plmaps import Observable, PLCircleMap

# Largest horizon of one walk: the walk keeps every point it visits, about
# 250 B per step.
HORIZON_CAP = 10**6


@dataclass
class OrbitAverages:
    """Averages of a battery of observables at several horizons."""

    horizons: tuple[int, ...]
    averages: list[dict[int, Fraction]]  # per observable: horizon -> average
    eventually_periodic: bool
    preperiod: int | None
    period: int | None
    limits: list[Fraction] | None  # per observable, when periodic
    inconclusive: bool
    steps_computed: int
    cycle_min: Fraction | None = None  # smallest point on the detected cycle

    def gap(self, obs_index: int) -> Fraction:
        """Spread of the finite averages across horizons for one observable.

        Exactly zero when the orbit was proven eventually periodic: the
        Birkhoff limit exists and the asymptotic spread vanishes.
        """
        if self.eventually_periodic:
            return ZERO
        vals = list(self.averages[obs_index].values())
        return max(vals) - min(vals)

    def max_gap(self) -> Fraction:
        return max(self.gap(i) for i in range(len(self.averages)))


def _walk(
    f: PLCircleMap, x: Fraction, n_max: int, denominator_bit_cap: int
) -> tuple[dict[tuple[int, int], int], int, tuple[int, int], bool]:
    """Integer orbit of x under f, as pairs (p, q) with f^k(x) = p/q reduced.

    Stops at the first repeat, at a point whose denominator has more than
    ``denominator_bit_cap`` bits, or after ``n_max`` steps.  Returns the
    visited points mapped to their step (the dict keeps orbit order), the
    number of steps taken, the point the walk stopped at and whether it
    stopped at the cap.  A step reads the map's cached step table: one
    ``locate``, three products, one ``%`` and one ``gcd``.
    """
    bps, hints, table = f.breakpoints, f._hints, f._step_table()
    seen: dict[tuple[int, int], int] = {}
    p, q = x.numerator, x.denominator
    step = 0
    while step < n_max:
        key = (p, q)
        if key in seen:
            break
        seen[key] = step
        if q.bit_length() > denominator_bit_cap:
            return seen, step, key, True
        step += 1
        a, b, d = table[locate(bps, hints, p, q)]
        yd = d * q
        yn = (a * q + b * p) % yd
        g = gcd(yn, yd)
        p, q = yn // g, yd // g
    return seen, step, (p, q), False


class _Closing:
    """Exact sums of a battery of observables from occupation statistics.

    Every observable is affine on each cell of the battery's common
    breakpoint refinement, with intercept a and slope s.  A cell visited N
    times by points p/q with one denominator q, numerators summing to P,
    contributes N*a + s*P/q.  With A = a*L and S = s*L integers for one
    common L, and M the lcm of the slice's denominators q, a slice sums to
    (M * sum_cells A*N + sum_cells S*P') / (M*L), where N counts every
    visit to a cell and P' sums p*(M/q) over them: one Fraction per
    observable.
    """

    def __init__(self, observables: Sequence[Observable]):
        cut_set: set[Fraction] = set()
        for phi in observables:
            cut_set.update(phi.breakpoints)
        self.cuts = cuts = sorted(cut_set | {ZERO, ONE})
        self.hints = [float(b) for b in cuts[:-1]]
        affine = []
        for phi in observables:
            rows = []
            for lo in cuts[:-1]:
                i = locate(phi.breakpoints, phi._hints, lo.numerator, lo.denominator)
                s = phi._slopes[i]
                rows.append((phi.values[i] - s * phi.breakpoints[i], s))
            affine.append(rows)
        scale = lcm(
            *(c.denominator for rows in affine for pair in rows for c in pair)
        )
        self.scale = scale
        self.coeffs = [
            (
                [int(a * scale) for a, _ in rows],
                [int(s * scale) for _, s in rows],
            )
            for rows in affine
        ]

    def sums(self, points: Iterable[tuple[int, int]]) -> list[Fraction]:
        """Exact sum of each observable over the points p/q."""
        cuts, hints = self.cuts, self.hints
        n_cells = len(cuts) - 1
        # q -> visits per cell, followed by the sums of p per cell
        stats: dict[int, list[int]] = {}
        for p, q in points:
            c = locate(cuts, hints, p, q)
            row = stats.get(q)
            if row is None:
                row = stats[q] = [0] * (2 * n_cells)
            row[c] += 1
            row[n_cells + c] += p
        # every q divides m: a point p/q is p*(m/q) / m
        m = lcm(*stats)
        visits = [0] * n_cells
        psums = [0] * n_cells
        for q, row in stats.items():
            w = m // q
            for c in range(n_cells):
                visits[c] += row[c]
                psums[c] += w * row[n_cells + c]
        den = m * self.scale
        return [
            Fraction(m * sum(map(mul, A, visits)) + sum(map(mul, S, psums)), den)
            for A, S in self.coeffs
        ]


def check_horizons(horizons: Sequence[int]) -> tuple[int, ...]:
    """The distinct horizons in increasing order.

    ``InvalidInput`` unless there is at least one and each is an ``int``
    (not a ``bool``) of at least 1.
    """
    if not horizons:
        raise InvalidInput("horizons must not be empty")
    for h in horizons:
        if not isinstance(h, int) or isinstance(h, bool) or h < 1:
            raise InvalidInput(f"horizons must be integers >= 1, got {h!r}")
    return tuple(sorted(set(horizons)))


def _capped_horizons(horizons: Sequence[int]) -> tuple[int, ...]:
    hs = check_horizons(horizons)
    if hs[-1] > HORIZON_CAP:
        raise ResourceCap(f"horizon {hs[-1]} exceeds the cap {HORIZON_CAP} steps")
    return hs


def orbit_averages(
    f: PLCircleMap,
    x: Fraction,
    observables: Sequence[Observable],
    horizons: Sequence[int],
    denominator_bit_cap: int = 4096,
) -> OrbitAverages:
    """Exact (1/n) sums of phi over the orbit of x, at each horizon n."""
    hs = _capped_horizons(horizons)
    x = mod1(Fraction(x))
    seen, steps, last, inconclusive = _walk(f, x, hs[-1], denominator_bit_cap)
    start = None if inconclusive else seen.get(last)
    period = None if start is None else steps - start

    # sums over the orbit's first k points, for every k an average needs
    ks = {n for n in hs if n <= steps}
    if period is not None:
        ks.update((start, steps))
        ks.update(start + (n - start) % period for n in hs if n > steps)
    closing = _Closing(observables)
    points = iter(seen)
    prefix = {0: [ZERO] * len(observables)}
    done = 0
    for k in sorted(ks):
        seg = closing.sums(islice(points, k - done))
        prefix[k] = [a + b for a, b in zip(prefix[done], seg)]
        done = k

    averages: list[dict[int, Fraction]] = [dict() for _ in observables]
    limits = cycle_min = None
    if period is not None:
        cycle = [b - a for a, b in zip(prefix[start], prefix[steps])]
        limits = [c / period for c in cycle]
        cycle_min = min(Fraction(p, q) for p, q in islice(seen, start, None))
    for n in hs:
        if n <= steps:
            total = prefix[n]
        elif period is not None:
            whole, rem = divmod(n - start, period)
            tail = prefix[start + rem]
            total = [t + whole * c for t, c in zip(tail, cycle)]
        else:
            continue
        for avg, t in zip(averages, total):
            avg[n] = t / n
    return OrbitAverages(
        hs, averages, period is not None, start, period, limits,
        inconclusive, steps, cycle_min=cycle_min,
    )


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share(
    f: PLCircleMap,
    points: Sequence[Fraction],
    observables: Sequence[Observable],
    horizons: Sequence[int],
    denominator_bit_cap: int,
) -> tuple[list[OrbitAverages], tuple[int, Exception] | None]:
    """``orbit_averages`` at each point, up to the first that raises; then
    that point's index in ``points`` and its exception."""
    out = []
    for i, x in enumerate(points):
        try:
            out.append(orbit_averages(f, x, observables, horizons, denominator_bit_cap))
        except Exception as exc:
            return out, (i, exc)
    return out, None


# a Fraction crosses a pipe as its integer pair: Python 3.10 pickles it by its
# text, which the int-to-str limit refuses above 4300 digits
_PICKLE_TABLE = {
    **copyreg.dispatch_table,
    Fraction: lambda q: (Fraction, (q.numerator, q.denominator)),
}


def _fork_share(args: tuple) -> tuple[int, BinaryIO]:
    """Fork a worker that pickles ``_share(*args)`` into a pipe and exits;
    returns its pid and the read end of the pipe."""
    # imported here: only a forked batch needs pickle, and importing it
    # raises the peak resident memory of a process by up to 1 MB
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            with os.fdopen(w, "wb") as out:
                pickler = pickle.Pickler(out)
                pickler.dispatch_table = _PICKLE_TABLE
                pickler.dump(_share(*args))
        finally:
            # never unwind into the parent's stack or flush its buffers
            os._exit(0)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def grid_averages(
    f: PLCircleMap,
    points: Sequence[Fraction],
    observables: Sequence[Observable],
    horizons: Sequence[int],
    denominator_bit_cap: int = 4096,
) -> list[OrbitAverages]:
    """``[orbit_averages(f, x, ...) for x in points]``, walked in parallel.

    With k = min(CPUs this process may run on, len(points)), share j of k is
    ``points[j::k]``.  The parent walks share 0 and forks one child per
    other share, which pickles its results into a pipe.  The list returned,
    and the exception raised at the first point that fails, are those of
    the sequential loop, which runs instead when k is 1, ``os.fork`` is
    missing or another thread is alive (a fork copies only the calling
    thread).  Every child is drained and reaped before this returns or
    raises, also when the parent's own share raises.
    """
    points = list(points)
    _capped_horizons(horizons)
    f._step_table()  # built once, inherited by every worker
    k = min(_cpus(), len(points))
    if k <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [
            orbit_averages(f, x, observables, horizons, denominator_bit_cap)
            for x in points
        ]
    args = [(f, points[j::k], observables, horizons, denominator_bit_cap) for j in range(k)]
    children: dict[int, tuple[int, BinaryIO]] = {}
    shares: dict[int, tuple] = {}
    sent: dict[int, bytes] = {}
    try:
        for j in range(1, k):
            try:
                children[j] = _fork_share(args[j])
            except OSError:  # out of processes or descriptors: walk it here
                break
        for j in range(k):
            if j not in children:
                shares[j] = _share(*args[j])
    finally:
        try:
            for j, (_, src) in children.items():
                sent[j] = src.read()
        finally:
            # close every read end first: a child blocks on a full pipe
            for _, src in children.values():
                src.close()
            for pid, _ in children.values():
                os.waitpid(pid, 0)
    import pickle  # loaded by _fork_share

    for j, (pid, _) in children.items():
        try:
            shares[j] = pickle.loads(sent[j])
        except Exception:  # empty or cut short: the child died writing
            shares[j] = [], (0, RuntimeError(f"grid worker {pid} sent no result"))
    # a share stops at its first failure; the sequential loop would raise
    # the failure of the least grid index
    failures = [(j + fail[0] * k, fail[1]) for j, (_, fail) in shares.items() if fail]
    if failures:
        raise min(failures, key=itemgetter(0))[1]
    out: list[OrbitAverages] = [None] * len(points)  # type: ignore[list-item]
    for j, (results, _) in shares.items():
        out[j::k] = results
    return out
