"""The batch orbit engine: ``grid_averages`` against the per-point loop.

Each test fixes the CPU set the batch sees, so the forked path runs on any
host; afterwards no child of this process is left.
"""

import os
import sys
import threading
from fractions import Fraction

import pytest

from circledyn import orbits
from circledyn.classifier import WProtocol, classify
from circledyn.errors import InvalidInput, ResourceCap
from circledyn.expanding import expanding_map
from circledyn.orbits import grid_averages, orbit_averages
from circledyn.plmaps import Observable, PLCircleMap

F = Fraction

BATTERY = [Observable.tent(F(0)), Observable.tent(F(1, 3))]
# slope 1/3 on [0, 1/2): denominators grow 3^k, so a 64-bit cap is reached
CONTRACTING = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(1, 6), F(1)])

# (map, points, horizons, denominator bit cap)
CASES = {
    # every orbit of the doubling map at p/720720 closes: periodic points
    "periodic": (expanding_map(2), [F(k, 720720) for k in (1, 7, 77, 1001, 5)], (5, 50, 500), 4096),
    "inconclusive": (CONTRACTING, [F(1, 7), F(2, 9), F(1, 2), F(3, 11)], (10, 100000), 64),
    # 2 has order 5003 modulo 10007: no orbit closes within 2000 steps
    "long": (expanding_map(2), [F(k, 10007) for k in (1, 2, 3)], (10, 100, 2000), 4096),
    "one point": (expanding_map(3), [F(1, 5)], (7, 70), 4096),
    "two points": (expanding_map(3), [F(1, 5), F(2, 9)], (7, 70), 4096),
}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(orbits.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def per_point(f, points, horizons, cap):
    return [orbit_averages(f, x, BATTERY, horizons, cap) for x in points]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_the_per_point_loop(monkeypatch, case, cpus):
    f, points, horizons, cap = CASES[case]
    use_cpus(monkeypatch, cpus)
    got = grid_averages(f, points, BATTERY, horizons, cap)
    want = per_point(f, points, horizons, cap)
    assert got == want
    assert repr(got) == repr(want)  # the averages' key order too


def test_the_cases_reach_each_kind_of_orbit():
    kinds = {
        case: {(r.eventually_periodic, r.inconclusive) for r in per_point(f, points, horizons, cap)}
        for case, (f, points, horizons, cap) in CASES.items()
    }
    assert kinds["periodic"] == {(True, False)}
    assert kinds["inconclusive"] >= {(False, True)}
    assert kinds["long"] == {(False, False)}


@pytest.mark.parametrize("cpus", [2, 3])
def test_classify_diagnostics_do_not_depend_on_the_cpus(monkeypatch, cpus):
    protocol = WProtocol(grid_size=40, horizons=(20, 200))
    f = expanding_map(3)
    use_cpus(monkeypatch, 1)
    want = repr(classify(f, protocol))
    use_cpus(monkeypatch, cpus)
    assert repr(classify(f, protocol)) == want


def test_parent_walks_share_zero_through_the_module_name(monkeypatch):
    # a tracer that wraps orbits.orbit_averages sees the parent's share
    f, points, horizons, cap = CASES["periodic"]
    use_cpus(monkeypatch, 2)
    seen = []

    def counted(f, x, *args):
        seen.append(x)
        return orbit_averages(f, x, *args)

    monkeypatch.setattr(orbits, "orbit_averages", counted)
    got = grid_averages(f, points, BATTERY, horizons, cap)
    assert seen == points[0::2]
    assert got == per_point(f, points, horizons, cap)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_child_failure_is_raised_as_it_was(monkeypatch, cpus):
    f = expanding_map(2)
    points = [F(1, 3), "one half", F(1, 5), F(2, 7)]
    with pytest.raises(ValueError) as seq:
        per_point(f, points, (10,), 4096)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError) as batch:
        grid_averages(f, points, BATTERY, (10,), 4096)
    assert str(batch.value) == str(seq.value) == "not a rational number: 'one half'"


def test_the_first_failure_in_grid_order_wins(monkeypatch):
    # with 2 CPUs the child walks index 1 and the parent index 2: the
    # loop would stop at index 1
    points = [F(1, 3), "one half", None, F(2, 7)]
    use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="one half"):
        grid_averages(expanding_map(2), points, BATTERY, (10,), 4096)


def test_children_write_nothing_to_the_output(monkeypatch, capfd):
    # text the parent has not flushed yet is not flushed again by a child
    sys.stdout.write("before the batch\n")
    use_cpus(monkeypatch, 3)
    with pytest.raises(ValueError):
        grid_averages(expanding_map(2), [F(0), F(1, 3), "x", F(1, 5)], BATTERY, (10,), 4096)
    grid_averages(expanding_map(2), [F(0), F(1, 3), F(1, 5)], BATTERY, (10,), 4096)
    assert capfd.readouterr() == ("before the batch\n", "")


def test_no_fork_while_another_thread_lives(monkeypatch):
    f, points, horizons, cap = CASES["periodic"]
    use_cpus(monkeypatch, 3)

    def refuse():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(orbits.os, "fork", refuse)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = grid_averages(f, points, BATTERY, horizons, cap)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert got == per_point(f, points, horizons, cap)


def test_a_failed_fork_walks_the_share_in_the_parent(monkeypatch):
    f, points, horizons, cap = CASES["long"]
    use_cpus(monkeypatch, 3)

    def no_process():
        raise BlockingIOError("no process")

    monkeypatch.setattr(orbits.os, "fork", no_process)
    assert grid_averages(f, points, BATTERY, horizons, cap) == per_point(f, points, horizons, cap)


def test_a_child_that_dies_is_an_error_not_a_short_list(monkeypatch):
    f, points, horizons, cap = CASES["periodic"]
    use_cpus(monkeypatch, 2)
    parent, share = os.getpid(), orbits._share

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return share(*args)

    monkeypatch.setattr(orbits, "_share", dying)
    with pytest.raises(RuntimeError, match="sent no result"):
        grid_averages(f, points, BATTERY, horizons, cap)


def test_averages_above_the_int_to_str_limit_cross_the_pipe(monkeypatch):
    # 9500 steps of slope 1/3: the average's denominator has 15063 bits,
    # more than 4300 decimal digits, which Python 3.10 cannot pickle as text
    points, horizons = [F(1, 7), F(2, 7)], (9500,)
    use_cpus(monkeypatch, 2)
    got = grid_averages(CONTRACTING, points, BATTERY[:1], horizons, 16000)
    want = [orbit_averages(CONTRACTING, x, BATTERY[:1], horizons, 16000) for x in points]
    assert got == want
    assert got[1].averages[0][9500].denominator.bit_length() > 4300 * 10 // 3


# ---------------------------------------------------------------------------
# horizons and caps, checked before any walk


@pytest.mark.parametrize(
    "horizons, shown",
    [((1.5, 2), "1.5"), (("3",), "'3'"), ((True, 5), "True"), ((0, 5), "0"), ((-4,), "-4")],
)
def test_a_horizon_that_is_not_a_positive_int_is_invalid(horizons, shown):
    message = f"horizons must be integers >= 1, got {shown}"
    with pytest.raises(InvalidInput, match=message):
        orbit_averages(expanding_map(2), F(1, 3), BATTERY, horizons)
    with pytest.raises(InvalidInput, match=message):
        WProtocol(horizons=horizons)


@pytest.mark.parametrize(
    "x, message",
    [
        (0.1, "floats are not exact rationals: 0.1"),
        ("one half", "not a rational number: 'one half'"),
        ("1e99999", "exponent of '1e99999' is above 4300"),
    ],
)
def test_a_point_that_is_not_an_exact_rational_is_invalid(x, message):
    with pytest.raises(InvalidInput, match=message):
        orbit_averages(expanding_map(2), x, BATTERY, (3,))


@pytest.mark.parametrize("grid_size", [2.5, True, "2"])
def test_a_grid_size_that_is_not_an_int_is_invalid(grid_size):
    with pytest.raises(InvalidInput, match=f"grid size must be an integer, got {grid_size!r}"):
        WProtocol(grid_size=grid_size, horizons=(5,))


def test_no_horizon_is_invalid():
    with pytest.raises(InvalidInput, match="horizons must not be empty"):
        WProtocol(horizons=())


def test_horizon_cap_is_checked_before_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("walked past the cap")

    monkeypatch.setattr(orbits, "_walk", walk)
    top = orbits.HORIZON_CAP + 1
    for run in (orbit_averages, grid_averages):
        points = F(1, 3) if run is orbit_averages else [F(1, 3), F(1, 5)]
        with pytest.raises(ResourceCap, match=f"horizon {top} exceeds the cap 1000000 steps"):
            run(expanding_map(2), points, BATTERY, (10, top))
