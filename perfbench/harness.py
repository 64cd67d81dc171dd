"""Closed-loop runner: set-up, timed passes, output checks and metrics.

One client in one thread runs the workload's op list again and again (a
pass); the next op starts when the previous one ends.  Passes start until
the measuring time is used up, and at least one pass of each kind runs.
With tracing on, untraced and traced passes alternate, so the traced run
also measures the tracer's overhead.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

MODULES = (
    "exact", "plmaps", "measures", "partitions", "shredder", "orbits",
    "expanding", "classifier", "formats", "cli",
)


def import_circledyn() -> SimpleNamespace:
    """Import circledyn afresh (dropping cached modules) as a namespace."""
    for name in [m for m in sys.modules if m == "circledyn" or m.startswith("circledyn.")]:
        del sys.modules[name]
    ns = SimpleNamespace(MODULES=MODULES)
    for name in MODULES:
        setattr(ns, name, importlib.import_module(f"circledyn.{name}"))
    return ns


def normalise(outcome) -> object:
    """The outcome as it reads back from JSON (tuples become lists, keys strings)."""
    return json.loads(json.dumps(outcome, sort_keys=True))


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# time spent on the reference loop after each op, as a share of the op's time
REFERENCE_SHARE = 0.15
# setup_s is not this host's wall-clock set-up time: it is set-up time over
# the reference loop's time, expressed in seconds of a nominal host on which
# the loop takes this long (the run record keeps the raw seconds)
REFERENCE_NOMINAL_S = 0.1
# set-ups per run; setup_s is the median of their scaled times
SETUPS = 3


def reference_time() -> float:
    """Wall time of a fixed stdlib-only Fraction workload.

    The host's speed drifts by tens of percent over minutes, and the drift
    slows this loop and the ops by similar shares, so a pass time divided by
    the median of these times (``wall_ref``) stays steadier than raw
    seconds.  It runs no circledyn code, so a change to circledyn cannot
    move it.  Its two halves, allocation-heavy and arithmetic-bound, react
    to the drift less and more than the ops on either side, and their sum
    about as much as the ops do.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2500):
        acc = acc * Fraction(3, 4) + Fraction(7 * i + 3, 104729 * (i % 97 + 1))
    sorted(Fraction(i * 7919 % 1009, i + 1) for i in range(3000))
    acc = Fraction(0)
    for i in range(1, 3000):
        acc = (acc + Fraction(i, i + 7)) * Fraction(3, 4)
    return time.perf_counter() - t0


class Runner:
    """One run of one workload: set-up, passes, checks and metrics."""

    def __init__(
        self, name, seed, size, seconds, trace,
        work: Path, expected_path: Path | None,
    ):
        self.name, self.seed, self.size = name, seed, size
        self.seconds, self.trace = seconds, trace
        self.work, self.expected_path = work, expected_path
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.traced_times: dict[str, list[float]] = {}
        self.layer_passes: list[dict[str, float]] = []
        self.first: dict[str, object] = {}
        self.tracer = spans.Tracer() if trace else None
        self.ref_times: list[float] = []

    # -- set-up: import, inputs, expected outputs

    def set_up(self) -> tuple[list[float], list[float]]:
        """Set up ``SETUPS`` times; return the durations and reference times.

        Each set-up is bracketed by two reference loops, whose mean is the
        host's speed at that moment.
        """
        durations, refs = [], []
        for _ in range(SETUPS):
            before = reference_time()
            t0 = time.perf_counter()
            self.cd = import_circledyn()
            self.wl = workloads.build(self.cd, self.name, self.seed, self.size, self.work)
            self.expected = self._load_expected()
            durations.append(time.perf_counter() - t0)
            refs.append((before + reference_time()) / 2)
        return durations, refs

    def _load_expected(self) -> dict | None:
        if self.expected_path is None or not self.expected_path.exists():
            return None
        table = json.loads(self.expected_path.read_text())
        return table.get(self.size, {}).get(str(self.seed), {}).get(self.name)

    # -- passes

    def run_pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        times = self.traced_times if traced else self.times
        if tracer:
            tracer.install(self.cd)
        try:
            for job in self.wl.jobs:
                state: dict = {}
                broken = False
                for op in job:
                    self.attempted += 1
                    if broken:
                        self._fail(op.key, "not run: an earlier op of its job failed")
                        continue
                    broken = not self._run_op(op, state, tracer, times)
        finally:
            if tracer:
                tracer.uninstall()
                self.layer_passes.append(tracer.take_stats().layer_metrics())

    def _run_op(self, op, state, tracer, times) -> bool:
        if op.prepare:
            op.prepare()
        if tracer:
            tracer.op_id = f"{len(self.layer_passes)}:{op.key}"
            tracer.enabled = True
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run(state)
        except Exception:
            self._fail(op.key, traceback.format_exc(limit=3))
            return False
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.enabled = False
        times.setdefault(op.key, []).append(t1 - t0)
        if tracer is None:
            self.cpu.setdefault(op.key, []).append(c1 - c0)
            self._reference(REFERENCE_SHARE * (t1 - t0))
        try:
            outcome = normalise(op.check(result, state))
            self._compare(op.key, outcome)
        except workloads.Mismatch as exc:
            self._fail(op.key, str(exc))
            return False
        except Exception:
            self._fail(op.key, "check raised: " + traceback.format_exc(limit=3))
            return False
        return True

    def _reference(self, budget: float) -> None:
        """Time the reference loop at least once and for about ``budget`` seconds."""
        spent = 0.0
        while True:
            t = reference_time()
            self.ref_times.append(t)
            spent += t
            if spent >= budget:
                return

    def _compare(self, key: str, outcome) -> None:
        first = self.first.setdefault(key, outcome)
        if outcome != first:
            raise workloads.Mismatch("outcome differs from this run's first pass")
        if self.expected is not None:
            if key not in self.expected:
                raise workloads.Mismatch("no recorded outcome for this op")
            if outcome != self.expected[key]:
                raise workloads.Mismatch(f"outcome differs from the recorded one: {outcome}")

    def _fail(self, key: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {message}")
        print(f"FAILED {key}: {message}", file=sys.stderr)

    # -- whole run

    def run(self) -> dict:
        setup, setup_refs = self.set_up()
        passes = 0
        deadline = time.perf_counter() + self.seconds
        minimum = 2 if self.trace else 1
        while passes < minimum or time.perf_counter() < deadline:
            self.run_pass(traced=bool(self.trace) and passes % 2 == 1)
            passes += 1
        wall = sum(median(v) for v in self.times.values())
        ref = median(self.ref_times)  # 0 only when every op failed
        e2e = {
            "wall_ref": (wall / ref if ref else 0.0, "ref"),
            "setup_s": (median([d / r for d, r in zip(setup, setup_refs)]) * REFERENCE_NOMINAL_S, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if self.trace:
            values = {
                name: median([p[name] for p in self.layer_passes])
                for name in spans.LAYER_METRICS
            }
            values["wall_s"] = wall
            values["reference_s"] = median(self.ref_times)
            values["trace.overhead_s"] = sum(median(v) for v in self.traced_times.values()) - wall
            values["cpu_s"] = sum(median(v) for v in self.cpu.values())
            values["failed_ratio"] = self.failed / max(self.attempted, 1)
            values["ops_attempted"] = self.attempted
            metrics = {name: (v, spans.unit(name)) for name, v in values.items()}
        else:
            metrics = e2e
        self.record = {
            "workload": self.name,
            "why": self.wl.why,
            "seed": self.seed,
            "size": self.size,
            "seconds": self.seconds,
            "passes": passes,
            "setup_raw_s": setup,
            "setup_reference_s": setup_refs,
            "sizes": self.wl.sizes,
            "op_median_s": {k: median(v) for k, v in sorted(self.times.items())},
            "traced_op_median_s": {k: median(v) for k, v in sorted(self.traced_times.items())},
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
            "wall_s": wall,
            "reference_s": self.ref_times,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        }
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def write_record(self, path: Path) -> None:
        record = dict(self.record)
        if self.tracer:
            record["layer_passes"] = self.layer_passes
            record["trace"] = self.tracer.span_records()
        path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    def save_expected(self, path: Path) -> None:
        """Store this run's outcomes as the expectation for its size and seed."""
        table = json.loads(path.read_text()) if path.exists() else {}
        table.setdefault(self.size, {}).setdefault(str(self.seed), {})[self.name] = self.first
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
