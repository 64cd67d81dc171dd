"""Span tracer that wraps circledyn's layer-boundary functions from outside.

Only boundary functions are wrapped (see ``BOUNDARIES``); per-step calls
such as ``PLCircleMap.evaluate`` or ``Iv.contains`` are left alone so that
tracing does not swamp the work it measures.  A wrapped function is patched
in its defining module or class and under every name another ``circledyn``
module imported it by (``from .shredder import shred`` makes
``circledyn.cli.shred`` a second reference), and every patch is undone by
``uninstall``.

Spans (id, name, start, end, parent id, op id) stay in memory until the run
writes them out.  Self time is a span's duration minus its child spans and
minus the tracer's own bookkeeping inside it.
"""

from __future__ import annotations

import functools
import inspect
import time
from fractions import Fraction

# (module, class or None, attribute, span name); formats is wrapped whole.
BOUNDARIES = (
    ("cli", None, "main", "cli.main"),
    ("shredder", None, "shred", "shredder.shred"),
    ("shredder", None, "verify_shredding", "shredder.verify"),
    ("expanding", None, "wicked_perturb", "expanding.wicked_perturb"),
    ("expanding", None, "conjugate", "expanding.conjugate"),
    ("partitions", None, "homeo_from_family", "partitions.homeo_from_family"),
    ("classifier", None, "classify", "classifier.classify"),
    ("orbits", None, "orbit_averages", "orbits.orbit_averages"),
    ("measures", None, "cesaro", "measures.cesaro"),
    ("measures", "CircleMeasure", "__init__", "measures.construct"),
    ("measures", "CircleMeasure", "pushforward", "measures.pushforward"),
    ("measures", "CircleMeasure", "cdf", "measures.cdf"),
    ("measures", "CircleMeasure", "cdf_closed", "measures.cdf.closed"),
    ("plmaps", "PLCircleMap", "compose", "plmaps.compose"),
    ("plmaps", "PLCircleMap", "invert", "plmaps.invert"),
    ("plmaps", "PLCircleMap", "c0_distance", "plmaps.c0_distance"),
    ("plmaps", "PLCircleMap", "image_of_set", "plmaps.image_of_set"),
    ("plmaps", "PLCircleMap", "preimage_of_set", "plmaps.preimage_of_set"),
    ("exact", "IntervalSet", "union", "exact.intervalset.union"),
    ("exact", "IntervalSet", "union_all", "exact.intervalset.union_all"),
    ("exact", "IntervalSet", "covers", "exact.intervalset.covers"),
    ("exact", "IntervalSet", "contains_point", "exact.intervalset.contains_point"),
    ("exact", "IntervalSet", "min_gap_to_boundary", "exact.intervalset.min_gap"),
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "cli.main.self_s",
    "formats.calls",
    "formats.self_s",
    "formats.bytes_out",
    "exact.intervalset.calls",
    "exact.intervalset.self_s",
    "exact.intervalset.ivs_max",
    "exact.den_bits_max",
    "plmaps.compose.calls",
    "plmaps.compose.self_s",
    "plmaps.compose.bps_in",
    "plmaps.compose.bps_out",
    "plmaps.compose.cap_used_ratio",
    "plmaps.invert.self_s",
    "plmaps.image_of_set.calls",
    "plmaps.image_of_set.self_s",
    "plmaps.c0_distance.self_s",
    "plmaps.preimage_of_set.calls",
    "plmaps.preimage_of_set.self_s",
    "plmaps.preimage_of_set.ivs_out",
    "measures.pushforward.calls",
    "measures.pushforward.self_s",
    "measures.construct.self_s",
    "measures.cdf.calls",
    "measures.cdf.self_s",
    "measures.complexity_max",
    "measures.cap_used_ratio",
    "shredder.shred.self_s",
    "shredder.verify.calls",
    "shredder.verify.self_s",
    "shredder.breakpoints",
    "shredder.regions",
    "shredder.preimage_cap_used_ratio",
    "orbits.orbit_averages.calls",
    "orbits.orbit_averages.self_s",
    "orbits.steps",
    "orbits.steps_per_s",
    "orbits.periodic_ratio",
    "orbits.inconclusive",
    "classifier.classify.self_s",
    "expanding.wicked_perturb.self_s",
    "expanding.conjugate.self_s",
    "expanding.depth",
    "partitions.homeo_from_family.self_s",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def _den_bits(obj) -> int:
    """Largest denominator bit length in a map, measure or rational."""
    if isinstance(obj, Fraction):
        return obj.denominator.bit_length()
    if hasattr(obj, "breakpoints") and hasattr(obj, "lift_values"):
        xs = (*obj.breakpoints, *obj.lift_values)
    elif hasattr(obj, "atoms") and hasattr(obj, "pieces"):
        xs = [x for atom in obj.atoms for x in atom]
        xs += [x for piece in obj.pieces for x in piece]
    else:
        return 0
    return max((x.denominator.bit_length() for x in xs), default=0)


class PassStats:
    """Per-span-name calls and times plus work-size counters of one pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.sums: dict[str, int] = {}
        self.maxes: dict[str, float] = {}

    def add(self, key: str, value: int) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxes.get(key, 0):
            self.maxes[key] = value

    def _prefix(self, table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    def layer_metrics(self) -> dict[str, float]:
        calls = lambda name: self._prefix(self.calls, name)  # noqa: E731
        self_s = lambda name: self._prefix(self.self_s, name)  # noqa: E731
        orbit_calls = calls("orbits.orbit_averages")
        orbit_total = self.total_s.get("orbits.orbit_averages", 0.0)
        steps = self.sums.get("orbits.steps", 0)
        periodic = self.sums.get("orbits.periodic", 0)
        m = {
            "cli.main.self_s": self_s("cli.main"),
            "formats.calls": calls("formats"),
            "formats.self_s": self_s("formats"),
            "formats.bytes_out": self.sums.get("formats.bytes_out", 0),
            "exact.intervalset.calls": calls("exact.intervalset"),
            "exact.intervalset.self_s": self_s("exact.intervalset"),
            "exact.intervalset.ivs_max": self.maxes.get("exact.intervalset.ivs_max", 0),
            "exact.den_bits_max": self.maxes.get("exact.den_bits_max", 0),
            "plmaps.compose.bps_in": self.sums.get("plmaps.compose.bps_in", 0),
            "plmaps.compose.bps_out": self.sums.get("plmaps.compose.bps_out", 0),
            "plmaps.compose.cap_used_ratio": self.maxes.get("plmaps.compose.cap_used_ratio", 0),
            "plmaps.preimage_of_set.ivs_out": self.sums.get("plmaps.preimage_of_set.ivs_out", 0),
            "measures.complexity_max": self.maxes.get("measures.complexity_max", 0),
            "measures.cap_used_ratio": self.maxes.get("measures.cap_used_ratio", 0),
            "shredder.breakpoints": self.sums.get("shredder.breakpoints", 0),
            "shredder.regions": self.sums.get("shredder.regions", 0),
            "shredder.preimage_cap_used_ratio": self.maxes.get("shredder.preimage_cap_used_ratio", 0),
            "orbits.steps": steps,
            "orbits.steps_per_s": steps / orbit_total if orbit_total else 0.0,
            "orbits.periodic_ratio": periodic / orbit_calls if orbit_calls else 0.0,
            "orbits.inconclusive": self.sums.get("orbits.inconclusive", 0),
            "expanding.depth": self.maxes.get("expanding.depth", 0),
        }
        for name in LAYER_METRICS:
            if name in m:
                continue
            base, kind = name.rsplit(".", 1)
            m[name] = calls(base) if kind == "calls" else self_s(base)
        return m


class Tracer:
    """Wraps boundary functions while installed; records spans when enabled."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats = PassStats()
        self.op_id: str | None = None
        self.enabled = False
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._caps: dict[str, int] = {}

    # -- installation

    def install(self, cd) -> None:
        """Patch every boundary of the circledyn modules in namespace ``cd``."""
        # caps are read before patching, from the unwrapped functions
        self._caps = {
            "compose": cd.plmaps.DEFAULT_BREAKPOINT_CAP,
            "complexity": cd.measures.DEFAULT_COMPLEXITY_CAP,
            "preimage": inspect.signature(cd.shredder.verify_shredding)
            .parameters["preimage_interval_cap"].default,
        }
        modules = [getattr(cd, name) for name in cd.MODULES]
        replaced: dict[int, object] = {}
        for mod_name, cls_name, attr, span in BOUNDARIES:
            owner = getattr(cd, mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(span, raw.__func__))
            else:
                wrapped = self._wrap(span, raw)
                replaced[id(raw)] = wrapped
            self._patch(owner, attr, wrapped)
        fmt = cd.formats
        for attr, fn in list(vars(fmt).items()):
            if inspect.isfunction(fn) and fn.__module__ == fmt.__name__ and not attr.startswith("_"):
                wrapped = self._wrap(f"formats.{attr}", fn)
                replaced[id(fn)] = wrapped
                self._patch(fmt, attr, wrapped)
        # names bound by ``from .x import f`` in other modules
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording

    def _wrap(self, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)
        if count is None and name.startswith("formats."):
            count = _count_formats
        elif count is None and name.startswith("exact.intervalset."):
            count = _count_intervalset

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, tracer.op_id)
                )
                duration = end - start
                st = tracer.stats
                st.calls[name] = st.calls.get(name, 0) + 1
                st.self_s[name] = st.self_s.get(name, 0.0) + duration - frame[1]
                st.total_s[name] = st.total_s.get(name, 0.0) + duration
                if parent is not None:
                    parent[1] += duration
            if count is not None:
                count(tracer, args, kwargs, result)
                if parent is not None:
                    parent[1] += time.perf_counter() - end
            return result

        return wrapper

    def take_stats(self) -> PassStats:
        stats, self.stats = self.stats, PassStats()
        return stats

    def span_records(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [
                [sid, index[name], round(start, 7), round(end, 7), parent, op]
                for sid, name, start, end, parent, op in self.spans
            ],
        }


# -- work-size counters, read from arguments and returned objects


def _count_compose(t: Tracer, args, kwargs, result) -> None:
    outer, inner = args[0], args[1]
    st = t.stats
    st.add("plmaps.compose.bps_in", len(outer.breakpoints) + len(inner.breakpoints))
    st.add("plmaps.compose.bps_out", len(result.breakpoints))
    cap = kwargs.get("max_breakpoints") or (args[2] if len(args) > 2 else None)
    cap = cap or t._caps["compose"]
    st.peak("plmaps.compose.cap_used_ratio", len(result.breakpoints) / cap)
    st.peak("exact.den_bits_max", _den_bits(result))


def _count_map_result(t: Tracer, args, kwargs, result) -> None:
    t.stats.peak("exact.den_bits_max", _den_bits(result))


def _count_preimage(t: Tracer, args, kwargs, result) -> None:
    st = t.stats
    st.add("plmaps.preimage_of_set.ivs_out", len(result.ivs))
    st.peak("exact.intervalset.ivs_max", len(result.ivs))
    st.peak("shredder.preimage_cap_used_ratio", len(result.ivs) / t._caps["preimage"])


def _count_image(t: Tracer, args, kwargs, result) -> None:
    t.stats.peak("exact.intervalset.ivs_max", len(result.ivs))


def _count_measure(t: Tracer, args, kwargs, result) -> None:
    mu = args[0] if result is None else result  # __init__ returns None
    st = t.stats
    st.peak("measures.complexity_max", mu.complexity)
    st.peak("exact.den_bits_max", _den_bits(mu))


def _count_pushforward(t: Tracer, args, kwargs, result) -> None:
    _count_measure(t, args, kwargs, result)
    t.stats.peak("measures.iterate_complexity", result.complexity)


def _count_cesaro(t: Tracer, args, kwargs, result) -> None:
    # cesaro caps the complexity of the push-forward iterates it computes
    cap = kwargs.get("complexity_cap") or (args[3] if len(args) > 3 else None)
    used = t.stats.maxes.get("measures.iterate_complexity", 0)
    t.stats.peak("measures.cap_used_ratio", used / (cap or t._caps["complexity"]))


def _count_shred(t: Tracer, args, kwargs, result) -> None:
    t.stats.peak("exact.den_bits_max", _den_bits(result[0]))


def _count_verify(t: Tracer, args, kwargs, result) -> None:
    g, report = args[0], args[1]
    st = t.stats
    st.add("shredder.breakpoints", len(g.breakpoints))
    st.add("shredder.regions", len(report.regions))
    slacks = [v.slack for v in result.items.values() if v.slack is not None]
    st.peak("exact.den_bits_max", max(map(_den_bits, slacks), default=0))


def _count_orbit(t: Tracer, args, kwargs, result) -> None:
    st = t.stats
    st.add("orbits.steps", result.steps_computed)
    st.add("orbits.periodic", int(result.eventually_periodic))
    st.add("orbits.inconclusive", int(result.inconclusive))


def _count_wicked(t: Tracer, args, kwargs, result) -> None:
    t.stats.peak("expanding.depth", result.depth)


def _count_conjugate(t: Tracer, args, kwargs, result) -> None:
    t.stats.peak("exact.den_bits_max", _den_bits(result.f))


def _count_formats(t: Tracer, args, kwargs, result) -> None:
    if isinstance(result, str):
        t.stats.add("formats.bytes_out", len(result.encode()))


def _count_intervalset(t: Tracer, args, kwargs, result) -> None:
    sizes = [len(a.ivs) for a in (*args, result) if hasattr(a, "ivs")]
    if sizes:
        t.stats.peak("exact.intervalset.ivs_max", max(sizes))


_COUNTERS = {
    "plmaps.compose": _count_compose,
    "plmaps.invert": _count_map_result,
    "plmaps.preimage_of_set": _count_preimage,
    "plmaps.image_of_set": _count_image,
    "partitions.homeo_from_family": _count_map_result,
    "measures.construct": _count_measure,
    "measures.pushforward": _count_pushforward,
    "measures.cesaro": _count_cesaro,
    "shredder.shred": _count_shred,
    "shredder.verify": _count_verify,
    "orbits.orbit_averages": _count_orbit,
    "expanding.wicked_perturb": _count_wicked,
    "expanding.conjugate": _count_conjugate,
}
