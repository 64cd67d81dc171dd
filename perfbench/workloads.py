"""Seeded inputs, op lists and exact output checks of the four workloads.

``build`` turns (workload, seed, size) into a ``Workload``: the inputs are
made here from the seed, written under the work directory, and circledyn
sees only those inputs.  Each op has an untimed ``check`` that raises
``Mismatch`` when an output breaks an identity the construction guarantees,
and returns an *outcome*: a JSON-able fingerprint (exit code, verdicts,
sha256 digests) that the harness compares with the recorded expectation
and with the same op's outcome on the run's first pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

WHY = {
    "shred-verify": "headline pipeline: CLI shred then verify on 10^3-10^4 "
    "breakpoint artifacts; plateau route through exact IntervalSet queries, "
    "shredder, image_of_set, c0_distance and formats; no orbits or measures",
    "verify-perturbed": "checker path for certificates shred did not build: "
    "bumps break the plateaus so item (v) takes the preimage route "
    "(preimage_of_set, IntervalSet.union growth)",
    "classify-wicked": "window perturbation, conjugation (compose/invert, "
    "partitions) and classify, whose orbit engine does the bulk of the work; "
    "no IntervalSet or measure push-forward",
    "cesaro-wicked": "CLI cesaro of Lebesgue under the wicked conjugate: the "
    "only workload where measures (push-forward, canonicalisation, CDF) do "
    "the bulk of the work; bypasses orbits and exact",
}
NAMES = tuple(WHY)
SIZES = ("full", "tiny")

# expected item verdicts of verify, in summary_rows order
ALL_PASS = ("pass", "pass", "pass", "pass", "pass")
IV_FAILS = ("pass", "pass", "pass", "FAIL", "pass")


class Mismatch(Exception):
    """An output differs from what the construction guarantees."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    key: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], dict]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    why: str
    jobs: list[list[Op]]
    sizes: dict = field(default_factory=dict)


def build(cd, name: str, seed: int, size: str, work: Path) -> Workload:
    """Generate the seeded inputs of one workload and its op list."""
    if name not in WHY or size not in SIZES:
        raise ValueError(f"unknown workload {name!r} or size {size!r}")
    rng = random.Random(f"{name}/{seed}")
    work = work / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    generate = {
        "shred-verify": _shred_verify,
        "verify-perturbed": _verify_perturbed,
        "classify-wicked": _classify_wicked,
        "cesaro-wicked": _cesaro_wicked,
    }[name]
    jobs, sizes = generate(cd, rng, size == "tiny", work)
    return Workload(name, WHY[name], jobs, sizes)


# ---------------------------------------------------------------------------
# helpers


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli(cd, argv: list[str]) -> CliResult:
    """``circledyn.cli.main`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cd.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def rationals_digest(xs) -> str:
    return sha256(" ".join(f"{x.numerator}/{x.denominator}" for x in xs))


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in ``out_dir``.

    The manifest is hashed without its circledyn ``version`` field, so a
    version bump alone does not fail the recorded digests.
    """
    digests = {}
    for p in sorted(out_dir.iterdir()):
        data = p.read_bytes()
        if p.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("version", None)
            data = json.dumps(manifest, sort_keys=True)
        digests[p.name] = sha256(data)
    return digests


def clear(out_dir: Path) -> Callable[[], None]:
    def prepare() -> None:
        if out_dir.exists():
            shutil.rmtree(out_dir)

    return prepare


def den_bits(xs) -> int:
    return max(x.denominator.bit_length() for x in xs)


def write_map(cd, f, path: Path) -> None:
    path.write_text(cd.formats.dumps(cd.formats.map_to_record(f)))


def verdict_rows(text: str) -> list[list[str]]:
    """Rows ``item verdict slack detail`` printed by shred and verify."""
    rows = []
    for line in text.splitlines():
        parts = line.split(None, 3)
        if parts and parts[0] in ("i", "ii", "iii", "iv", "v"):
            rows.append(parts)
    return rows


def check_rows(rows: list[list[str]], verdicts: tuple[str, ...]) -> None:
    expect(len(rows) == 5, f"expected 5 verdict rows, got {len(rows)}")
    got = tuple(r[1] for r in rows)
    expect(got == verdicts, f"verdicts {got} != expected {verdicts}")


def random_pl_map(cd, rng: random.Random, pieces: int, degree: int, lip: int, den: int = 64):
    """Continuous PL map of the given degree whose Lipschitz constant is exactly ``lip``.

    Pinning the Lipschitz constant pins the shred cell count, so the work
    size does not depend on the seed.
    """
    while True:
        xs = sorted(rng.sample(range(1, den), pieces - 1))
        bps = [F(0)] + [F(x, den) for x in xs] + [F(1)]
        lens = [b - a for a, b in zip(bps, bps[1:])]
        slopes = [F(rng.randrange(-2 * lip, 2 * lip + 1), 2) for _ in lens[:-1]]
        slopes.append((degree - sum(s * w for s, w in zip(slopes, lens))) / lens[-1])
        if abs(slopes[-1]) <= lip and max(abs(s) for s in slopes) == lip:
            break
    vals = [F(rng.randrange(den), den)]
    for s, w in zip(slopes, lens):
        vals.append(vals[-1] + s * w)
    return cd.plmaps.PLCircleMap(bps, vals)


# ---------------------------------------------------------------------------
# shred-verify: CLI shred, then CLI verify of the artifacts it wrote


def _shred_verify(cd, rng, tiny, work):
    expanding_map = cd.expanding.expanding_map
    if tiny:
        plan = [
            ("e2", expanding_map(2), "1/5"),
            ("pl1", random_pl_map(cd, rng, 6, 1, 3), "1/5"),
        ]
    else:
        plan = [
            ("e2", expanding_map(2), "1/20"),
            ("e3", expanding_map(3), "1/20"),
            ("pl1", random_pl_map(cd, rng, 6, 1, 3), "1/20"),
        ]
    jobs, sizes = [], {}
    for label, f, eps in plan:
        tag = f"{label}@{eps}"
        map_path = work / f"{label}.json"
        out = work / f"{label}-out"
        write_map(cd, f, map_path)
        cfg = cd.shredder.ShredConfig().resolved(f, F(eps))
        sizes[tag] = {
            "breakpoints_in": len(f.breakpoints),
            "lipschitz": str(f.lipschitz),
            "den_bits_in": den_bits(f.lift_values),
            "cells": cfg.cells,
            "subdivisions": cfg.subdivisions,
            "breakpoints_out": 3 * cfg.cells * cfg.subdivisions + 1,
        }
        shred = _run_shred(cd, map_path, out, eps)
        shred_op = Op(f"{tag}/shred", shred, _check_shred(out, F(eps)), clear(out))
        verify = _run_verify(cd, out / "perturbed.json", out / "report.json")
        jobs.append([shred_op, Op(f"{tag}/verify", verify, _check_verify_of_shred)])
    return jobs, sizes


def _run_shred(cd, map_path, out, eps):
    return lambda state: cli(cd, ["--out-dir", str(out), "shred", str(map_path), "--eps", eps])


def _run_verify(cd, map_path, report_path):
    return lambda state: cli(cd, ["verify", str(map_path), str(report_path)])


def _check_shred(out: Path, eps: F):
    def check(res: CliResult, state: dict) -> dict:
        expect(res.code == 0, f"shred exit {res.code}: {res.err.strip()}")
        first = res.out.splitlines()[0]
        expect(first.startswith("c0 distance(f, g) = "), f"unexpected first line {first!r}")
        dist = F(first.split(" = ")[1].split()[0])
        expect(dist < eps, f"c0 distance {dist} not below eps {eps}")
        rows = verdict_rows(res.out)
        check_rows(rows, ALL_PASS)
        expect((out / "verdicts.txt").read_text() == res.out, "verdicts.txt differs from stdout")
        state["rows"] = rows
        return {
            "exit": res.code,
            "verdicts": [r[1] for r in rows],
            "stdout": sha256(res.out),
            "artifacts": artifact_digests(out),
        }

    return check


def _check_verify_of_shred(res: CliResult, state: dict) -> dict:
    expect(res.code == 0, f"verify exit {res.code}: {res.err.strip()}")
    rows = verdict_rows(res.out)
    check_rows(rows, ALL_PASS)
    expect(rows == state["rows"], "verify rows differ from the rows shred printed")
    return {"exit": res.code, "verdicts": [r[1] for r in rows], "stdout": sha256(res.out)}


# ---------------------------------------------------------------------------
# verify-perturbed: CLI verify of a shred certificate against bumped maps


def _bumped(cd, g, bumps):
    """g with lift value i raised by h for every (i, h) in bumps."""
    vals = list(g.lift_values)
    for i, h in bumps:
        vals[i] += h
    return cd.plmaps.PLCircleMap(list(g.breakpoints), vals)


def _plateau_bump(rng, g, index, region, low, high):
    """Raise one end of a seeded plateau of ``region`` by a seeded height in (low, high)."""
    arc = rng.choice(region.arcs)
    i = index[arc.start] + rng.randrange(2)  # plateau start or end
    return i, low + (high - low) * F(rng.randrange(256, 768), 1024)


def _verify_perturbed(cd, rng, tiny, work):
    eps = F(1, 10)
    g, report = cd.shredder.shred(cd.expanding.expanding_map(2), eps)
    base = cd.shredder.verify_shredding(g, report)
    expect(base.all_passed, "the unperturbed certificate does not verify")
    slack_i, slack_iv = base.items["i"].slack, base.items["iv"].slack
    report_path = work / "report.json"
    report_path.write_text(cd.formats.dumps(cd.formats.report_to_record(report)))
    index = {b: i for i, b in enumerate(g.breakpoints)}

    # every bumped region keeps m(g(U)) = h < slack_iv and h < slack_i / 2,
    # so all five items still hold: expected exit 0.  One map per tau orbit
    # bumps half of that orbit's regions, so the preimage work varies
    # little by seed and each op stays short.
    by_orbit: dict[int, list] = {}
    for reg in report.regions:
        by_orbit.setdefault(reg.label[0], []).append(reg)
    safe = min(slack_iv, slack_i / 2)
    plan = []
    for orbit, group in sorted(by_orbit.items()):
        chosen = rng.sample(group, (len(group) + 1) // 2)
        bumps = [_plateau_bump(rng, g, index, reg, 0, safe) for reg in chosen]
        plan.append((f"orbit{orbit}-pass", bumps, 0, ALL_PASS))
    if tiny:
        plan = [(plan[0][0], plan[0][1][:1], 0, ALL_PASS)]

    # one bump on a smallest region with eps * m(U) <= h < slack_i / 2:
    # item (iv) fails, the others hold: expected exit 1
    smallest = min(reg.measure() for reg in report.regions)
    victim = rng.choice([reg for reg in report.regions if reg.measure() == smallest])
    low, high = eps * smallest, slack_i / 2
    expect(low < high, "no bump height makes item (iv) fail while (i) holds")
    plan.append(("smallest-fail-iv", [_plateau_bump(rng, g, index, victim, low, high)], 1, IV_FAILS))

    jobs, sizes = [], {}
    for label, bumps, code, verdicts in plan:
        bumped = _bumped(cd, g, bumps)
        map_path = work / f"{label}.json"
        write_map(cd, bumped, map_path)
        sizes[label] = {
            "eps": str(eps),
            "breakpoints": len(g.breakpoints),
            "regions": len(report.regions),
            "bumped_plateaus": len(bumps),
            "den_bits_in": den_bits(bumped.lift_values),
            "expected_exit": code,
        }
        verify = _run_verify(cd, map_path, report_path)
        jobs.append([Op(f"{label}/verify", verify, _check_verdicts(code, verdicts))])
    return jobs, sizes


def _check_verdicts(code: int, verdicts: tuple[str, ...]):
    def check(res: CliResult, state: dict) -> dict:
        expect(res.code == code, f"verify exit {res.code}, expected {code}: {res.err.strip()}")
        rows = verdict_rows(res.out)
        check_rows(rows, verdicts)
        return {"exit": res.code, "verdicts": [r[1] for r in rows], "stdout": sha256(res.out)}

    return check


# ---------------------------------------------------------------------------
# wicked inputs shared by classify-wicked and cesaro-wicked


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _two_is_primitive_root(p: int) -> bool:
    """ord(2, p) = p - 1: binary expansions of k/p have the longest period."""
    m, factors, d = p - 1, set(), 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    return all(pow(2, (p - 1) // q, p) != 1 for q in factors)


def wild_primes(rng: random.Random) -> list[int]:
    """Four primes summing to 2^16, each near 2^14 with 2 a primitive root.

    Cell lengths p/2^16 make the conjugate's orbits have periods beyond the
    default horizons, so finite-scale average spreads stay visible.
    """
    pool = [p for p in range(16384 - 1500, 16384 + 1500) if _is_prime(p) and _two_is_primitive_root(p)]
    good = set(pool)
    while True:
        head = rng.sample(pool, 3)
        last = 65536 - sum(head)
        if last in good and last not in head:
            return sorted(head + [last])


def wicked_inputs(cd, rng: random.Random):
    """Seeded wild base homeomorphism and Bernoulli target.

    With every level-2 cell within 1500/2^16 of 1/4 and the target's
    first probability k/64 for odd k in [33, 41], the Cesaro trajectory
    comes within the default wicked tolerance 1/16 of both Lebesgue
    (horizon 1) and the target (horizon 8), so classify must witness
    "wicked".  k = 32 (probability 1/2) would make the perturbation
    trivial.
    """
    primes = wild_primes(rng)
    arc, family = cd.exact.Arc, cd.partitions.ConsistentFamily
    lengths = [F(p, 65536) for p in primes]
    cells2, pos = [], F(0)
    for length in lengths:
        cells2.append(arc(pos, length))
        pos += length
    cells1 = (arc(F(0), lengths[0] + lengths[1]), arc(lengths[0] + lengths[1], lengths[2] + lengths[3]))
    h0 = cd.partitions.homeo_from_family(family(2, 2, (cells1, tuple(cells2))))
    a = F(rng.randrange(33, 42, 2), 64)  # odd k: every seed has denominator 64
    target = cd.measures.CylinderSpec.bernoulli([a, 1 - a], 2)
    return h0, target, {"primes": primes, "target_p0": str(a)}


WICKED_EPS = F(1, 4)
WICKED_N = 8
CESARO_HORIZONS = (1, 2, 4, 8)


# ---------------------------------------------------------------------------
# classify-wicked: the library pipeline of acceptance criterion 9


def _classify_wicked(cd, rng, tiny, work):
    h0, target, seeds = wicked_inputs(cd, rng)
    grid = 4 if tiny else 24
    protocol = cd.classifier.WProtocol(grid_size=grid)
    declared = [cd.measures.CylinderSpec.lebesgue(2, 2), target]
    expanding = cd.expanding

    def run_wicked(state):
        state["res"] = expanding.wicked_perturb(h0, 2, target, WICKED_EPS, WICKED_N)
        return state["res"]

    def check_wicked(res, state):
        for k in range(res.n0, WICKED_N):
            expect(res.cylinder_pushforward(k, 2) == target, f"push-forward {k} misses the target")
        table = [x for t in res.tables for w, (pos, length) in sorted(t.items()) for x in (pos, length)]
        cells = sum(map(len, res.tables))
        return {"n0": res.n0, "depth": res.depth, "cells": cells, "tables": rationals_digest(table)}

    def run_conjugate(state):
        state["f"] = expanding.conjugate(state["res"].homeomorphism(), 2).f
        return state["f"]

    def check_conjugate(f, state):
        expect(f.degree == 2, f"conjugate has degree {f.degree}")
        return {"breakpoints": len(f.breakpoints), "map": rationals_digest((*f.breakpoints, *f.lift_values))}

    def run_trajectory(state):
        state["traj"] = [(n, state["res"].cesaro_spec(n, 2)) for n in CESARO_HORIZONS]
        return state["traj"]

    def check_trajectory(traj, state):
        for n, spec in traj:
            expect(sum(spec.values.values()) == 1, f"Cesaro spec at horizon {n} has mass != 1")
        return {"specs": rationals_digest(v for _, s in traj for _, v in sorted(s.values.items()))}

    def run_classify(state):
        return cd.classifier.classify(
            state["f"], protocol, trajectory=state["traj"], declared_specs=declared
        )

    def check_classify(diag, state):
        status = {label: v.status for label, v in sorted(diag.labels.items())}
        expect(status["wicked"] == "witnessed", "wicked evidence not witnessed")
        both = status["wholesome"] == status["wacky"] == "witnessed"
        expect(not both, "wholesome and wacky co-witnessed")
        ev = diag.labels["wacky"].evidence
        counts = {k: ev[k] for k in ev if k.endswith("_points")}
        expect(ev["grid_size"] == grid, "classify ran on the wrong grid")
        return {"status": status, "counts": counts}

    job = [
        Op("wicked_perturb", run_wicked, check_wicked),
        Op("conjugate", run_conjugate, check_conjugate),
        Op("cesaro_spec", run_trajectory, check_trajectory),
        Op("classify", run_classify, check_classify),
    ]
    sizes = {
        **seeds,
        "den_bits_in": den_bits(h0.breakpoints),
        "breakpoints_in": len(h0.breakpoints),
        "grid_points": grid,
        "horizons": list(protocol.horizons),
        "battery": len(protocol.battery_centers),
        "window": [str(WICKED_EPS), WICKED_N],
    }
    return [job], sizes


# ---------------------------------------------------------------------------
# cesaro-wicked: CLI cesaro of Lebesgue under the wicked conjugate map


def _cesaro_wicked(cd, rng, tiny, work):
    h0, target, seeds = wicked_inputs(cd, rng)
    res = cd.expanding.wicked_perturb(h0, 2, target, WICKED_EPS, WICKED_N)
    f = cd.expanding.conjugate(res.homeomorphism(), 2).f
    map_path, mu_path, out = work / "wicked.json", work / "lebesgue.json", work / "out"
    write_map(cd, f, map_path)
    lebesgue = cd.measures.CircleMeasure.lebesgue()
    mu_path.write_text(cd.formats.dumps(cd.formats.measure_to_record(lebesgue)))
    n = 2 if tiny else 3
    argv = ["--out-dir", str(out), "cesaro", str(map_path), str(mu_path), "--n", str(n)]

    def check(res: CliResult, state: dict) -> dict:
        expect(res.code == 0, f"cesaro exit {res.code}: {res.err.strip()}")
        complexity = _check_probability(out / "measure.json")
        rows = (out / "cdf.csv").read_text().splitlines()[1:]
        cdf = [F(r.split(",")[1]) for r in rows]
        expect(all(a <= b for a, b in zip(cdf, cdf[1:])) and cdf[-1] == 1, "CDF not monotone up to 1")
        return {"exit": res.code, "complexity": complexity, "artifacts": artifact_digests(out)}

    sizes = {
        **seeds,
        "breakpoints_in": len(f.breakpoints),
        "den_bits_in": den_bits(f.lift_values),
        "n": n,
    }
    return [[Op(f"cesaro-n{n}", lambda state: cli(cd, argv), check, clear(out))]], sizes


def _check_probability(path: Path) -> int:
    """Total mass of a written measure is exactly 1; returns its complexity."""
    rec = json.loads(path.read_text())
    atoms = sum((F(a["mass"]) for a in rec["atoms"]), F(0))
    pieces = sum((F(p["length"]) * F(p["density"]) for p in rec["pieces"]), F(0))
    expect(atoms + pieces == 1, f"Cesaro average has total mass {atoms + pieces}")
    return len(rec["atoms"]) + len(rec["pieces"])
