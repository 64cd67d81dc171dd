"""Command-line front end: reproducible, file-based pipelines.

Every run writes a manifest (command, inputs, parameters, seed, version,
outputs) next to its artifacts; identical manifests produce byte-identical
outputs.  Exit codes: 0 success/verified, 1 verification failure, 2 invalid
input, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .classifier import WProtocol, classify, rotation_number
from .errors import InvalidInput, ResourceCap, VerificationFailure
from .exact import as_count, format_rational, parse_rational
from .expanding import wicked_perturb
from .formats import (
    cdf_samples,
    csv_lines,
    dumps,
    family_to_record,
    map_from_record,
    map_to_record,
    measure_from_record,
    measure_to_record,
    observable_from_record,
    report_from_record,
    report_to_record,
    spec_from_record,
)
from .measures import CircleMeasure, _capped, _complexity_cap, cesaro
from .orbits import orbit_averages
from .plmaps import Observable, PLCircleMap
from .shredder import ShredConfig, ShredVerification, shred, verify_shredding

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _out_dir(args: argparse.Namespace) -> Path:
    return Path(args.out_dir)


def _manifest(args: argparse.Namespace, inputs: list[str], outputs: list[str]) -> str:
    return dumps(
        {
            "command": args.command,
            "inputs": sorted(inputs),
            "outputs": sorted(outputs),
            "parameters": {
                k: str(v)
                for k, v in sorted(vars(args).items())
                if k not in {"command", "func"} and v is not None
            },
            "seed": args.seed,
            "version": __version__,
        }
    )


def _parse_observable(text: str) -> Observable:
    if text.startswith("tent:"):
        return Observable.tent(parse_rational(text[5:]))
    if text.startswith("const:"):
        return Observable.constant(parse_rational(text[6:]))
    return observable_from_record(_load_json(text))


def _parse_horizons(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"horizons must be comma-separated integers: {exc}") from exc


def _finish(args, inputs: list[str], written: dict[Path, str]) -> None:
    out = _out_dir(args)
    for path, text in written.items():
        _write(path, text)
    _write(
        out / "manifest.json",
        _manifest(args, inputs, [str(p) for p in written]),
    )


def _verdict_table(verification: ShredVerification) -> str:
    """One line per trapping item: key, verdict, slack and detail."""
    lines = []
    for key in ("i", "ii", "iii", "iv", "v"):
        v = verification.items[key]
        verdict = "pass" if v.passed else "FAIL"
        slack = "-" if v.slack is None else v.slack
        lines.append(f"{key:4}  {verdict:7}  {slack}  {v.detail}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_shred(args: argparse.Namespace) -> int:
    f = map_from_record(_load_json(args.map))
    cfg = ShredConfig(
        cells=args.cells,
        subdivisions=args.subdivisions,
    )
    g, report = shred(f, parse_rational(args.eps), cfg)
    verification = verify_shredding(g, report)
    dist = f.c0_distance(g)
    out = _out_dir(args)
    lines = [
        f"c0 distance(f, g) = {format_rational(dist)} (eps = {args.eps})",
        f"tau = {list(report.tau)}",
        f"periodic orbits of tau: {[list(o) for o in report.orbits]}",
        f"regions: {report.region_count}",
        "item  verdict  slack  detail",
    ]
    table = "\n".join(lines) + "\n" + _verdict_table(verification)
    sys.stdout.write(table)
    _finish(
        args,
        [args.map],
        {
            out / "perturbed.json": dumps(map_to_record(g)),
            out / "report.json": dumps(report_to_record(report)),
            out / "verdicts.txt": table,
        },
    )
    return EXIT_OK if verification.all_passed else EXIT_VERIFICATION


def cmd_verify(args: argparse.Namespace) -> int:
    g = map_from_record(_load_json(args.map))
    report = report_from_record(_load_json(args.report))
    verification = verify_shredding(g, report)
    sys.stdout.write(_verdict_table(verification))
    return EXIT_OK if verification.all_passed else EXIT_VERIFICATION


def cmd_wicked(args: argparse.Namespace) -> int:
    h = map_from_record(_load_json(args.homeo))
    target = spec_from_record(_load_json(args.target))
    n = args.n
    p = target.level if args.p is None else args.p
    if p > target.level:
        raise InvalidInput(
            f"diagnostic level {p} exceeds the target's level {target.level}"
        )
    # the spec every row is measured against; target itself at its own level
    reference = target.marginal(p)
    result = wicked_perturb(h, args.ell, target, parse_rational(args.eps), n)
    dist = result.c0_distance_to(h)
    rows = []
    window_exact = True
    for k in range(n):
        d = result.cylinder_pushforward(k, p).distance(reference)
        in_window = result.n0 <= k <= n - 1
        if in_window and d != 0:
            window_exact = False
        rows.append((k, format_rational(d), int(in_window)))
    cesaro_rows = []
    for horizon in range(1, n + 1):
        d = result.cesaro_spec(horizon, p).distance(reference)
        cesaro_rows.append((horizon, format_rational(d)))
    out = _out_dir(args)
    written = {
        out / "window.csv": csv_lines(("k", "spec_distance", "in_window"), rows),
        out / "cesaro.csv": csv_lines(("n", "spec_distance"), cesaro_rows),
        out / "family.json": dumps(family_to_record(result))
        if result.depth <= args.family_dump_depth_cap
        else dumps({"omitted": "family too deep to dump"}),
    }
    if not result.is_degenerate:
        written[out / "h_prime.json"] = dumps(
            map_to_record(result.homeomorphism())
        )
    sys.stdout.write(
        f"n0 = {result.n0}, depth = {result.depth}, "
        f"degenerate = {result.is_degenerate}\n"
        f"c0 distance(h, h') = {format_rational(dist)} (eps = {args.eps})\n"
        f"window exact: {window_exact}\n"
    )
    _finish(args, [args.homeo, args.target], written)
    return EXIT_OK if window_exact and dist < parse_rational(args.eps) else EXIT_VERIFICATION


def _write_measure(args: argparse.Namespace, mu: CircleMeasure) -> int:
    out = _out_dir(args)
    _finish(
        args,
        [args.map, args.measure],
        {
            out / "measure.json": dumps(measure_to_record(mu)),
            out / "cdf.csv": csv_lines(("x", "cdf"), cdf_samples(mu)),
        },
    )
    return EXIT_OK


def cmd_pushforward(args: argparse.Namespace) -> int:
    f = map_from_record(_load_json(args.map))
    mu = measure_from_record(_load_json(args.measure))
    as_count(args.iters, "iteration count", 0)
    cap = _complexity_cap(args.max_breakpoints)
    for _ in range(args.iters):
        mu = _capped(mu.pushforward(f), cap)
    return _write_measure(args, mu)


def cmd_cesaro(args: argparse.Namespace) -> int:
    f = map_from_record(_load_json(args.map))
    mu = measure_from_record(_load_json(args.measure))
    return _write_measure(args, cesaro(f, mu, args.n, complexity_cap=args.max_breakpoints))


def cmd_birkhoff(args: argparse.Namespace) -> int:
    f = map_from_record(_load_json(args.map))
    phi = _parse_observable(args.obs)
    x = parse_rational(args.x)
    res = orbit_averages(f, x, [phi], _parse_horizons(args.horizons))
    rows = [
        (n, format_rational(res.averages[0][n]))
        for n in sorted(res.averages[0])
    ]
    text = csv_lines(("n", "average"), rows)
    sys.stdout.write(text)
    if res.eventually_periodic:
        sys.stdout.write(
            f"# eventually periodic: preperiod {res.preperiod}, "
            f"period {res.period}, limit {format_rational(res.limits[0])}\n"
        )
    return EXIT_OK


def cmd_rotation(args: argparse.Namespace) -> int:
    h = map_from_record(_load_json(args.map))
    rot = rotation_number(h, args.max_period)
    if rot.value is not None:
        sys.stdout.write(f"{format_rational(rot.value)}\n")
    else:
        lo, hi = rot.bracket
        sys.stdout.write(
            f"undetected; bracket [{format_rational(lo)}, {format_rational(hi)}]\n"
        )
    return EXIT_OK


def _evidence_value(val: object) -> object:
    """JSON form of one classify evidence entry: a rational as a 'num/den'
    string, a tuple or list as a list of converted items, anything else as
    its ``str``."""
    if isinstance(val, Fraction):
        return format_rational(val)
    if isinstance(val, (tuple, list)):
        return [_evidence_value(v) for v in val]
    return str(val)


def cmd_classify(args: argparse.Namespace) -> int:
    f = map_from_record(_load_json(args.map))
    protocol = WProtocol(
        grid_size=args.grid,
        horizons=tuple(_parse_horizons(args.horizons)),
        tol=parse_rational(args.tol),
        max_period=args.max_period,
    )
    # classify verifies the report against f
    report = report_from_record(_load_json(args.report)) if args.report else None
    declared = None
    if args.declared_specs:
        declared = [
            spec_from_record(_load_json(p)) for p in args.declared_specs
        ]
    diag = classify(f, protocol, report=report, declared_specs=declared)
    record = {
        label: {
            "status": v.status,
            "evidence": {
                k: _evidence_value(val)
                for k, val in v.evidence.items()
                if k != "gap_rows"
            },
        }
        for label, v in diag.labels.items()
    }
    text = dumps(record)
    sys.stdout.write(text)
    out = _out_dir(args)
    written = {out / "classification.json": text}
    gap_rows = diag.labels["wholesome"].evidence.get("gap_rows")
    if gap_rows:
        written[out / "gaps.csv"] = csv_lines(
            ("x", "gap", "eventually_periodic"),
            [
                (
                    format_rational(x),
                    "" if gap is None else format_rational(gap),
                    int(periodic),
                )
                for x, gap, periodic in gap_rows
            ],
        )
    _finish(args, [args.map], written)
    return EXIT_OK


def figure3_map() -> PLCircleMap:
    """Five equal cells; the cell transition has exactly two fixed cells."""
    cells = 5
    mids = [Fraction(2 * i + 1, 2 * cells) for i in range(cells)]
    targets = [0, 0, 2, 2, 2]  # tau: two fixed points, cells 0 and 2
    points = [
        (mids[i], mids[targets[i]]) for i in range(cells)
    ]
    points.append((mids[0] + 1, mids[targets[0]]))
    return PLCircleMap.from_lift_points(points)


def cmd_demo(args: argparse.Namespace) -> int:
    if not args.figure3:
        raise InvalidInput("demo requires --figure3")
    f = figure3_map()
    eps = Fraction(3, 4)
    g, report = shred(f, eps, ShredConfig(cells=5, subdivisions=4))
    verification = verify_shredding(g, report)
    sys.stdout.write(
        f"cells = 5, subdivisions = 4, tau = {list(report.tau)}\n"
        f"periodic orbits of tau: {[list(o) for o in report.orbits]}\n"
        f"trapping regions: {report.region_count}\n"
        f"all items verified: {verification.all_passed}\n"
    )
    out = _out_dir(args)
    _finish(
        args,
        [],
        {
            out / "demo_map.json": dumps(map_to_record(f)),
            out / "demo_perturbed.json": dumps(map_to_record(g)),
            out / "demo_report.json": dumps(report_to_record(report)),
        },
    )
    return EXIT_OK if report.region_count == 8 and verification.all_passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circledyn",
        description="exact circle-dynamics toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    parser.add_argument("--out-dir", default="circledyn-out")
    parser.add_argument(
        "--max-breakpoints", type=int, default=None,
        help="measure complexity cap of pushforward and cesaro iterates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shred", help="perturb a map into verified trapping regions")
    p.add_argument("map")
    p.add_argument("--eps", required=True)
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--subdivisions", type=int, default=None)
    p.set_defaults(func=cmd_shred)

    p = sub.add_parser("verify", help="re-verify a trapping report")
    p.add_argument("map")
    p.add_argument("report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wicked", help="window perturbation toward a target spec")
    p.add_argument("homeo")
    p.add_argument("target")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--family-dump-depth-cap", type=int, default=12)
    p.set_defaults(func=cmd_wicked)

    p = sub.add_parser("pushforward", help="exact push-forward of a measure")
    p.add_argument("map")
    p.add_argument("measure")
    p.add_argument("--iters", type=int, default=1)
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("cesaro", help="Cesaro average of push-forward iterates")
    p.add_argument("map")
    p.add_argument("measure")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_cesaro)

    p = sub.add_parser("birkhoff", help="exact Birkhoff averages along an orbit")
    p.add_argument("map")
    p.add_argument("--x", required=True)
    p.add_argument("--obs", required=True, help="tent:p/q | const:p/q | file.json")
    p.add_argument("--horizons", default="100,1000,10000")
    p.set_defaults(func=cmd_birkhoff)

    max_period_help = (
        "largest period q (at least 1) tried for an exact rotation number "
        "p/q of a homeomorphism"
    )
    p = sub.add_parser("rotation", help="exact rotation number of a homeomorphism")
    p.add_argument("map")
    p.add_argument("--max-period", type=int, default=16, help=max_period_help)
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("classify", help="w-taxonomy diagnostics")
    p.add_argument("map")
    p.add_argument("--report", default=None)
    p.add_argument("--declared-specs", nargs="*", default=None)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--horizons", default="100,1000,10000")
    p.add_argument("--tol", default="1/100")
    p.add_argument("--max-period", type=int, default=16, help=max_period_help)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("demo", help="built-in demonstration runs")
    p.add_argument("--figure3", action="store_true")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except ResourceCap as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except VerificationFailure as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
