"""circledyn benchmark: one workload, closed loop, exact output checks.

    python3 perfbench/run.py --workload shred-verify --seed 0 --seconds 25 --trace 0

Run from the root of a circledyn checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Inputs, artifacts and a run record (with the spans of a traced run) go to
``.perfbench-work/``.  ``--record`` stores the run's outcomes as the
expected outputs of its seed in ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full", help="tiny is for the smoke test")
    p.add_argument("--record", action="store_true", help="store the outcomes as expected outputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "circledyn" / "__init__.py").is_file():
        print(f"no circledyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    # artifacts record their input paths, so paths stay relative to the root
    os.chdir(ROOT)
    work = Path(".perfbench-work")
    work.mkdir(parents=True, exist_ok=True)
    expected = HERE / "expected.json"
    runner = harness.Runner(
        args.workload, args.seed, args.size, args.seconds, args.trace,
        work, None if args.record else expected,
    )
    result = runner.run()
    runner.write_record(work / f"run-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    if args.record:
        if runner.failed:
            print("not recording: the run had failures", file=sys.stderr)
            return 1
        runner.save_expected(expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
