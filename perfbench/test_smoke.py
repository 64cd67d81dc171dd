"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at ``--size tiny`` (eps 1/5 and 1/10, grid 4, n = 2)
through the real command, checks that every metric BENCHMARK.json names is
emitted with its unit, that the layers predicted idle read zero calls, and
that a tampered artifact is counted as a failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

# layer -> workloads on which it must not be called at all
IDLE = {
    "orbits.orbit_averages.calls": ("shred-verify", "verify-perturbed"),
    "measures.pushforward.calls": ("shred-verify", "verify-perturbed"),
    "measures.cdf.calls": ("shred-verify", "verify-perturbed"),
    "exact.intervalset.calls": ("classify-wicked", "cesaro-wicked"),
}
# layer -> workloads whose mechanism it is
ACTIVE = {
    "exact.intervalset.calls": ("shred-verify", "verify-perturbed"),
    "plmaps.image_of_set.calls": ("shred-verify", "verify-perturbed"),
    "plmaps.preimage_of_set.calls": ("verify-perturbed",),
    "plmaps.compose.calls": ("classify-wicked",),
    "orbits.orbit_averages.calls": ("classify-wicked",),
    "measures.pushforward.calls": ("cesaro-wicked",),
    "measures.cdf.calls": ("cesaro-wicked",),
}


def bench(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_harness():
    assert NAMES == list(workloads.NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert len(layer_names) == len(set(layer_names))


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for metric, names in IDLE.items():
            if workload in names:
                assert result["metrics"][metric]["value"] == 0, metric
        for metric, names in ACTIVE.items():
            if workload in names:
                assert result["metrics"][metric]["value"] > 0, metric
    else:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0


def test_tampered_artifact_counts_as_failed(monkeypatch):
    """Editing perturbed.json between shred and verify must fail the run."""
    monkeypatch.chdir(ROOT)

    class Tampering(harness.Runner):
        def set_up(self):
            durations = super().set_up()
            shred_op = self.wl.jobs[0][0]
            run = shred_op.run

            def tampered(state):
                res = run(state)
                path = Path(self.work) / self.name / "e2-out" / "perturbed.json"
                rec = json.loads(path.read_text())
                rec["liftValues"][1] = rec["liftValues"][0]
                path.write_text(json.dumps(rec))
                return res

            shred_op.run = tampered
            return durations

    monkeypatch.setattr(harness, "SETUPS", 1)
    runner = Tampering(
        "shred-verify", 0, "tiny", 0, 0, Path(".perfbench-work"), HERE / "expected.json",
    )
    result = runner.run()
    assert result["failed"] >= 1 and not result["correct"]
    assert result["attempted"] == 4
    assert any("e2@1/5" in f for f in runner.failures)
