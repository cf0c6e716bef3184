"""Tiny-size smoke check of the benchmark harness.

Kept out of the tier-1 suite (pyproject's testpaths is tests/).  Run with

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run(bench_dir: Path, workload: str, trace: int):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    res = run(BENCH, workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run(tmp_path / "bench", WORKLOADS[0], 0)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def test_inputs_follow_the_seed(tmp_path):
    import workloads

    def labels(build, seed, pass_index=0):
        return [c.label for c in build(seed, pass_index, "tiny", str(tmp_path))]

    for name, build in workloads.WORKLOADS.items():
        assert labels(build, 7) == labels(build, 7), name
    assert labels(workloads.cli_mix, 7) != labels(workloads.cli_mix, 8)
    # Each pass of a run gets inputs of its own.
    assert labels(workloads.cli_mix, 7, 0) != labels(workloads.cli_mix, 7, 1)


def test_oracles():
    import workloads
    from pythrep import pythagorean, rep, thompson

    balanced = pythagorean.scalar_pair(workloads.SQRT_HALF, workloads.SQRT_HALF)
    x0 = thompson.generator(0)
    for n in (1, 2, 5, 16):
        assert abs(rep.gram_average_norm(balanced, x0, n) - workloads.gram_closed_form(n)) <= 1e-12
    for n in (0, 1, 3):
        assert thompson.generator(n).to_text() == workloads.generator_text(n)
    wrong = pythagorean.DiffuseVerdict(status="certified", depth=3, eps=1e-3)
    assert workloads._check_verdict(wrong, [(0.6, 0.8)], pythagorean.scalar_pair(0.6, 0.8))
    pole = pythagorean.scalar_pair(1.0, 0.0)
    assert workloads._check_verdict(pythagorean.diffuse_certificate(pole), [(1.0, 0.0)], pole) is None
