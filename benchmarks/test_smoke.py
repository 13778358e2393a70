"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload briefly, untraced and traced, and checks that each
named metric is emitted with its unit, that every answer check ran, and that
the traced run recorded spans for the layers the workload exercises. Takes
about three and a half minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

CHECKS = {
    "plan": {"plan.optimum_vs_grid", "plan.throughput_vs_sim", "plan.bound_loss_meets_target"},
    "cli": {"cli.matches_in_process"},
}
TRACED_LAYERS = {
    "plan": ("laws.", "inference.", "allocation."),
    "cli": ("cli.", "fitting."),
}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_tiny_run_emits_every_metric_and_runs_every_check(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = spec.END_TO_END if trace == 0 else spec.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[len("provenance "):])
    assert set(provenance["checks_run"]) == CHECKS[workload]
    assert provenance["check_failures"] == {}
    assert provenance["percentile_samples"]["answer_p90_ms"]["beyond"] >= 10
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed", "percentile_samples"):
        assert key in provenance
    if trace:
        names = {json.loads(line)["name"] for line in (ROOT / provenance["trace_file"]).open()}
        for layer in TRACED_LAYERS[workload]:
            assert any(name.startswith(layer) for name in names), layer


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("plan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
