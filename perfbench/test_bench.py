"""Tests of the benchmark itself: checks, span accounting, smoke runs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from subgauss import ExperimentConfig, parse_distribution, run_tail_experiment, write_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _mom_report():
    config = ExperimentConfig(
        dist=parse_distribution("pareto:2.5,1"), estimator="mom", n=64, trials=2000,
        deltas=(0.1, 0.01), seed=5,
    )
    return run_tail_experiment(config)


def test_perturbed_report_fails_the_mom_check():
    report = _mom_report()
    assert checks.mom_exceedance(report) is None
    rows = list(report.rows)
    rows[0] = dataclasses.replace(rows[0], exceedance=0.5)
    assert "mom exceedance" in checks.mom_exceedance(dataclasses.replace(report, rows=rows))


def test_perturbed_report_bytes_fail_the_determinism_check(tmp_path):
    path = tmp_path / "r.json"
    write_report(_mom_report(), "json", path)
    data = path.read_bytes()
    ledger = checks.Ledger()
    assert ledger.check("mom", data) is None
    assert ledger.check("mom", data) is None
    perturbed = data.replace(b'"exceedance": 0', b'"exceedance": 1', 1)
    assert perturbed != data
    assert "differs" in ledger.check("mom", perturbed)


def test_stress_and_estimate_checks_reject_bad_outputs():
    assert checks.stress_bound(0.3, 0.1, 0.5, 10_000) is None
    assert checks.stress_bound(0.1, 0.1, 0.5, 10_000) is not None
    assert checks.finite_estimate(1.5) is None
    assert checks.finite_estimate(math.nan) is not None
    assert checks.finite_estimate(math.inf) is not None


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent [0, 10]; children in two threads overlap on [2, 4]; a
    # grandchild inside child 2 must not reduce the parent's self time.
    recorded = [
        (1, -1, 1, "harness.run_tail_experiment", 0.0, 10.0, 0),
        (2, 1, 1, "distributions._draw", 1.0, 4.0, 7),
        (3, 1, 1, "batch.mom_rows", 2.0, 6.0, 64),
        (4, 3, 1, "batch.block_mean_rows", 2.5, 3.5, 32),
    ]
    out = spans.summarize(recorded)
    assert out["harness.run_tail_experiment"]["busy_s"] == 10.0
    assert out["harness.run_tail_experiment"]["self_s"] == pytest.approx(5.0)
    assert out["batch.mom_rows"]["self_s"] == pytest.approx(3.0)
    assert out["distributions._draw"]["amount"] == 7
    assert out["seeding.mix_seed"]["calls"] == 0


def test_tracer_restores_every_wrapped_attribute():
    import subgauss._batch as batch
    import subgauss.harness as harness

    before = (harness.mix_seed, harness._draw, batch.mom_rows)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.mix_seed is not before[0]
        with tracer.operation(1):
            harness.mix_seed(1, 2)
    finally:
        tracer.uninstall()
    assert (harness.mix_seed, harness._draw, batch.mom_rows) == before
    (span,) = tracer.spans()
    assert span[1] == -1 and span[2] == 1 and span[3] == "seeding.mix_seed"


def test_benchmark_json_matches_the_benchmark():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["paths"] == ["perfbench"]


def _smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_named_metric(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for m in wanted:  # and each is printed by name with its unit
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _smoke("scalar", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
