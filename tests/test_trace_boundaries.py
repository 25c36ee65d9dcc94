"""Every layer boundary that the benchmark's tracer wraps resolves on the package.

perfbench/spans.py swaps (module, attribute) pairs of subgauss for timing
wrappers; one that no longer exists makes every traced benchmark run exit 1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from subgauss import ExperimentConfig, _batch, harness, parse_distribution, run_tail_experiment

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_boundary_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, (sites, _amount) in spans.BOUNDARIES.items():
        first = None
        for mod_name, attr in sites:
            module = importlib.import_module(f"subgauss.{mod_name}")
            if not hasattr(module, attr):
                missing.append(f"{name}: subgauss.{mod_name}.{attr}")
                continue
            # Every site of one span must be the same function, or a traced
            # run would time one and silently miss the other.
            first = getattr(module, attr) if first is None else first
            assert getattr(module, attr) is first, f"{name}: subgauss.{mod_name}.{attr}"
    assert missing == []


@pytest.mark.parametrize(
    "estimator, kernel, params",
    [
        ("mom", "mom_rows", {}),
        ("quantile_kreg", "kreg_midpoint_rows", {}),
        ("combined_fixed_sigma", "combined_fixed_rows", {"sigma2_hi": 2.0}),
        ("combined_adaptive", "combined_adaptive_rows", {}),
        ("kurtosis", "truncated_pipeline_rows", {}),
    ],
)
def test_experiment_calls_the_batch_kernel_by_name(monkeypatch, estimator, kernel, params):
    # The tracer rebinds _batch.<kernel>; a kernel bound elsewhere before the
    # run would bypass the wrapper and its spans would read zero.
    calls = []
    real = getattr(_batch, kernel)

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(_batch, kernel, counting)
    config = ExperimentConfig(
        parse_distribution("gaussian:0,1"), estimator, 600, 3, (0.5,), seed=1, params=params
    )
    run_tail_experiment(config)
    assert calls


def test_chunk_layout_constants_resolve_on_harness():
    # perfbench reads these with getattr and records None when they are missing.
    assert isinstance(getattr(harness, "_CHUNK_TARGET", None), int)
    assert isinstance(getattr(harness, "_MAX_CHUNK_TRIALS", None), int)
