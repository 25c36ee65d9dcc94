"""Every layer boundary that the benchmark's tracer wraps resolves on the package.

perfbench/spans.py swaps (module, attribute) pairs of subgauss for timing
wrappers; one that no longer exists makes every traced benchmark run exit 1.
"""

import importlib
import importlib.util
from pathlib import Path

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
