#!/usr/bin/env python3
"""Benchmark of subgauss: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tail-narrow --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (no install needed).  One caller drives the program in a closed
loop.  Every input is generated from ``--seed``; every output is checked,
and an operation that raises or fails a check counts in ``failed``.

With ``--trace 0`` the run measures the end-to-end metrics for ``--seconds``.
With ``--trace 1`` it measures the same loop untraced for half the time,
then with every layer boundary wrapped in spans (see spans.py) for the other
half, and prints the per-layer metrics plus the tracing overhead.  The last
line of standard output is the JSON result; the lines before it name every
metric with its unit, the environment and the output digests.  ``--smoke``
shrinks every input so that a run takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = OUT / f"work-{os.getpid()}"  # this run's report and input files

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
DELTAS = (0.1, 0.01, 0.001)

# Tail shapes.  Trials are two whole harness chunks (4096 rows at n=256,
# 256 rows at n=16384), so at threads=2 each thread gets one chunk.
TAIL_SHAPES = {
    "narrow": {
        "dist": "pareto:2.5,1",
        "n": 256,
        "trials": 8192,
        "estimators": (("empirical", {}), ("mom", {}), ("kurtosis", {})),
    },
    "wide": {
        "dist": "student:6",
        "n": 16384,
        "trials": 512,
        "estimators": (
            ("quantile_kreg", {}),
            ("combined_fixed_sigma", {"sigma2_hi": 1.5}),
            ("combined_adaptive", {}),
            ("kurtosis", {}),
        ),
    },
}
SMOKE_TAIL = {"narrow": {"trials": 256}, "wide": {"n": 1024, "trials": 32}}

SCALAR_DIST = "lognormal:0,1"
SCALAR_SIZES = (1024, 8192)
SCALAR_SAMPLES = 8  # distinct samples per size, cycled
SCALAR_KINDS = ("median_of_means", "quantile_interval", "fixed_sigma", "adaptive", "kurtosis_estimate")

# infvar_stress at the criterion-08 shape, median-of-means as the estimator.
STRESS_SHAPE = {"n": 100, "delta": 0.05, "alpha": 1.0, "M": 1.0}
STRESS_TRIALS = 20  # per call; a call takes ~4 ms
STRESS_SEEDS = 16
# Calls per latency window: a p99 would have at least 10 calls beyond it.
WINDOW_CALLS = 1000

# name -> (kind, tail shape, threads, reference kernel of SpeedRef)
WORKLOADS = {
    "tail-narrow": ("tail", "narrow", 1, "small"),
    "tail-narrow-mt": ("tail", "narrow", NPROC, "small"),
    "tail-wide": ("tail", "wide", 1, "memory"),
    "tail-wide-mt": ("tail", "wide", NPROC, "memory"),
    "scalar": ("scalar", None, 1, "small"),
    "stress": ("stress", None, 1, "small"),
}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms": "ms", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name.startswith("batch."):
            units[f"{name}.bytes"] = "bytes"
    units["distributions._draw.values_per_s"] = "1/s"
    units["harness.report_bytes"] = "bytes"
    units["setup.import_s"] = "s"
    units["cli.run_cli.busy_s"] = "s"
    for kind in SCALAR_KINDS:
        units[f"scalar.{kind}.p50_us"] = "us"
        units[f"scalar.{kind}.p99_us"] = "us"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = _per_layer_units()

SETUP_REPS = 3  # fresh interpreters timed per run; setup_s is their median
SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
import subgauss
t1 = time.perf_counter()
rc = subgauss.run_cli(["estimate", "--input", sys.argv[1], "--estimator", "mom", "--delta", "0.05"])
t2 = time.perf_counter()
print(json.dumps({"rc": rc, "import_s": t1 - t0, "run_cli_s": t2 - t1}))
"""


def input_seeds(seed: int, label: str, count: int) -> list[int]:
    """Seeds of the generated inputs: a pure function of (seed, label)."""
    seq = np.random.SeedSequence([seed, zlib.crc32(label.encode())])
    return [int(s) for s in seq.generate_state(count, dtype=np.uint64)]


def order_stat(values, q: float) -> float:
    """Rank-ceil(q*m) order statistic (1-based) of the values."""
    ordered = sorted(values)
    return ordered[min(max(math.ceil(q * len(ordered)), 1), len(ordered)) - 1]


class Outcome:
    """Counts operations attempted and failed; keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ledger = checks.Ledger()

    def record(self, *problems) -> bool:
        self.attempted += 1
        found = [p for p in problems if p]
        if found:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(found)
        return not found

    def crash(self, where: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where} raised:\n{traceback.format_exc()}")


def _op(tracer, op_id):
    return tracer.operation(op_id) if tracer else contextlib.nullcontext()


class SpeedRef:
    """A fixed reference kernel, timed between benchmark steps.

    The benchmark host is shared and its speed drifts, by 2x and more over
    tens of seconds, differently for different kinds of work.  Each step's
    wall time is multiplied by a nominal over the kernel's time per unit,
    measured just before and just after the step, which cancels most of
    that drift.  A workload uses the kernel whose work resembles its own:

    - "small": tiny numpy calls, for workloads made of many small calls
      (the one-sample estimators, infvar_stress, per-trial draws);
    - "memory": interpreter work, small calls, a partition of 8192 values
      and a block-sum pass over a 4 MB matrix, for the large-row kernels.

    Measured on the benchmark host, the scaled 12-second medians moved 2-4%
    where the raw ones moved 20-60%.  The kernels run no subgauss code, so a
    change to the program cannot move them; they run in as many threads as
    the workload.  Raw wall-clock figures are reported next to scaled ones.
    """

    # Median seconds per unit on the baseline host, by (kernel, threaded), so
    # scaled figures read close to wall-clock ones there.  Only sets the scale.
    NOMINAL_S = {
        ("small", False): 10e-6, ("small", True): 15e-6,
        ("memory", False): 380e-6, ("memory", True): 420e-6,
    }

    # Timing budget per measurement: at least ~100 units of the kernel.
    BUDGET_S = {"small": 0.01, "memory": 0.04}

    def __init__(self, kernel: str, threads: int = 1):
        rng = np.random.default_rng(12345)
        self._y = rng.random(8192)
        self._starts = np.arange(0, 8192, 64)
        if kernel == "memory":
            self._matrix = rng.random(32 * 16384)
            self._offsets = np.arange(0, self._matrix.size, 1024)
        self._unit = {"small": self._small, "memory": self._memory}[kernel]
        self.nominal_s = self.NOMINAL_S[kernel, threads > 1]
        self.budget_s = self.BUDGET_S[kernel]
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.threads = threads
        self.last = self.measure()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _small(self) -> None:
        tiny = self._y[:64]
        tiny.copy().sort()
        np.add.reduceat(self._y[:512], self._starts[:8])
        float(tiny.mean())

    def _memory(self) -> None:
        total = 0
        for i in range(300):
            total += i * i
        self._small()
        np.partition(self._y, 4096)
        np.add.reduceat(self._matrix, self._offsets)

    def _units(self, deadline: float) -> list[float]:
        unit = self._unit
        times = []
        t0 = time.perf_counter()
        while t0 < deadline:
            unit()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            t0 = t1
        return times

    def measure(self) -> float:
        """Median wall seconds of one unit, with `threads` threads running
        units; the median ignores a burst that stalls a few of them."""
        deadline = time.perf_counter() + self.budget_s
        if self._pool is None:
            return statistics.median(self._units(deadline))
        futures = [self._pool.submit(self._units, deadline) for _ in range(self.threads)]
        return statistics.median(t for f in futures for t in f.result())

    def factor(self) -> float:
        """Scale for the wall time spent since the previous call."""
        before, self.last = self.last, self.measure()
        return self.nominal_s / (0.5 * (before + self.last))


def run_steps(step, seconds: float, min_steps: int, smoke: bool, ref: SpeedRef) -> list:
    """Closed loop: steps until the next one would overrun `seconds`.

    step(i) returns (wall seconds, payload), or None when it failed.  Returns
    (wall seconds, scale factor, payload) per successful step.
    """
    done, factors = [], []
    start = time.perf_counter()
    i = 0
    while True:
        out = step(i)
        factors.append(ref.factor())
        if out is not None:
            done.append((out[0], i, out[1]))
        i += 1
        if i >= min_steps:
            elapsed = time.perf_counter() - start
            if smoke or elapsed + elapsed / i > seconds:
                break
    # One 10-40 ms reference measurement is noisy; the host's drift is slower
    # than a few steps, so each step takes the median of its neighbours'.
    smooth = [statistics.median(factors[max(0, j - 1):j + 2]) for j in range(len(factors))]
    return [(wall, smooth[j], payload) for wall, j, payload in done]


class TailLoad:
    """run_tail_experiment, then write_report and read_report, per estimator.

    A step is one experiment; the estimators take turns.  Per estimator the
    scaled experiment times give a median, and one pass over the estimators
    costs the sum of those medians.
    """

    def __init__(self, sg, shape: str, threads: int, seed: int, smoke: bool, outcome: Outcome):
        spec = dict(TAIL_SHAPES[shape], **(SMOKE_TAIL[shape] if smoke else {}))
        self.sg = sg
        self.outcome = outcome
        self.trials = spec["trials"]
        self.threads = threads
        self.smoke = smoke
        dist = sg.parse_distribution(spec["dist"])
        seeds = input_seeds(seed, f"tail-{shape}", len(spec["estimators"]))
        self.configs = [
            sg.ExperimentConfig(
                dist=dist, estimator=est, n=spec["n"], trials=spec["trials"],
                deltas=DELTAS, seed=s, threads=threads, params=params,
            )
            for (est, params), s in zip(spec["estimators"], seeds)
        ]
        self.inputs = {
            "dist": spec["dist"], "n": spec["n"], "trials": spec["trials"],
            "deltas": list(DELTAS), "threads": threads,
            "estimators": [dict(params, estimator=est) for est, params in spec["estimators"]],
            "experiment_seeds": seeds,
        }
        self.report_bytes: list[int] = []
        self.op_id = 0

    def _experiment(self, config, tracer):
        harness = self.sg.harness
        path = WORK / f"report-{config.estimator}-t{config.threads}.json"
        self.op_id += 1
        try:
            with _op(tracer, self.op_id):
                start = time.perf_counter()
                report = harness.run_tail_experiment(config)
                harness.write_report(report, "json", path)
                back = harness.read_report(path)
                elapsed = time.perf_counter() - start
            data = path.read_bytes()
        except Exception:
            self.outcome.crash(f"experiment {config.estimator}")
            return None
        self.report_bytes.append(len(data))
        ok = self.outcome.record(
            self.outcome.ledger.check(config.estimator, data),
            checks.mom_exceedance(report) if config.estimator == "mom" else None,
            None if len(back.rows) == len(report.rows) else "read_report lost rows",
        )
        return (elapsed, config.estimator) if ok else None

    def run(self, seconds: float, ref: SpeedRef, tracer=None) -> dict:
        configs = self.configs
        steps = run_steps(lambda i: self._experiment(configs[i % len(configs)], tracer),
                          seconds, len(configs), self.smoke, ref)
        scaled, raw = {}, {}
        for wall, factor, est in steps:
            scaled.setdefault(est, []).append(wall * factor)
            raw.setdefault(est, []).append(wall)
        if len(scaled) < len(configs):
            return {"rate": 0.0, "latency_ms": 0.0, "raw_rate": 0.0, "raw_latency_ms": 0.0}
        work = self.trials * len(configs)
        pass_s = sum(statistics.median(v) for v in scaled.values())
        raw_pass_s = sum(statistics.median(v) for v in raw.values())
        return {
            "rate": work / pass_s, "latency_ms": pass_s * 1e3,
            "raw_rate": work / raw_pass_s, "raw_latency_ms": raw_pass_s * 1e3,
        }

    def cross_check(self) -> None:
        """Every report again at threads=nproc: bytes must match threads=1.

        Only the threads=1 workloads do this; the -mt workloads check their
        repetitions, and collect.py compares digests across the pair.
        """
        if self.threads == 1:
            for config in self.configs:
                self._experiment(dataclasses.replace(config, threads=NPROC), None)


def _cycle_result(steps, work: int, q: float) -> dict:
    """Rate from the median scaled step time.  Latency: the q-quantile of the
    raw call times in each window of at least WINDOW_CALLS calls, scaled by
    the window's median factor, then the median over windows.
    """
    if not steps:
        return {"rate": 0.0, "latency_ms": 0.0, "raw_rate": 0.0, "raw_latency_ms": 0.0}
    windows, calls, factors = [], [], []
    for i, (_, factor, times) in enumerate(steps):
        calls.extend(times)
        factors.append(factor)
        if len(calls) >= WINDOW_CALLS or (not windows and i == len(steps) - 1):
            raw = order_stat(calls, q)
            windows.append((raw * statistics.median(factors), raw))
            calls, factors = [], []
    return {
        "rate": work / statistics.median(wall * factor for wall, factor, _ in steps),
        "latency_ms": statistics.median(w[0] for w in windows) * 1e3,
        "raw_rate": work / statistics.median(wall for wall, _, _ in steps),
        "raw_latency_ms": statistics.median(w[1] for w in windows) * 1e3,
    }


class ScalarLoad:
    """One-sample estimators on lognormal samples, one call at a time.

    A step runs every call kind once on every sample.
    """

    def __init__(self, sg, seed: int, smoke: bool, outcome: Outcome):
        self.outcome = outcome
        self.smoke = smoke
        dist = sg.parse_distribution(SCALAR_DIST)
        sizes = (1024,) if smoke else SCALAR_SIZES
        self.samples = []
        for n in sizes:
            for i, s in enumerate(input_seeds(seed, f"scalar-{n}", SCALAR_SAMPLES)):
                x = np.random.default_rng(s).lognormal(0.0, 1.0, n)
                self.samples.append((f"{n}/{i}", x))
        ce, ic, kp = sg.core_estimators, sg.interval_combiner, sg.kurtosis_pipeline
        kcfg = kp.KurtosisConfig(b_max=8, kappa_bound=dist.kappa)
        sigma2 = dist.sigma2
        self.calls = (
            ("median_of_means", lambda x: ce.median_of_means(x, 0.01)),
            ("quantile_interval", lambda x: ce.quantile_interval(x, 0.05, 1).midpoint),
            ("fixed_sigma", lambda x: ic.multiple_delta_estimate(
                x, "fixed_sigma", sigma2_hi=sigma2, delta_min=2.0**-10)),
            ("adaptive", lambda x: ic.multiple_delta_estimate(x, "adaptive", delta_min=2.0**-10)),
            ("kurtosis_estimate", lambda x: kp.kurtosis_estimate(x, kcfg)),
        )
        self.inputs = {
            "dist": SCALAR_DIST, "sizes": list(sizes), "samples_per_size": SCALAR_SAMPLES,
            "calls": [
                "median_of_means(x, 0.01)", "quantile_interval(x, 0.05, 1)",
                "multiple_delta_estimate(x, 'fixed_sigma', sigma2_hi=e(e-1), delta_min=2^-10)",
                "multiple_delta_estimate(x, 'adaptive', delta_min=2^-10)",
                "kurtosis_estimate(x, KurtosisConfig(8, kappa))",
            ],
        }
        self.kinds = [kind for _ in self.samples for kind, _ in self.calls]  # call order in a step
        self.per_kind: dict[str, list[float]] = {}
        self.op_id = 0

    def _step(self, tracer):
        times = []
        start = time.perf_counter()
        for key, x in self.samples:
            for kind, fn in self.calls:
                self.op_id += 1
                try:
                    with _op(tracer, self.op_id):
                        t0 = time.perf_counter()
                        value = fn(x)
                        dt = time.perf_counter() - t0
                except Exception:
                    self.outcome.crash(f"{kind} on sample {key}")
                    continue
                if self.outcome.record(
                    checks.finite_estimate(value),
                    self.outcome.ledger.check(f"{kind}@{key}", struct.pack("<d", value)),
                ):
                    times.append(dt)
        wall = time.perf_counter() - start
        return (wall, times) if len(times) == len(self.kinds) else None

    def run(self, seconds: float, ref: SpeedRef, tracer=None) -> dict:
        steps = run_steps(lambda i: self._step(tracer), seconds, 1, self.smoke, ref)
        if tracer is None:
            self.per_kind = {kind: [] for kind, _ in self.calls}
            for _, factor, times in steps:
                for kind, dt in zip(self.kinds, times):
                    self.per_kind[kind].append(dt * factor)
        # p95 sits inside the slowest call's cluster (adaptive at n=8192, a
        # tenth of the calls); the p99 moved 15-30% between runs on the
        # shared host, with interference bursts.  Per-call p99s are per layer.
        return _cycle_result(steps, len(self.kinds), 0.95)


class StressLoad:
    """infvar_stress with median-of-means, fixed trials per call.

    A step makes one call per seed.
    """

    def __init__(self, sg, seed: int, smoke: bool, outcome: Outcome):
        self.sg = sg
        self.outcome = outcome
        self.smoke = smoke
        self.trials = 10 if smoke else STRESS_TRIALS
        self.seeds = input_seeds(seed, "stress", STRESS_SEEDS)
        self.inputs = dict(STRESS_SHAPE, estimator="median_of_means(x, 0.05)",
                           trials_per_call=self.trials, seeds=self.seeds)
        self.op_id = 0

    def _step(self, estimator, tracer):
        adv = self.sg.adversarial
        times = []
        start = time.perf_counter()
        for s in self.seeds:
            self.op_id += 1
            try:
                with _op(tracer, self.op_id):
                    t0 = time.perf_counter()
                    fp, fm, match = adv.infvar_stress(
                        estimator, STRESS_SHAPE["n"], STRESS_SHAPE["delta"],
                        STRESS_SHAPE["alpha"], STRESS_SHAPE["M"], self.trials, s,
                    )
                    dt = time.perf_counter() - t0
            except Exception:
                self.outcome.crash(f"infvar_stress seed {s}")
                continue
            if self.outcome.record(
                checks.stress_bound(fp, fm, match, self.trials),
                self.outcome.ledger.check(f"stress@{s}", struct.pack("<3d", fp, fm, match)),
            ):
                times.append(dt)
        wall = time.perf_counter() - start
        return (wall, times) if len(times) == len(self.seeds) else None

    def run(self, seconds: float, ref: SpeedRef, tracer=None) -> dict:
        ce = self.sg.core_estimators
        delta = STRESS_SHAPE["delta"]

        def estimator(x):
            return ce.median_of_means(x, delta)

        if tracer:
            estimator = tracer.wrap(spans.ESTIMATOR_SPAN, estimator)
        steps = run_steps(lambda i: self._step(estimator, tracer), seconds, 1, self.smoke, ref)
        # The median call: the stress test is run for its rate, and its p99
        # moved 30% between runs on the shared host.
        return _cycle_result(steps, len(self.seeds) * self.trials, 0.5)


def measure_setup(sg, reps: int, seed: int, outcome: Outcome, ref: SpeedRef) -> dict:
    """Fresh interpreters: import subgauss, then one CLI estimate on a small file.

    Times are scaled by the reference kernel like every other timing.
    """
    values = np.random.default_rng(input_seeds(seed, "setup", 1)[0]).standard_t(6, 64)
    path = WORK / "setup-input.txt"
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    expected = format(sg.median_of_means(values, 0.05), ".17g")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    walls, raw, imports, clis = [], [], [], []
    for _ in range(reps):
        try:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(path)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            wall = time.perf_counter() - start
            factor = ref.factor()
            lines = proc.stdout.splitlines()
            info = json.loads(lines[-1])
        except Exception:
            outcome.crash("setup interpreter")
            continue
        if outcome.record(
            None if proc.returncode == 0 and info["rc"] == 0 else f"setup exit {proc.returncode}",
            None if lines[0] == expected else f"CLI printed {lines[0]!r}, expected {expected!r}",
        ):
            walls.append(wall * factor)
            raw.append(wall)
            imports.append(info["import_s"] * factor)
            clis.append(info["run_cli_s"] * factor)
    if not walls:
        return {"setup_s": 0.0, "raw_setup_s": 0.0, "import_s": 0.0, "run_cli_s": 0.0}
    return {
        "setup_s": statistics.median(walls),
        "raw_setup_s": statistics.median(raw),
        "import_s": statistics.median(imports),
        "run_cli_s": statistics.median(clis),
    }


def per_layer_metrics(summary: dict, extra: dict) -> dict:
    metrics = {}
    for name in spans.SPAN_NAMES:
        row = summary[name]
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.busy_s"] = row["busy_s"]
        metrics[f"{name}.self_s"] = row["self_s"]
        if name.startswith("batch."):
            metrics[f"{name}.bytes"] = row["amount"]
    draw = summary["distributions._draw"]
    metrics["distributions._draw.values_per_s"] = (
        draw["amount"] / draw["busy_s"] if draw["busy_s"] > 0 else 0.0
    )
    metrics.update(extra)
    return metrics


def environment() -> dict:
    l3 = None
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
            l3 = next((ln.split(":", 1)[1].strip() for ln in out.splitlines()
                       if ln.startswith("L3")), None)
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_cache": l3,
    }


def chunk_bytes(sg, n: int) -> int | None:
    """Bytes of one harness chunk at sample size n, from the harness constants."""
    target = getattr(sg.harness, "_CHUNK_TARGET", None)
    cap = getattr(sg.harness, "_MAX_CHUNK_TRIALS", None)
    if target is None or cap is None:
        return None
    return max(1, min(cap, target // n)) * n * 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "subgauss" / "__init__.py").is_file():
        print(f"error: no subgauss sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import subgauss as sg
    # Load every module the tracer wraps under its package attribute name.
    for mod in ("_batch", "adversarial", "core_estimators", "harness",
                "interval_combiner", "kurtosis_pipeline"):
        __import__(f"subgauss.{mod}")

    warnings.simplefilter("ignore", RuntimeWarning)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, sg)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args, sg) -> int:
    kind, shape, threads, kernel = WORKLOADS[args.workload]
    outcome = Outcome()
    reps = 1 if args.smoke else SETUP_REPS
    setup = measure_setup(sg, reps, args.seed, outcome, SpeedRef("memory"))

    if kind == "tail":
        load = TailLoad(sg, shape, threads, args.seed, args.smoke, outcome)
    elif kind == "scalar":
        load = ScalarLoad(sg, args.seed, args.smoke, outcome)
    else:
        load = StressLoad(sg, args.seed, args.smoke, outcome)

    ref = SpeedRef(kernel, threads)
    if args.trace == 0:
        result = load.run(args.seconds, ref)
    else:
        result = load.run(args.seconds / 2.0, ref)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = load.run(args.seconds / 2.0, ref, tracer)
        finally:
            tracer.uninstall()
        span_count = tracer.write(OUT / f"spans-{args.workload}.csv.gz")
        summary = spans.summarize(tracer.spans())
    if kind == "tail":
        load.cross_check()
    ref.close()

    if args.trace == 0:
        metrics = {
            "setup_s": setup["setup_s"],
            "ops_per_s": result["rate"],
            "latency_ms": result["latency_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        extra = {
            "harness.report_bytes": (
                statistics.median(load.report_bytes) if kind == "tail" and load.report_bytes else 0
            ),
            "setup.import_s": setup["import_s"],
            "cli.run_cli.busy_s": setup["run_cli_s"],
            "trace.overhead_frac": (
                result["rate"] / traced["rate"] - 1.0 if traced["rate"] > 0 else 0.0
            ),
        }
        for k in SCALAR_KINDS:
            lat = load.per_kind.get(k) if kind == "scalar" else None
            extra[f"scalar.{k}.p50_us"] = order_stat(lat, 0.5) * 1e6 if lat else 0.0
            extra[f"scalar.{k}.p99_us"] = order_stat(lat, 0.99) * 1e6 if lat else 0.0
        metrics = per_layer_metrics(summary, extra)
        units = PER_LAYER

    env = environment()
    if kind == "tail":
        env["chunk_bytes"] = chunk_bytes(sg, load.configs[0].n)
    digests = outcome.ledger.digests()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env, "inputs": load.inputs,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "problems": outcome.problems, "digests": digests,
        "outputs_digest": outcome.ledger.combined(),
        "metrics": metrics,
        "wall_clock": {"ops_per_s": result["raw_rate"], "latency_ms": result["raw_latency_ms"],
                       "setup_s": setup["raw_setup_s"]},
    }
    if args.trace:
        record["spans_written"] = span_count
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"env: {json.dumps(env)}")
    print(f"inputs: {json.dumps(load.inputs)}")
    if kind == "tail":
        for key, value in digests.items():
            print(f"digest {key} = {value}")
    print(f"digest outputs = {outcome.ledger.combined()}")
    print(f"failed_frac = {record['failed_frac']!r} ({outcome.failed} of {outcome.attempted})")
    print(f"unscaled wall clock: ops_per_s = {result['raw_rate']!r} 1/s, "
          f"latency_ms = {result['raw_latency_ms']!r} ms, setup_s = {setup['raw_setup_s']!r} s")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
