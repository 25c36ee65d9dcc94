#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --seconds 15 --trace 0 \
        --workloads tail-narrow,scalar --out perfbench/out/summary.json

For every workload and metric it prints the median, the quartiles and the
spread (q3 - q1) / median, with quartiles taken as
``statistics.quantiles(values, n=4)`` gives them.  It also checks that the
two thread counts of each tail shape produced the same output digest for
the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Kept out of development: confirm a claimed gain on this seed too.
HOLDOUT_SEED = 7919


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    digest = next(ln.split(" = ")[1] for ln in lines if ln.startswith("digest outputs = "))
    wall = next(ln for ln in lines if ln.startswith("unscaled wall clock: "))
    unscaled = {
        name: float(value.split()[0])
        for name, value in (part.split(" = ") for part in wall.split(": ", 1)[1].split(", "))
    }
    return {"result": result, "digest": digest, "wall": unscaled, "record": record}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary: dict = {"holdout_seed": HOLDOUT_SEED, "seeds": seeds, "seconds": args.seconds,
                     "trace": args.trace, "workloads": {}}
    digests: dict = {}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run["result"])
            walls.append(run["wall"])
            digests[(workload, seed)] = run["digest"]
            m = run["result"]["metrics"]
            brief = " ".join(f"{k}={m[k]['value']:.6g}" for k in list(m)[:4])
            print(f"{workload} seed={seed} correct={run['result']['correct']} "
                  f"failed={run['result']['failed']}/{run['result']['attempted']} {brief}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), unit=runs[0]["metrics"][name]["unit"],
                                 better=better[name], values=values)
        unscaled = {name: summarize([w[name] for w in walls]) for name in walls[0]}
        summary["workloads"][workload] = {
            "why": why[workload],
            "env": run["record"]["env"],
            "inputs": run["record"]["inputs"],
            "metrics": metrics,
            "unscaled_wall_clock": unscaled,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "digests": {str(seed): digests[(workload, seed)] for seed in seeds},
        }
        for name, s in metrics.items():
            if args.trace == 0 or name == "trace.overhead_frac":
                print(f"  {workload:15s} {name:20s} median={s['median']:.6g} "
                      f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}")
        for name, s in unscaled.items():
            print(f"  {workload:15s} unscaled {name:11s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f}")
    mismatched = [
        (w, s) for (w, s), d in digests.items()
        if w.endswith("-mt") and (w[:-3], s) in digests and digests[(w[:-3], s)] != d
    ]
    for w, s in mismatched:
        print(f"DIGEST MISMATCH: {w} vs {w[:-3]} at seed {s}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
