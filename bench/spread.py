#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME --seeds 0-9 [--seconds S]

Runs bench/run.py once per seed, one after another, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.
A benchmark whose spread exceeds a metric's bound in BENCHMARK.json cannot
tell a regression of that size from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} failed", file=sys.stderr)
        runs.append(result["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        share = spread(values) if len(values) > 1 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:24s} median {statistics.median(values):14.6g}  "
              f"IQR/median {share:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
