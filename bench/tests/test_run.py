"""End-to-end runs of the benchmark command, kept short with --seconds 1."""

import json
import random
import shutil
import subprocess
import sys

import pytest

import probes
import run
from conftest import BENCH
from workloads import WORKLOADS

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_contract_metrics_match_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]} == (
        probes.PER_LAYER_UNITS
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_prints_every_metric_and_passes_the_gate(trace, section):
    done = _run(
        BENCH.parent, "--workload", "attack_dense", "--seed", "5", "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "idle_at_key", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_refine_tail_retimes_only_the_slowest_cases():
    ts, cases = run.set_up(WORKLOADS["oracle_sweep"], 0, [])
    bench = run.Bench(ts, cases)
    bench.run_pass(first=True)
    before, attempted = list(bench.best), bench.attempted
    bench.refine_tail(0.05, random.Random(0))
    assert bench.attempted > attempted and not bench.failures
    changed = {i for i, (old, new) in enumerate(zip(before, bench.best)) if new != old}
    assert changed and all(bench.best[i] < before[i] for i in changed)
    slowest_tenth = set(sorted(range(len(cases)), key=before.__getitem__)[-len(cases) // 10:])
    assert changed <= slowest_tenth
