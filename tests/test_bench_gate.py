"""The benchmark's correctness gate, run in tier-1.

`python3 bench/run.py` counts a case whose report `bench/gate.py`'s
`check_report` finds a problem with as a failed operation, and reports the
share that passed as `ok_ratio`.  The same check runs here, on every case of
each workload at five seeds, so a change that breaks a run (an attack that
no longer finds its frame, a replica that leaves the oracle's fold) fails a
test instead of lowering `ok_ratio`.  The bench modules are only imported,
never changed.
"""

import importlib
from types import SimpleNamespace

import pytest

from tests.conftest import import_bench_module

SEEDS = (0, 1, 2, 17, import_bench_module("workloads").HELD_OUT_SEED)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "workload", ["idle_at_key", "idle_between_keys", "attack_dense", "oracle_sweep"]
)
def test_every_bench_case_passes_the_gate(workload, seed):
    """Cases are built by `run.build_cases` from the already imported package
    (`run.import_twinsync` would import it afresh), and checked against the
    oracle fold exactly where the benchmark checks them."""
    run = import_bench_module("run")
    ts = SimpleNamespace(**{m: importlib.import_module(f"twinsync.{m}") for m in run.MODULES})
    generator = run.WORKLOADS[workload]
    cases = run.build_cases(ts, generator, generator.generate(seed))
    assert cases
    failures = []
    for case in cases:
        report = ts.runner.run_scenario(case.spec)
        expected = run._expected(ts, case) if case.oracle_exact else None
        problems = run.gate.check_report(report, case.spec, expected)
        if problems:
            failures.append((case.spec.name, problems))
    assert failures == []
