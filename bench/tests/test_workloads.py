import json

import pytest

from twinsync.scenario import scenario_from_dict
from workloads import HELD_OUT_SEED, WORKLOADS, sweep_schedules

from conftest import BENCH


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_pure_functions_of_the_seed(name):
    generate = WORKLOADS[name].generate
    for seed in (0, 1, 17, HELD_OUT_SEED):
        assert generate(seed) == generate(seed)
    assert generate(0) != generate(1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_documents_are_valid_scenarios(name):
    for doc in WORKLOADS[name].generate(3):
        spec = scenario_from_dict(doc)
        assert spec.total_slots == doc["total_slots"]


def test_seed_only_varies_the_inputs_not_the_amount_of_work():
    for name, workload in WORKLOADS.items():
        sizes = {
            tuple(doc["total_slots"] for doc in workload.generate(seed)) for seed in range(5)
        }
        assert len(sizes) == 1, name


def test_sweep_enumerates_every_schedule_up_to_the_cap():
    (doc, *_) = WORKLOADS["oracle_sweep"].generate(0)
    schedules = sweep_schedules(doc["machine"], 5)
    assert len(schedules) == sum(3**n for n in range(6)) == len(set(schedules))


def test_held_out_seed_is_outside_the_tuning_range():
    assert HELD_OUT_SEED >= 100


def test_benchmark_json_lists_each_workload_with_its_rationale():
    contract = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
