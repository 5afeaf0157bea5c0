"""Report serialization: the encoder against the stdlib, and pinned report digests."""

import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import import_bench_module
from twinsync.cli import EXIT_OK, main
from twinsync.machine import machine_from_dict
from twinsync.oracle import build_schedule_scenario
from twinsync.runner import json_text, run_scenario
from twinsync.scenario import fixture_path, scenario_from_dict


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


SPECIAL_FLOATS = [-0.0, 0.0, 1e300, -1e300, 5e-324, float("inf"), float("-inf"), float("nan")]
strings = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7fé \ud800\U0001f600ab')
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
    | strings
)


def nested(depth: int):
    if depth == 0:
        return scalars
    inner = nested(depth - 1)
    return (
        scalars
        | st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(strings, inner, max_size=4)
    )


@given(nested(4))
@example({"a": SPECIAL_FLOATS, "b": [[], {}, (), [True, False, None, 2**70]], "": "\x00\"é"})
def test_encoder_matches_stdlib(value):
    assert json_text(value) == reference(value)


@pytest.mark.parametrize("bad", [object(), {"k": {1, 2}}, [b"bytes"], {("a",): 1}])
def test_unencodable_values_raise_like_stdlib(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        json_text(bad)


@pytest.mark.parametrize("keyed", [{1: "a"}, {None: 0}, {"rows": [{2.5: True}]}])
def test_non_string_keys_are_refused(keyed):
    with pytest.raises(TypeError):
        json_text(keyed)


def _workload_specs(name: str, seed: int = 0):
    workloads = import_bench_module("workloads")
    workload = workloads.WORKLOADS[name]
    for doc in workload.generate(seed):
        spec = scenario_from_dict(doc)
        if not workload.sweep_schedules_up_to:
            yield spec
            continue
        machine = machine_from_dict(doc["machine"])
        for schedule in workloads.sweep_schedules(doc["machine"], workload.sweep_schedules_up_to):
            yield build_schedule_scenario(machine, schedule, seed=spec.seed)


@pytest.mark.parametrize(
    "workload", ["idle_at_key", "idle_between_keys", "attack_dense", "oracle_sweep"]
)
def test_bench_workload_reports_match_stdlib(workload):
    for spec in _workload_specs(workload):
        report = run_scenario(spec)
        assert report.to_json_bytes() == (reference(report.to_json_dict()) + "\n").encode()


# SHA-256 of `twinsync run` reports on the bundled scenarios, unchanged since
# the first release.  Bounded, ack-anchored delta records (ROADMAP item 2)
# change what the physical twin ships, so they will change these on purpose.
PINNED_REPORTS = {
    "fig4_walkthrough": "07fc38bae6c86a4f7bb86b66817e936ebcf0ab71ae465e3eb451ff17ea678a7a",
    "attack_matrix": "59401e448e7a0d339bc62f53f565479a6e3968b6c3287a7a30e1cf1333ef9205",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_bundled_reports_match_pinned_digests(name, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--scenario", str(fixture_path(name + ".json")), "--out", str(out)])
    assert rc == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[name]


# SHA-256 over each bench workload's seed-0 reports, concatenated in
# `_workload_specs` order.  Unlike the two bundled scenarios these cover
# lossy drops, template INSERTs, payload splices and the oracle sweep.
PINNED_WORKLOAD_REPORTS = {
    "idle_at_key": "59a658e14f52aef16f56bb595aa3dfa25d0cdfb351f9889883fcb028df6fc52c",
    "idle_between_keys": "30cfc16b14822ea90a7629b81e40128a9a58a75938e1ad3ba635404bfe7b37f8",
    "attack_dense": "4e87ec3176eb0ec967b796bc1540b0a6146fa3dda23e7c0b89b024a9c1ab6318",
    "oracle_sweep": "42c8271fcb49b6d56a9df80a27b1fbde4c14474377a7b97e9506caa9cd87bfa4",
}


@pytest.mark.parametrize("workload", sorted(PINNED_WORKLOAD_REPORTS))
def test_bench_workload_reports_match_pinned_digests(workload):
    digest = hashlib.sha256()
    for spec in _workload_specs(workload):
        digest.update(run_scenario(spec).to_json_bytes())
    assert digest.hexdigest() == PINNED_WORKLOAD_REPORTS[workload]
