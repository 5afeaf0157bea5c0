"""Report serialization: compact sorted-key ASCII JSON, and pinned report digests."""

import hashlib
import json

import pytest

from conftest import import_bench_module
from twinsync.cli import EXIT_OK, main
from twinsync.machine import machine_from_dict
from twinsync.oracle import build_schedule_scenario
from twinsync.runner import RunReport, run_scenario
from twinsync.scenario import fixture_path, scenario_from_dict


def compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def indented(data: bytes) -> bytes:
    """A report's text as first pinned: `json.dumps(indent=2)` plus a newline."""
    return (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("bad", [object(), {"k": {1, 2}}, [b"bytes"], {("a",): 1}])
def test_unencodable_values_raise_like_stdlib(bad):
    """The report takes no fallback encoder: what json.dumps refuses, it refuses."""
    with pytest.raises(TypeError):
        json.dumps(bad)
    report = RunReport(scenario={}, slots=[bad], detection_events=[], audits=[], summary={})
    with pytest.raises(TypeError):
        report.to_json_bytes()


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
        data = report.to_json_bytes()
        assert data.isascii()
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert json.loads(data) == report.to_json_dict()
        assert compact(json.loads(data)) == data


# SHA-256 of `twinsync run` reports on the bundled scenarios, re-indented by
# `indented`: the text of every report since the first release, so the
# compact reports lose nothing.  Bounded, ack-anchored delta records (ROADMAP
# item 5) change what the physical twin ships, so they will change these on
# purpose.
PINNED_REPORTS = {
    "fig4_walkthrough": "07fc38bae6c86a4f7bb86b66817e936ebcf0ab71ae465e3eb451ff17ea678a7a",
    "attack_matrix": "59401e448e7a0d339bc62f53f565479a6e3968b6c3287a7a30e1cf1333ef9205",
}
# SHA-256 of the same reports as written: compact, sorted keys, one newline.
PINNED_COMPACT_REPORTS = {
    "fig4_walkthrough": "3747752f13aca04d3d4d4a9fc763f3eba610655a47cc6dc13626942ede9db456",
    "attack_matrix": "316c0837f83101773d3f623a4aa166ad8895b635d7cdfd04c4b7b29e6713089b",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_bundled_reports_match_pinned_digests(name, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--scenario", str(fixture_path(name + ".json")), "--out", str(out)])
    assert rc == EXIT_OK
    data = out.read_bytes()
    assert hashlib.sha256(indented(data)).hexdigest() == PINNED_REPORTS[name]
    assert hashlib.sha256(data).hexdigest() == PINNED_COMPACT_REPORTS[name]


# SHA-256 over each bench workload's seed-0 reports, re-indented as above
# and concatenated in `_workload_specs` order.  Unlike the two bundled scenarios these cover
# lossy drops, template INSERTs, payload splices and the oracle sweep.
PINNED_WORKLOAD_REPORTS = {
    "idle_at_key": "59a658e14f52aef16f56bb595aa3dfa25d0cdfb351f9889883fcb028df6fc52c",
    "idle_between_keys": "30cfc16b14822ea90a7629b81e40128a9a58a75938e1ad3ba635404bfe7b37f8",
    "attack_dense": "4e87ec3176eb0ec967b796bc1540b0a6146fa3dda23e7c0b89b024a9c1ab6318",
    "oracle_sweep": "42c8271fcb49b6d56a9df80a27b1fbde4c14474377a7b97e9506caa9cd87bfa4",
}
PINNED_COMPACT_WORKLOAD_REPORTS = {
    "idle_at_key": "d34407742c11e0dcb738263359d2a1d3ccded27d9e52bf08b13b861bd8958014",
    "idle_between_keys": "f054b38dff1f5d77214c462ff144ab9f8cb8e5ee4285ff2e583e67bf0345afb9",
    "attack_dense": "5d3e31d0785b297e0d148c90c9d81e974e4206ba38a38d54bf1df4de7c25cbf6",
    "oracle_sweep": "89f3f378af823e9c43d50a6545df0662b653d415977a03f480cbe1e53e38ca27",
}


@pytest.mark.parametrize("workload", sorted(PINNED_WORKLOAD_REPORTS))
def test_bench_workload_reports_match_pinned_digests(workload):
    digest = hashlib.sha256()
    compact_digest = hashlib.sha256()
    for spec in _workload_specs(workload):
        data = run_scenario(spec).to_json_bytes()
        digest.update(indented(data))
        compact_digest.update(data)
    assert digest.hexdigest() == PINNED_WORKLOAD_REPORTS[workload]
    assert compact_digest.hexdigest() == PINNED_COMPACT_WORKLOAD_REPORTS[workload]
