"""Report serialization: compact sorted-key ASCII JSON, the frame table, and
pinned report digests.

Every report is pinned as written (`twinsync.report.v3`), projected back to
v2 by `conftest.v2_report`, and from there to v1 by `conftest.v1_report`.
The v2 and v1 digests are those the reports had when written in those
versions, so the projections show that v2 changed how frames are named, v3
left out what said nothing, and neither changed anything else."""

import functools
import hashlib
import json
from importlib import resources

import jsonschema
import pytest

from conftest import heat_once_then_idle, import_bench_module, v1_report, v2_report
from twinsync.cli import EXIT_OK, main
from twinsync.machine import machine_from_dict
from twinsync.oracle import build_schedule_scenario
from twinsync.runner import RunReport, run_scenario
from twinsync.scenario import fixture_path, load_bundled_scenario, scenario_from_dict


def compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def indented(data: bytes) -> bytes:
    """A report's text as first pinned: `json.dumps(indent=2)` plus a newline."""
    return (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()


def as_v2(data: bytes) -> bytes:
    """A written v3 report projected to v2, compact as v2 was written."""
    return compact(v2_report(json.loads(data)))


def as_v1(data: bytes) -> bytes:
    """A written v3 report projected to v1, compact as v1 was written."""
    return compact(v1_report(v2_report(json.loads(data))))


@pytest.mark.parametrize("bad", [object(), {"k": {1, 2}}, [b"bytes"], {("a",): 1}])
def test_unencodable_values_raise_like_stdlib(bad):
    """The report takes no fallback encoder: what json.dumps refuses, it refuses."""
    with pytest.raises(TypeError):
        json.dumps(bad)
    report = RunReport(
        scenario={}, slots=[bad], frames=[], detection_events=[], audits=[], summary={}
    )
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


# SHA-256 of `twinsync run` reports on the bundled scenarios, projected to
# v1 and re-indented by `indented`: the text every report had from the first
# release until delta records were anchored at the newest acknowledged
# record, which changed what the physical twin ships and so every digest
# here, once.
PINNED_REPORTS = {
    "fig4_walkthrough": "1b9e415b886aef4e8aef473a4dab5a7954335691bb04d1c3afd93c69c274f2b8",
    "attack_matrix": "13aa3b41ee9cc8f91d66e47235e187e72509bef04e142fb2a95c6759819a2a12",
}
# SHA-256 of the same v1 projections, compact, sorted keys, one newline.
PINNED_COMPACT_REPORTS = {
    "fig4_walkthrough": "58301ad769a1ad338827c2a3d2e184ed9f3d6257dd4e47df2ef8e793acbeb06f",
    "attack_matrix": "e18d81513f0ba5b6b5645f2c4aa615dede3fd3dac9219df03d9e0f0a9510eade",
}
# SHA-256 of the same reports as v2 wrote them, projected by `as_v2`.
PINNED_V2_REPORTS = {
    "fig4_walkthrough": "8c1ec97d83b1349169f0a19be40303b7073d22330022729c1804935ce125aef9",
    "attack_matrix": "2d3f6c4293063da502f9748a8353dd3e27db0d9d953a438675f104dc0eabc8ff",
}
# SHA-256 of every pinned report as written (`twinsync.report.v3`): the two
# bundled scenarios above, the four bench workloads and the two lossy runs
# below, a workload's reports concatenated as its other digests are.
PINNED_V3_REPORTS = {
    "fig4_walkthrough": "a7bf3218c0849f6abf7ede1ca9af99046aacc1695098f0da60a870ffeced704d",
    "attack_matrix": "457cf6eda6f0aadbb0602852ea2afd699855a7130a3d80eeb1a72ff95fd01f6b",
    "idle_at_key": "a474a6a9aa9601731762f47e708b18c830d5b015e4ae390c98eb380cd1c26d5e",
    "idle_between_keys": "4ae716b43e872ecb1fa6674f08bc65d184e97d54bf181af6beb256fdb34546fa",
    "attack_dense": "c94e7fbfdc07d8ccf54950698c96f85c382fcbbea52e85164f24f015ffe1cf4d",
    "oracle_sweep": "766642c4faea3696cce72b56b0a7cdb0d23e375235722ce726d5aed2061d1fee",
    "attack_matrix_loss_0.3": "4db1d7ea15485c77dde07fefed238753adda4114371a9a3d3775891ec4b90e32",
    "idle_between_keys_loss_0.1": "803bb9ce85d8aa445d7b72f1201ebacc2d20a1d0a66bfff64d8495d29cb3af62",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_bundled_reports_match_pinned_digests(name, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--scenario", str(fixture_path(name + ".json")), "--out", str(out)])
    assert rc == EXIT_OK
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_V3_REPORTS[name]
    assert hashlib.sha256(as_v2(data)).hexdigest() == PINNED_V2_REPORTS[name]
    v1 = as_v1(data)
    assert hashlib.sha256(indented(v1)).hexdigest() == PINNED_REPORTS[name]
    assert hashlib.sha256(v1).hexdigest() == PINNED_COMPACT_REPORTS[name]


# SHA-256 over each bench workload's seed-0 reports, projected to v1,
# re-indented as above and concatenated in `_workload_specs` order.  Unlike
# the two bundled scenarios these cover lossy drops, template INSERTs,
# payload splices and the oracle sweep.
PINNED_WORKLOAD_REPORTS = {
    "idle_at_key": "6df8ee6d9293661b70b1680a9746521c85c861f0ee997966ad087448b556322c",
    "idle_between_keys": "1f54fdcb48b88ddbb8d695909425cb0b7b8d3c010a2788a217b0dd5cc458e799",
    "attack_dense": "5a6d16ff2a40aa590eb81bef025430d44fe99ff574cebe66795d251737138378",
    "oracle_sweep": "a00ceb0c12e69ab4f82a776a39bc53fff3fa2b383735db4040a1515bf3338d50",
}
PINNED_COMPACT_WORKLOAD_REPORTS = {
    "idle_at_key": "eda35f1ba469e55427af531e1f026f61badef1398f3013a22a66a97340ddf590",
    "idle_between_keys": "66cb696e5518b8cd3b2a534385bb7d95889423fd2ae697b6e68ba683452b1a14",
    "attack_dense": "ca2fa1e1354ea49b5ffd66d416fe95eb25d30941b1c9e9820218f7ee33aeafa1",
    "oracle_sweep": "2697fd2973325e9cae6d417a470b87850aa5bda1a2b8337a16251083658f71e6",
}
PINNED_V2_WORKLOAD_REPORTS = {
    "idle_at_key": "1cc7721e70367f46b1b6e5f2967b2604c8cdf0e15be4f65b335e3fa0b847b35c",
    "idle_between_keys": "6d635ee7a18315102c86b93189e395759f824bfd177bff6204590f0b4f9c31fc",
    "attack_dense": "c78e808492d025435332f325f2b7658d60149d1b89ba53007b6efae3c3b54722",
    "oracle_sweep": "20c9ef70fd1e44131930f78ac586e6810d58cae8b48334f073491b5bd70b2e28",
}


@pytest.mark.parametrize("workload", sorted(PINNED_WORKLOAD_REPORTS))
def test_bench_workload_reports_match_pinned_digests(workload):
    digest = hashlib.sha256()
    compact_digest = hashlib.sha256()
    v2_digest = hashlib.sha256()
    v3_digest = hashlib.sha256()
    for spec in _workload_specs(workload):
        data = run_scenario(spec).to_json_bytes()
        v3_digest.update(data)
        v2_digest.update(as_v2(data))
        v1 = as_v1(data)
        digest.update(indented(v1))
        compact_digest.update(v1)
    assert v3_digest.hexdigest() == PINNED_V3_REPORTS[workload]
    assert v2_digest.hexdigest() == PINNED_V2_WORKLOAD_REPORTS[workload]
    assert digest.hexdigest() == PINNED_WORKLOAD_REPORTS[workload]
    assert compact_digest.hexdigest() == PINNED_COMPACT_WORKLOAD_REPORTS[workload]


def _lossy_attack_matrix():
    """`attack_matrix` at 0.3 loss on both links: 7 up-link and 9 down-link drops."""
    doc = json.loads(fixture_path("attack_matrix.json").read_text())
    for channel in doc["channels"].values():
        channel["drop_probability"] = 0.3
    return scenario_from_dict(doc)


# SHA-256 of two reports whose runs drop frames on both links, up-link
# records included, which none of the bench workloads does: projected to v2,
# then projected to v1 compact, then that re-indented by `indented`.
PINNED_LOSSY_REPORTS = {
    "attack_matrix_loss_0.3": (
        _lossy_attack_matrix,
        "3d89307e02bad810042a27b4e318ba695a8e6622cb0ce78429e37908ecbb1a36",
        "e098ece82a190bb9b3b6786757b08be0f2b0a992c373c36324e517e76ae0e152",
        "3f199b11a803c8434c5340f65236e0cbfe08a212f11f10ab0aefb6bad4631fbd",
    ),
    "idle_between_keys_loss_0.1": (
        functools.partial(heat_once_then_idle, 2000, drop=0.1),
        "34029cccbef8959d4e722c0a4196b9f6adb2708c83781ab59e110081014afc5d",
        "7a5034aaadbe25fb2966050b7d3950fb0614b31f764ca134b644c2f6ba0b6607",
        "73e943faa47cff5efaaaff200014be0a30b4af166e3e94a37afe2497f6036f9d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_LOSSY_REPORTS))
def test_lossy_reports_match_pinned_digests(name):
    build, v2_sha, compact_sha, indented_sha = PINNED_LOSSY_REPORTS[name]
    report = run_scenario(build())
    for link in ("phys_to_virt", "virt_to_phys"):
        assert any(link in row.get("dropped", {}) for row in report.slots)
    assert report.summary["verdict"] == "pass"
    data = report.to_json_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_V3_REPORTS[name]
    assert hashlib.sha256(as_v2(data)).hexdigest() == v2_sha
    v1 = as_v1(data)
    assert hashlib.sha256(v1).hexdigest() == compact_sha
    assert hashlib.sha256(indented(v1)).hexdigest() == indented_sha


def _pinned_runs(name: str):
    """The specs of one pinned report source: a bundled scenario, a bench
    workload, or a lossy run."""
    if name in PINNED_REPORTS:
        return [load_bundled_scenario(name)]
    if name in PINNED_WORKLOAD_REPORTS:
        return _workload_specs(name)
    return [PINNED_LOSSY_REPORTS[name][0]()]


@pytest.mark.parametrize(
    "name", [*PINNED_REPORTS, *PINNED_WORKLOAD_REPORTS, *PINNED_LOSSY_REPORTS]
)
def test_frame_table_holds_each_frame_once_and_every_id_points_into_it(name):
    for spec in _pinned_runs(name):
        doc = v2_report(run_scenario(spec).to_json_dict())
        frames = doc["frames"]
        assert len(set(frames)) == len(frames)
        ids = [
            i
            for row in doc["slots"]
            for link in ("phys_to_virt", "virt_to_phys")
            for i in [*row["sent"][link], *row["dropped"][link]]
            + [pair[0] for pair in row["delivered"][link]]
        ]
        assert all(isinstance(i, int) and 0 <= i < len(frames) for i in ids)
        assert set(ids) == set(range(len(frames)))


REPORT_VALIDATOR = jsonschema.Draft202012Validator(
    json.loads(
        resources.files("twinsync").joinpath("schemas", "report.schema.json").read_text("utf-8")
    )
)


@pytest.mark.parametrize(
    "name", [*PINNED_REPORTS, *PINNED_WORKLOAD_REPORTS, *PINNED_LOSSY_REPORTS]
)
def test_report_validates_against_the_schema(name):
    for spec in _pinned_runs(name):
        REPORT_VALIDATOR.validate(run_scenario(spec).to_json_dict())


def _accepted_as_a_pair(doc: dict) -> None:
    received = doc["slots"][1]["delivered"]["phys_to_virt"]
    received[0] = [received[0], "accepted"]


@pytest.mark.parametrize(
    "respell",
    [
        lambda doc: doc["slots"][1].update(dropped={}),
        lambda doc: doc["slots"][1].update(adversary_actions=[]),
        _accepted_as_a_pair,
        lambda doc: doc["consistency_audit"].append(
            {"slot": 1, "ok": False, "replica_key_state": 0, "expected": 25}
        ),
    ],
    ids=["empty_dropped", "empty_adversary_actions", "accepted_pair", "audit_with_ok"],
)
def test_schema_rejects_a_second_spelling_of_a_fact(respell):
    """A v3 row states each fact one way: an empty map or list, an
    `[id, "accepted"]` pair and an audit's `ok` are v2's spellings."""
    doc = run_scenario(load_bundled_scenario("fig4_walkthrough")).to_json_dict()
    REPORT_VALIDATOR.validate(doc)
    respell(doc)
    with pytest.raises(jsonschema.ValidationError):
        REPORT_VALIDATOR.validate(doc)
