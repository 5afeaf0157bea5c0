"""Report serialization: compact sorted-key ASCII JSON written in bounded
pieces, the frame table, and pinned report digests.

Every report is pinned as written (`twinsync.report.v4`), projected back to
v3 by `conftest.v3_report`, from there to v2 by `conftest.v2_report`, and
from there to v1 by `conftest.v1_report`.  The v3, v2 and v1 digests are
those the reports had when written in those versions, so the projections
show that v4 changed only how a frame is spelled, v2 how frames are named,
v3 left out what said nothing, and none changed anything else.  When the
records stopped shipping self-loops and every down-link record began to
acknowledge, only frame bytes changed: each report is also pinned with its
`frames` table left out, by digests taken before that change."""

import base64
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

from conftest import (
    IDLE,
    REPORT_VALIDATOR,
    heat_once_then_idle,
    import_bench_module,
    v1_report,
    v2_report,
    v3_report,
)
from twinsync.cli import EXIT_OK, main
from twinsync.frames import Frame, SequenceTracker, decode_frame
from twinsync.machine import machine_from_dict
from twinsync.netsim import Direction
from twinsync.oracle import build_schedule_scenario
from twinsync import runner
from twinsync.runner import (
    ACK,
    CHUNK,
    COMMAND,
    PHYSICAL_SENDER_ID,
    STATE_SYNC,
    VIRTUAL_SENDER_ID,
    RunReport,
    run_scenario,
)
from twinsync.scenario import fixture_path, load_bundled_scenario, scenario_from_dict


def compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def indented(data: bytes) -> bytes:
    """A report's text as first pinned: `json.dumps(indent=2)` plus a newline."""
    return (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()


def as_v3(data: bytes) -> bytes:
    """A written v4 report projected to v3, compact as v3 was written."""
    return compact(v3_report(json.loads(data)))


def as_v2(data: bytes) -> bytes:
    """A written v4 report projected to v2, compact as v2 was written."""
    return compact(v2_report(v3_report(json.loads(data))))


def as_v1(data: bytes) -> bytes:
    """A written v4 report projected to v1, compact as v1 was written."""
    return compact(v1_report(v2_report(v3_report(json.loads(data)))))


def outside_frames(data: bytes) -> bytes:
    """A written v4 report projected to v3, without its `frames` table, compact."""
    doc = v3_report(json.loads(data))
    del doc["frames"]
    return compact(doc)


BAD_VALUES = [object(), {"k": {1, 2}}, [b"bytes"], {("a",): 1}]


@pytest.mark.parametrize(
    "bad, at",
    [(bad, 0) for bad in BAD_VALUES] + [(bad, CHUNK + 1) for bad in BAD_VALUES],
    ids=[f"bad{i}" for i in range(4)] + [f"bad{i}_at_chunk_plus_1" for i in range(4)],
)
def test_unencodable_values_raise_like_stdlib(bad, at):
    """The report takes no fallback encoder: what json.dumps refuses, it
    refuses, also in a later chunk of a long list."""
    with pytest.raises(TypeError):
        json.dumps(bad)
    slots = [{"slot": i} for i in range(at)] + [bad] + [{"slot": 0}] * at
    report = RunReport(
        scenario={}, slots=slots, frames=[], detection_events=[], audits=[], summary={}
    )
    with pytest.raises(TypeError):
        report.to_json_bytes()


LISTS = ("slots", "frames", "detection_events", "audits")


@functools.cache
def _attack_matrix_report() -> RunReport:
    return run_scenario(load_bundled_scenario("attack_matrix"))


def _resized(report: RunReport, sizes: dict[str, int]) -> RunReport:
    """`report` with each named top-level list cycled or cut to a length.

    `attack_matrix` passes its audits, so audit rows are made up."""
    fields = {}
    for name, size in sizes.items():
        pool = getattr(report, name) or [
            {"slot": 7, "replica_key_state": 0, "expected": 25}
        ]
        fields[name] = [pool[i % len(pool)] for i in range(size)]
    return dataclasses.replace(report, **fields)


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("name", LISTS)
def test_pieces_join_to_the_stdlib_text(name, size):
    report = _resized(_attack_matrix_report(), {name: size})
    assert report.to_json_bytes() == compact(report.to_json_dict())


@pytest.mark.parametrize("size", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_pieces_join_to_the_stdlib_text_with_every_list_that_long(size):
    """Long lists next to each other in key order, and short values between."""
    report = _resized(_attack_matrix_report(), dict.fromkeys(LISTS, size))
    assert report.to_json_bytes() == compact(report.to_json_dict())


def counted_encoder_calls(monkeypatch) -> list:
    """The objects the report's encoder is handed from now on, in order."""
    calls = []

    class Counting(json.JSONEncoder):
        def encode(self, o):
            calls.append(o)
            return super().encode(o)

    encoder = Counting(sort_keys=True, separators=(",", ":"), check_circular=False)
    monkeypatch.setattr(runner, "_ENCODER", encoder)
    return calls


def test_a_report_whose_lists_fit_one_chunk_is_one_encoder_call(monkeypatch):
    calls = counted_encoder_calls(monkeypatch)
    report = _resized(_attack_matrix_report(), dict.fromkeys(LISTS, CHUNK))
    assert report.to_json_bytes() == compact(report.to_json_dict())
    assert len(calls) == 1


@pytest.mark.parametrize("size", [CHUNK + 1, 2 * CHUNK + 1])
def test_a_long_frames_table_is_joined_not_encoded(monkeypatch, size):
    """Canonical padded base64 holds no character JSON escapes, so a long
    `frames` table is written by a quoted join, and no chunk of it reaches
    the encoder; the text is still that of `json.dumps`."""
    calls = counted_encoder_calls(monkeypatch)
    report = _resized(_attack_matrix_report(), {"frames": size})
    assert report.to_json_bytes() == compact(report.to_json_dict())
    frames = set(report.frames)
    assert calls
    assert not [o for o in calls if isinstance(o, dict) and "frames" in o]
    assert not [
        o for o in calls if isinstance(o, list) and any(isinstance(x, str) and x in frames for x in o)
    ]


@pytest.mark.parametrize("name", ["fig4_walkthrough", "attack_matrix"])
def test_twinsync_run_writes_to_json_bytes(name, tmp_path, capsysbinary):
    """Streamed to `--out` or to stdout, the report has the bytes of
    `to_json_bytes()`."""
    path = str(fixture_path(name + ".json"))
    expected = run_scenario(load_bundled_scenario(name)).to_json_bytes()
    out = tmp_path / "report.json"
    assert main(["run", "--scenario", path, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected
    assert main(["run", "--scenario", path]) == EXIT_OK
    assert capsysbinary.readouterr().out == expected


def idle_at_key_report(total_slots: int) -> RunReport:
    """The bench's seed-0 `idle_at_key` run, idling on to `total_slots`."""
    (doc,) = import_bench_module("workloads").WORKLOADS["idle_at_key"].generate(0)
    inputs = doc["operator_inputs_physical"]
    inputs += [[slot, IDLE] for slot in range(inputs[-1][0] + 1, total_slots)]
    return run_scenario(scenario_from_dict({**doc, "total_slots": total_slots}))


def streamed_peak(report: RunReport, path) -> int:
    """The bytes traced at the peak of writing `report`'s pieces to a file."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with open(path, "wb") as fh:
            fh.writelines(report.json_pieces())
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_report_memory_is_bounded_by_its_output(tmp_path):
    """Seed-0 `idle_at_key`, 1,000 slots: joining the pieces peaks at the
    pieces and their join, and writing them to a file holds about one piece,
    0.31x the output.  One `json.dumps` call held 5.2x its output on top of
    the report, and encoding the scenario echo in one call 0.39x."""
    report = idle_at_key_report(1000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = len(report.to_json_bytes())
        joined = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    streamed = streamed_peak(report, tmp_path / "report.json")
    assert size > 400_000
    assert joined <= 2.5 * size
    assert streamed <= 0.35 * size


def test_writing_a_report_holds_the_same_memory_however_long_the_run(tmp_path):
    """Each long list, the scenario echo's inputs among them, is written a
    chunk at a time, so streaming a 16,000-slot report peaks where a
    2,000-slot one does (about 140 kB): with the echo's input list in one
    call, the peak grew with the run, 344 kB against 2.6 MB."""
    short = streamed_peak(idle_at_key_report(2000), tmp_path / "short.json")
    long = streamed_peak(idle_at_key_report(16000), tmp_path / "long.json")
    assert long <= 1.25 * short


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
# record.  That changed what the physical twin ships and so every digest
# here, once; dropping self-loops from records and the COMMAND's issued slot
# for an acknowledged seq changed the frames of `fig4_walkthrough` and of
# every pinned run below but the two `attack_matrix` ones, once more.
PINNED_REPORTS = {
    "fig4_walkthrough": "d7e50a63e7a8414196a0f36a157ad06880ff734723ba70de7c20a0e9dcf2739e",
    "attack_matrix": "13aa3b41ee9cc8f91d66e47235e187e72509bef04e142fb2a95c6759819a2a12",
}
# SHA-256 of the same v1 projections, compact, sorted keys, one newline.
PINNED_COMPACT_REPORTS = {
    "fig4_walkthrough": "32eecc6608c0ca8edfd085237b019df2ed3985ca806873f123caba00c1a79e8e",
    "attack_matrix": "e18d81513f0ba5b6b5645f2c4aa615dede3fd3dac9219df03d9e0f0a9510eade",
}
# SHA-256 of the same reports as v2 wrote them, projected by `as_v2`.
PINNED_V2_REPORTS = {
    "fig4_walkthrough": "6e35f5e92ba28f70fddaae348ab2e8e8d975f9aa3860343509e6df3800eeefd9",
    "attack_matrix": "2d3f6c4293063da502f9748a8353dd3e27db0d9d953a438675f104dc0eabc8ff",
}
# SHA-256 of every pinned report as written (`twinsync.report.v4`): the two
# bundled scenarios above, the four bench workloads and the two lossy runs
# below, a workload's reports concatenated as its other digests are.
PINNED_V4_REPORTS = {
    "fig4_walkthrough": "dea0a815afa5aac1ad153d4e7362571a2d2bb299cdb75b9c917da8670c51d35d",
    "attack_matrix": "229d088cbbf5add07e87d7af292fce72b2ba4bab325ceb68c025a8ffe4364b83",
    "idle_at_key": "8f883dea8cf3782cb39943ad7cbc983dadd6f6de30e1debb7f28612ebec90876",
    "idle_between_keys": "536fa49f1a5021f301cd87a15c3fa454bfae17082193e85f64cce73147e7c1dc",
    "attack_dense": "b9a4c039d1b54a43ebe683f15e3f46d938b4ce5b055c9b5ad7d6d053ed23e5ad",
    "oracle_sweep": "4150bddeec1cecfae06dbb95a0d983c28f31257c5ce522cc7cacbc695b022689",
    "attack_matrix_loss_0.3": "eb3047005bcd2a5718467f5f6efc15b69a3960d4ae99cb89e1ede263e7740ed1",
    "idle_between_keys_loss_0.1": "9012ebbd3d797156fbedfbdc221217ee41083c919fee08f510d12a5c58eb23d4",
}
# SHA-256 of the same reports as v3 wrote them, projected by `as_v3`.
PINNED_V3_REPORTS = {
    "fig4_walkthrough": "c9dd6e2b9812ae247f568cda26f51ee56589293b8c0ee24b08a8966762d6e420",
    "attack_matrix": "457cf6eda6f0aadbb0602852ea2afd699855a7130a3d80eeb1a72ff95fd01f6b",
    "idle_at_key": "bfac959be6dbf059ffa54c7c0ee158abd8e51abd457d0857bbd71d203f40f215",
    "idle_between_keys": "ef8d9684a053e3a176a6fe7e5fbba7c5bfac98d42c51f4ce2595b0902640192e",
    "attack_dense": "093dea16db07c3d12243db62e6bedc8c718d6bef573047919b027a3521440221",
    "oracle_sweep": "0cd8205b4d191f7ef127c257e683748bad8c4cad78c28605d2e3f2db5f5eed6d",
    "attack_matrix_loss_0.3": "4db1d7ea15485c77dde07fefed238753adda4114371a9a3d3775891ec4b90e32",
    "idle_between_keys_loss_0.1": "31bd69b5ea226e2328b2ad6a080316eb4fb74c7c2404550d98a1bee40af79949",
}
# SHA-256 of every pinned report projected to v3, without its `frames`
# table (`outside_frames`), taken before records stopped shipping
# self-loops: what a report says about a run, as opposed to the bytes it
# sent, held across that change.
PINNED_OUTSIDE_FRAMES = {
    "fig4_walkthrough": "5179ab397efce656465cdfa15492d03fe62b24dcab19e6692df5540d3afa3e6c",
    "attack_matrix": "55f164df6faa20562816d26c44a0c41eca19e05124dffe392e8521acdae35f9a",
    "idle_at_key": "5c3254c1575407fc10085c1e31b7685c919d0a07e9b50cec8ab2d82e87a5e2e1",
    "idle_between_keys": "374549b41e923a020f63db79c06da191c4bd0d6fbf9f0a1160efd2aeff03e3b0",
    "attack_dense": "d6937c7288c1590fbbfe543e6fb5f3dfb56d84e76ce1fb2a1279ef7ca5e1fd30",
    "oracle_sweep": "03122a6a66792e168ae3170239e4abf6d97a9564d2aacbe7041899bf502d0fb6",
    "attack_matrix_loss_0.3": "8dda6fe5d0f0c59cad8a2307f4eef1790b498c3bf8da209edcb208ba39ff9eee",
    "idle_between_keys_loss_0.1": "7153a2ad78de56d1f0582558b6a4b875f5b56dc494155c703e0bf3d83ae55d53",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_bundled_reports_match_pinned_digests(name, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--scenario", str(fixture_path(name + ".json")), "--out", str(out)])
    assert rc == EXIT_OK
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_V4_REPORTS[name]
    assert hashlib.sha256(as_v3(data)).hexdigest() == PINNED_V3_REPORTS[name]
    assert hashlib.sha256(outside_frames(data)).hexdigest() == PINNED_OUTSIDE_FRAMES[name]
    assert hashlib.sha256(as_v2(data)).hexdigest() == PINNED_V2_REPORTS[name]
    v1 = as_v1(data)
    assert hashlib.sha256(indented(v1)).hexdigest() == PINNED_REPORTS[name]
    assert hashlib.sha256(v1).hexdigest() == PINNED_COMPACT_REPORTS[name]


def test_bundled_reports_do_not_depend_on_the_hash_seed():
    """Set and frozenset order follows string hashes, which `PYTHONHASHSEED`
    salts: `twinsync run` writes each bundled report with its pinned bytes
    under hash seeds 0, 1 and 12345."""
    for name in sorted(PINNED_REPORTS):
        path = str(fixture_path(name + ".json"))
        digests = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "twinsync", "run", "--scenario", path],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            digests.add(hashlib.sha256(proc.stdout).hexdigest())
        assert digests == {PINNED_V4_REPORTS[name]}, name


# SHA-256 over each bench workload's seed-0 reports, projected to v1,
# re-indented as above and concatenated in `_workload_specs` order.  Unlike
# the two bundled scenarios these cover lossy drops, template INSERTs,
# payload splices and the oracle sweep.
PINNED_WORKLOAD_REPORTS = {
    "idle_at_key": "e1a9ba5b10f770c0aea7976521c2a3ce0d7b909126f92a57e77f8550558f5de6",
    "idle_between_keys": "4f2a6ba045e24cb40ec160bf4685f33361892b9666fd6a8f0021ce76f424339d",
    "attack_dense": "d440df5763d736c1968b766e9809a3df19359207963c7c5a36561981e4347b0c",
    "oracle_sweep": "374d0039dc3c7d7b66bf3093abe76a6a46cd5f339847e22212c531205e2c0539",
}
PINNED_COMPACT_WORKLOAD_REPORTS = {
    "idle_at_key": "9d5aa45298cd1b1e91aaa95bd22504638824f69c36b8f8ddfdc522b41ab91ca8",
    "idle_between_keys": "ad3a760cd650add99a4cde45e1b635bc59b8da777632ecf95c50679fd4e670ab",
    "attack_dense": "d7eabd36dd97dbedb1058fd30b67e197b0d9c995b3e7860d5f7e7f1d7ebcf98c",
    "oracle_sweep": "b020275d6d5a57de75ccfd5bf955850ff32851c1ee99616d6cf940caa9975f1b",
}
PINNED_V2_WORKLOAD_REPORTS = {
    "idle_at_key": "0d7c8805c4690d08845ec58ac3b5e7bfd64702497506488d44b958f49875ed7f",
    "idle_between_keys": "9a90653ba4b4af7046e8cbdbea55c9c105cdf9b0f1f576686e1270145888ebda",
    "attack_dense": "83cfc57bdbc49ea72fc7503a7465ff3177927c1e53514d67f22f682dd5d08b4e",
    "oracle_sweep": "b927831c665e4c7cb6042f53a33e59650da3223f5bc61407c89875eb9a08ce6e",
}


@pytest.mark.parametrize("workload", sorted(PINNED_WORKLOAD_REPORTS))
def test_bench_workload_reports_match_pinned_digests(workload):
    digest = hashlib.sha256()
    compact_digest = hashlib.sha256()
    v2_digest = hashlib.sha256()
    v3_digest = hashlib.sha256()
    v4_digest = hashlib.sha256()
    outside_digest = hashlib.sha256()
    for spec in _workload_specs(workload):
        data = run_scenario(spec).to_json_bytes()
        v4_digest.update(data)
        v3_digest.update(as_v3(data))
        outside_digest.update(outside_frames(data))
        v2_digest.update(as_v2(data))
        v1 = as_v1(data)
        digest.update(indented(v1))
        compact_digest.update(v1)
    assert v4_digest.hexdigest() == PINNED_V4_REPORTS[workload]
    assert v3_digest.hexdigest() == PINNED_V3_REPORTS[workload]
    assert outside_digest.hexdigest() == PINNED_OUTSIDE_FRAMES[workload]
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
# records included, which none of the bench workloads does: projected to v2
# through v3, then projected to v1 compact, then that re-indented by
# `indented`.
PINNED_LOSSY_REPORTS = {
    "attack_matrix_loss_0.3": (
        _lossy_attack_matrix,
        "3d89307e02bad810042a27b4e318ba695a8e6622cb0ce78429e37908ecbb1a36",
        "e098ece82a190bb9b3b6786757b08be0f2b0a992c373c36324e517e76ae0e152",
        "3f199b11a803c8434c5340f65236e0cbfe08a212f11f10ab0aefb6bad4631fbd",
    ),
    "idle_between_keys_loss_0.1": (
        functools.partial(heat_once_then_idle, 2000, drop=0.1),
        "c3461b21f48f31c46ed453d1d66352d20d7d4761859558cfa17cdff5a65e6cc2",
        "b04672aeddd83b48a1e3dc7d0e140f13a3d1c4511f9861f73c38d6c4a28acd3a",
        "0e12ae1b1a815eda96f45843c4078777a2016682cc6ca5e9fea75b96da5fde2d",
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
    assert hashlib.sha256(data).hexdigest() == PINNED_V4_REPORTS[name]
    assert hashlib.sha256(as_v3(data)).hexdigest() == PINNED_V3_REPORTS[name]
    assert hashlib.sha256(outside_frames(data)).hexdigest() == PINNED_OUTSIDE_FRAMES[name]
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


@pytest.mark.parametrize(
    "name", [*PINNED_REPORTS, *PINNED_WORKLOAD_REPORTS, *PINNED_LOSSY_REPORTS]
)
def test_report_validates_against_the_schema(name):
    for spec in _pinned_runs(name):
        REPORT_VALIDATOR.validate(run_scenario(spec).to_json_dict())


@pytest.mark.parametrize("name", [*PINNED_REPORTS, *PINNED_WORKLOAD_REPORTS])
def test_every_sent_frame_decodes_from_base64_and_verifies_on_its_link(name):
    """Each frame a twin sent or lost, read back from the report, is the
    frame its link accepts, and its base64 is the one canonical spelling."""
    for spec in _pinned_runs(name):
        report = run_scenario(spec)
        links = {
            "phys_to_virt": (spec.keys[Direction.PHYS_TO_VIRT], PHYSICAL_SENDER_ID, (STATE_SYNC,)),
            "virt_to_phys": (spec.keys[Direction.VIRT_TO_PHYS], VIRTUAL_SENDER_ID, (COMMAND, ACK)),
        }
        for row in report.slots:
            for field in ("sent", "dropped"):
                for link, ids in row.get(field, {}).items():
                    key, sender_id, msg_types = links[link]
                    for i in ids:
                        text = report.frames[i]
                        data = base64.b64decode(text, validate=True)
                        result = decode_frame(data, key, SequenceTracker(), sender_id, msg_types)
                        assert isinstance(result, Frame), (name, row["slot"], link, result)
                        assert base64.b64encode(data).decode() == text


def _accepted_as_a_pair(doc: dict) -> None:
    received = doc["slots"][1]["delivered"]["phys_to_virt"]
    received[0] = [received[0], "accepted"]


def _respell_frame(change, wanted: str):
    """Apply `change` to the first frame holding one of the characters in
    `wanted`, so that it has something to change."""

    def respell(doc: dict) -> None:
        frames = doc["frames"]
        i = next(i for i, frame in enumerate(frames) if set(frame) & set(wanted))
        frames[i] = change(frames[i])

    return respell


@pytest.mark.parametrize(
    "respell",
    [
        lambda doc: doc["slots"][1].update(dropped={}),
        lambda doc: doc["slots"][1].update(adversary_actions=[]),
        _accepted_as_a_pair,
        lambda doc: doc["consistency_audit"].append(
            {"slot": 1, "ok": False, "replica_key_state": 0, "expected": 25}
        ),
        _respell_frame(lambda frame: frame.rstrip("="), "="),
        _respell_frame(lambda frame: frame + "\n", "="),
        _respell_frame(lambda frame: frame.translate(str.maketrans("+/", "-_")), "+/"),
    ],
    ids=[
        "empty_dropped",
        "empty_adversary_actions",
        "accepted_pair",
        "audit_with_ok",
        "unpadded_frame",
        "frame_with_newline",
        "url_safe_frame",
    ],
)
def test_schema_rejects_a_second_spelling_of_a_fact(respell):
    """A v4 report states each fact one way: an empty map or list, an
    `[id, "accepted"]` pair and an audit's `ok` are v2's spellings, and a
    frame is canonical padded base64 (RFC 4648 section 4), not unpadded,
    with a newline as `binascii.b2a_base64` ends it by default, or in the
    URL-safe alphabet of section 5."""
    doc = run_scenario(load_bundled_scenario("fig4_walkthrough")).to_json_dict()
    REPORT_VALIDATOR.validate(doc)
    respell(doc)
    with pytest.raises(jsonschema.ValidationError):
        REPORT_VALIDATOR.validate(doc)
