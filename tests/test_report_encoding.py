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

from tests.conftest import (
    IDLE,
    REPORT_VALIDATOR,
    heat_once_then_idle,
    import_bench_module,
    v1_report,
    v2_report,
    v3_report,
)
from twinsync.cli import EXIT_OK, main
from twinsync.detector import OUTCOME_EVENT_KIND
from twinsync.frames import Frame, decode_frame
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
# every pinned run below but the two `attack_matrix` ones, once more.  Wire
# version 2, whose header has no seq, changed every frame and so every
# digest in every table here once again.  Wire version 3, whose tag is keyed
# BLAKE2s-256, changed every tag and so every digest here but those of
# `PINNED_OUTSIDE_FRAMES`, which hold.
PINNED_REPORTS = {
    "fig4_walkthrough": "6947fbcee969b5302d3f717bd30314fc6d13bcf9c848a6a7015aad8f2632266e",
    "attack_matrix": "90ecc0a586f546f6dfb22ca4bba57feaf0c935d9860a05797e94c1713f4e3a3c",
}
# SHA-256 of the same v1 projections, compact, sorted keys, one newline.
PINNED_COMPACT_REPORTS = {
    "fig4_walkthrough": "c6ea50e8051b77783f2108b5454ae144042d91b86ec97ccea9cbce21b1c4f52a",
    "attack_matrix": "fc5298944117aa54ad97de5aa8e83d4819051060d22a6eee3dc3161ec353a876",
}
# SHA-256 of the same reports as v2 wrote them, projected by `as_v2`.
PINNED_V2_REPORTS = {
    "fig4_walkthrough": "8806eed191db62edd6b4ec4f20ddaf9c75ac3337267907dfa2054baf8d97c414",
    "attack_matrix": "a360da20a7a5bb4e2e45774d19d5b7535696c86d1854a069862f6b38ad6870c1",
}
# SHA-256 of every pinned report as written (`twinsync.report.v4`): the two
# bundled scenarios above, the four bench workloads and the two lossy runs
# below, a workload's reports concatenated as its other digests are.
PINNED_V4_REPORTS = {
    "fig4_walkthrough": "3e54e49c41479b7735177ba993dde5e7378318a94e7bfb1215919da99d2e33cc",
    "attack_matrix": "58de555b04720e69323ec6203f8f65da2fbb7021d5c1b35121b20527d464871b",
    "idle_at_key": "6bed7c2b10411cdf43075be2784bfb8d1034c95c9d450d224ed462ca9f15b2c3",
    "idle_between_keys": "11d120366a51bf564402f22bed29f58f75b51330aedff1bdfd091e1861ea7ba0",
    "attack_dense": "0f3e06e49bcc9252ba32eb3a0fc1bffa8ebd001381bba645d47619deacf25f3f",
    "oracle_sweep": "dd6fb0f5eab2d2b7c209a9b6f95fef3349211672542927269ac768bd6b656978",
    "attack_matrix_loss_0.3": "eb51a637587fcb58b74d077d38c9c3dd13fbad3701ab9b1bc440974450cae67e",
    "idle_between_keys_loss_0.1": "b4fcbd1c79091f5d92a515c3d061af7283642b58c003531d117ac75993404471",
}
# SHA-256 of the same reports as v3 wrote them, projected by `as_v3`.
PINNED_V3_REPORTS = {
    "fig4_walkthrough": "2a67002d20b9cbd41cec4dad2cda7f654794c827a32e13936c6e456347ca9fc5",
    "attack_matrix": "593fe6728fcf16e9a8eec985e740a576df646ade2f077fd0de6e30a59371a301",
    "idle_at_key": "5890da15966da5c77870e6d021a12264d7fad1cdc1289acae59aff2d8ad2f947",
    "idle_between_keys": "fcac0826fdbfd66e09c780d28829f42430aed364810dc952089339d91d8efc6b",
    "attack_dense": "696a088f3399bff470522967fa801ec62228d9efd95e698f4de95e891290aed4",
    "oracle_sweep": "c8b171e15cf50f85d662cf13735f7400fa4ea76a3e8c7d19a9c14e3db5ece4e3",
    "attack_matrix_loss_0.3": "0800e13294905b90323182888d0ac2c803ba8ee5a0d3ac484c24790bed689bef",
    "idle_between_keys_loss_0.1": "a6b5de3db478de8e6478ec8cb6858e1b3cbf2b2c78685696b2edfa1ba49d53a4",
}
# SHA-256 of every pinned report projected to v3, without its `frames`
# table (`outside_frames`), taken before records stopped shipping
# self-loops: what a report says about a run, as opposed to the bytes it
# sent, held across that change.  Wire version 2 re-pinned only the three
# runs with attacks: their events lost `claimed_seq`, say 58 bytes for the
# minimum length and a slot for the replay window, read `claimed_slot` at
# its new offset, and raw INSERTs of 58-65 bytes became TAMPER.  The other
# five held.  Wire version 3 changed only tags, and all eight held.
PINNED_OUTSIDE_FRAMES = {
    "fig4_walkthrough": "5179ab397efce656465cdfa15492d03fe62b24dcab19e6692df5540d3afa3e6c",
    "attack_matrix": "7a1004499c13058fb9ef37c2ee90342272646fd7ce40d0cc0808f1d93d98148c",
    "idle_at_key": "5c3254c1575407fc10085c1e31b7685c919d0a07e9b50cec8ab2d82e87a5e2e1",
    "idle_between_keys": "374549b41e923a020f63db79c06da191c4bd0d6fbf9f0a1160efd2aeff03e3b0",
    "attack_dense": "e3d1a2193deb1787f8aa8378629d49de3fb50b9c5ca34e8203a8753fde259809",
    "oracle_sweep": "03122a6a66792e168ae3170239e4abf6d97a9564d2aacbe7041899bf502d0fb6",
    "attack_matrix_loss_0.3": "89be46c52e916eb9c8533ba3a8d05a22f0fde62ac9bbbc568b2ea1753b10cb40",
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
    "idle_at_key": "eeda6a39cea612a052d97b60b6b565e2e4a49a8dbe71defdeef124836de1c327",
    "idle_between_keys": "1cdc278a88e7a1fbc41172ef3f07dafc65ad608a2fb76a7ab9146b949140cc56",
    "attack_dense": "dff6ae982b3dfd659358dca5ba1271b5b024926efc7d4371c242216ee415dff6",
    "oracle_sweep": "23edf9bf77d749647603c5d9ccaaf9cd367433f7b74f493812eb67151de75240",
}
PINNED_COMPACT_WORKLOAD_REPORTS = {
    "idle_at_key": "4a3f0f903bbcff062080f24451f51b9581d193b0b69b4a8734bab814a4407b31",
    "idle_between_keys": "284716145f9c5cca896ec999b64ec5526f3270a16fc45d744531ff132d2eae2a",
    "attack_dense": "c07a9d248fd1f92697aca60ff120360a9e100db3772b0b5f55956507d98f8a44",
    "oracle_sweep": "77c343eb43d14bf2eb2b48f828d48178ff9b05e20b723e1e93577e7354cc40e1",
}
PINNED_V2_WORKLOAD_REPORTS = {
    "idle_at_key": "f98cf184e20ee3abb167806749727da2eb6a8cb45048163102325e866a2ae36f",
    "idle_between_keys": "9bdf1e0950af5a78c4d4d091b82679f1872e61dc2d11aabe55c18c62a41f5303",
    "attack_dense": "3f04cbc33d4058f8f3ff9b71e973a26be72972828d0ffe2429b7965bf2249000",
    "oracle_sweep": "09b3919643749b24f5ca80f80ed845e7c9f025dec23f81a4f694f3b57d3f616b",
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
        "80161ba45c5ee5b5edfd8ee567a5c630fdc0f4b719ea40521cb3afa644a22929",
        "1856d23ecd57fcdb04947cb87d437748ce606be85052c24b5377ec0233b6414c",
        "79cf3d674ce6b30b0585de240cd47eb6a2617e3f04a33df0cd24be15997807fd",
    ),
    "idle_between_keys_loss_0.1": (
        functools.partial(heat_once_then_idle, 2000, drop=0.1),
        "71e44755180eb820ff26d5d4e14f4aac854a6bde5a5c15dc1642db4a4c5e5043",
        "13d4b1274d0a9f48dd48ea544b7c3135508f7e5870a3100d04561ba2a84d52e6",
        "c8524b7aabba507b1644721426de479c0d1f1ee3b47e0a374afb452bcf3b424d",
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
                        link = (spec.session_id, -1, sender_id, msg_types, row["slot"])
                        result = decode_frame(data, key, *link)
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


def test_the_schema_names_each_refusal_the_detector_maps():
    """A refused delivery's outcome is one of the detector's outcome table's
    keys, so every run checked against the schema also checks that each
    refusal it writes has an event kind."""
    refusals = REPORT_VALIDATOR.schema["$defs"]["refusal"]["enum"]
    assert sorted(refusals) == sorted(OUTCOME_EVENT_KIND)
