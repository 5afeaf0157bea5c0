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
# `PINNED_OUTSIDE_FRAMES`, which hold.  Wire version 4, whose records state no
# input count, changed every frame and every digest here but those, which
# hold again.
PINNED_REPORTS = {
    "fig4_walkthrough": "8da8e74c8bdbf3082af123982251ceac7fe648b3d8853bb8007fdd1019edb139",
    "attack_matrix": "dc3c5b6814da5ff16a0175f3f4a599b39f0b24b4ac2dda70a9eb3401f1c7be88",
}
# SHA-256 of the same v1 projections, compact, sorted keys, one newline.
PINNED_COMPACT_REPORTS = {
    "fig4_walkthrough": "ebddac0f4bbcdcfdeb682b8df46b022869bb96c99790892c26da5bf479d15010",
    "attack_matrix": "1cb8a93d80250ea4276a6ac6997a5f0d4e7ed109d2153f792cfb8136738f4e99",
}
# SHA-256 of the same reports as v2 wrote them, projected by `as_v2`.
PINNED_V2_REPORTS = {
    "fig4_walkthrough": "51f1a31a8bd55b0d00fbf8b92a361442b38e038af1baad44b7eb95864156207f",
    "attack_matrix": "755d5e6c69e0f33c4aa8c579d57d7807fc52fd497345731fdcb88011e1b548df",
}
# SHA-256 of every pinned report as written (`twinsync.report.v4`): the two
# bundled scenarios above, the four bench workloads and the two lossy runs
# below, a workload's reports concatenated as its other digests are.
PINNED_V4_REPORTS = {
    "fig4_walkthrough": "6be4cfc8899a0e340550b38f9461c128536f4a6c648d4d7294c1f37bb46bb0b3",
    "attack_matrix": "0f1b9bb6b8e39fe0430819c11ab1dd491286d55314574ad58c81837b6bd2fdaf",
    "idle_at_key": "57d4d8704ea87c6ddda88ee6bfa5b4d096f9e13c7e451c4d90209a3a11b8c277",
    "idle_between_keys": "cc870a40c052919914d655e7d2c228f1120ecf696f83225dac73df044ab0eb72",
    "attack_dense": "e57cfd947d86c4a1b62ca5bd7142e75427a85ae6753db94535db0dc2cef52366",
    "oracle_sweep": "4768e514edca14608718c58fb9c8965cc57d19f23e86ce4764981266a8625b7a",
    "attack_matrix_loss_0.3": "553eff934c01a49ab7ee233514b2ef06d3c357c92540e3187911231dd64d7316",
    "idle_between_keys_loss_0.1": "27713851f290e03d21f3c3bbf6b5ff612865f4e01e7158670f94357306054656",
}
# SHA-256 of the same reports as v3 wrote them, projected by `as_v3`.
PINNED_V3_REPORTS = {
    "fig4_walkthrough": "fad30ee68a422b51f034df526a12d4e5b3e827ecf7a4775bf9aacc4a08145673",
    "attack_matrix": "d98b191c98d5a6d9b2e896a7a1dbfe222034e6640b278e65421bd720c44bad0a",
    "idle_at_key": "df70c0a6298cad84736af9ec39e42a8e35ad7f1a7df227b4886baa9e749c7961",
    "idle_between_keys": "1c88330c22db99cd01154291aa53d920b7183f06ee3567830863d0a67b916624",
    "attack_dense": "2c65f444cc49549d7291a4a2110db4e157e5b87cb906ef6ed76fa4432d6c0d87",
    "oracle_sweep": "753bb1c2e5c6a6e586387827f2a5fc4ad8b2d9e9b351e20c0c15a938105005dc",
    "attack_matrix_loss_0.3": "a2e05cac62570408181d4492d0daf611918a00f05fe3550817ee07100efc34e1",
    "idle_between_keys_loss_0.1": "8a2d3a3cdefbbc9c95f8c6935f7154f0403f5eba81955a742285788aa21cc02f",
}
# SHA-256 of every pinned report projected to v3, without its `frames`
# table (`outside_frames`), taken before records stopped shipping
# self-loops: what a report says about a run, as opposed to the bytes it
# sent, held across that change.  Wire version 2 re-pinned only the three
# runs with attacks: their events lost `claimed_seq`, say 58 bytes for the
# minimum length and a slot for the replay window, read `claimed_slot` at
# its new offset, and raw INSERTs of 58-65 bytes became TAMPER.  The other
# five held.  Wire version 3 changed only tags, and all eight held.  Wire
# version 4 took 2 bytes off every record, keeping every idle frame at least
# the 66 bytes `attack_dense`'s MODIFY offsets reach, and all eight held.
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
    "idle_at_key": "c5875de40d93a5b4d33d5b58193a2830b8ea0f4f050c1409ad669441fa768df7",
    "idle_between_keys": "8eefbe702824246716351e529d4f80ed07bc8168455320b3ba891f963c4abd6c",
    "attack_dense": "8a478418fdfa9848f689d7de78e4709fd67e442e85f210198ca7db5de6e712e3",
    "oracle_sweep": "b999ec32a4f14679bea9689ed86d4f877d092bc575e92064725942bfcd48110a",
}
PINNED_COMPACT_WORKLOAD_REPORTS = {
    "idle_at_key": "5ffb98f4716cd29b709b77fb227e265a2189a9aac802fcda25e51b92272517c8",
    "idle_between_keys": "057a6b700bd95d4289916b747824aa94b02b33ecd3f1bdaa3840dcfc2e0a8b97",
    "attack_dense": "6ee0d7a853dd98e199109194dd8683ae2edf920e1f7b6b081f713af0a89087c3",
    "oracle_sweep": "badb50ce6660f8736a135bee8f3969c0354dcab0d3755477c10b88cacfb146dc",
}
PINNED_V2_WORKLOAD_REPORTS = {
    "idle_at_key": "69b85eb0f5ae71ebe0be05e01d15adf4c386328d51c98e8a728ae3aca05e8be3",
    "idle_between_keys": "d4fbc131578e172e919a8a408bc43346e6f005f9ac1b69cfeee43620e6f1afc0",
    "attack_dense": "5f2a3d57d10b249a086bae257601d7577f127eb5ceac73c1d0e02de5343f8150",
    "oracle_sweep": "9267884546e9fc77b96d04f1a58a567ed679609c03dc945c36603e38a4bd4830",
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
        "cf2c4d7ce63cb4c0b9ccb04716077bda8983fee5cd946fa46d8e82231928b16c",
        "1b9e1362a9f1a75e885f950b2b7c925ad9b0708c4cb3b1e4d2ec1c2efc2f0f7b",
        "c6ac3fdc353234f35b10bda1a1c2b4a26fc13bb01d5e12d91e27159e6314aedd",
    ),
    "idle_between_keys_loss_0.1": (
        functools.partial(heat_once_then_idle, 2000, drop=0.1),
        "9864b29a78c3fe5c6b8ec6e43636a55d3420b06db35dd6349a4db7cb033ac52b",
        "4e09c672728ed35d28388f934eada3414449f197154549d7429120da37218099",
        "8dce4944ba4a98ad2e5fcc5f11b3e7db82bfe2ebb4978e50eb6ce7cf2eccf190",
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
                        # Newest and earliest slot an honest frame sent there can carry.
                        slot = row["slot"]
                        link = (spec.session_id, -1, sender_id, msg_types, slot, slot)
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
