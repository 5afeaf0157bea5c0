"""Report serialization: compact sorted-key ASCII JSON written in bounded
pieces, the frame table, and pinned report digests.

Every report is pinned as written (`twinsync.report.v5`), projected back to
v4 by `conftest.v4_report`, from there to v3 by `conftest.v3_report`, to v2
by `conftest.v2_report`, and to v1 by `conftest.v1_report`.  The v4, v3, v2
and v1 digests are those the reports had when written in those versions,
so the projections show that v5 changed only which rows state the state
fields, v4 how a frame is spelled, v2 how frames are named, v3 left out
what said nothing, and none changed anything else.  When the
records stopped shipping self-loops and every down-link record began to
acknowledge, only frame bytes changed: each report is also pinned with its
`frames` table left out, by digests taken before that change."""

import base64
import collections
import dataclasses
import functools
import hashlib
import itertools
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
    STATE_FIELDS,
    heat_once_then_idle,
    import_bench_module,
    v1_report,
    v2_report,
    v3_report,
    v4_report,
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
from twinsync.scenario import (
    ScenarioSpec,
    fixture_path,
    load_bundled_scenario,
    load_fixture_json,
    scenario_from_dict,
)


def compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def indented(data: bytes) -> bytes:
    """A report's text as first pinned: `json.dumps(indent=2)` plus a newline."""
    return (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()


def projections(data: bytes) -> dict[str, bytes]:
    """A written v5 report and its projections back to v1, each compact as
    its version was written; `outside_frames` is the v3 projection without
    its `frames` table, and `v1_indented` the v1 text as first pinned."""
    v4 = v4_report(json.loads(data))
    v3 = v3_report(v4)
    v2 = v2_report(v3)
    v1 = compact(v1_report(v2))
    outside = {key: value for key, value in v3.items() if key != "frames"}
    return {
        "v5": data,
        "v4": compact(v4),
        "v3": compact(v3),
        "outside_frames": compact(outside),
        "v2": compact(v2),
        "v1": v1,
        "v1_indented": indented(v1),
    }


def digests(reports) -> dict[str, str]:
    """SHA-256 of each projection of `reports`, concatenated in order."""
    hashes = collections.defaultdict(hashlib.sha256)
    for data in reports:
        for version, text in projections(data).items():
            hashes[version].update(text)
    return {version: sha.hexdigest() for version, sha in hashes.items()}


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
    audits = [{"slot": i} for i in range(at)] + [bad] + [{"slot": 0}] * at
    report = RunReport(
        scenario={}, rows=[], frames=[], detection_events=[], audits=audits, summary={}
    )
    with pytest.raises(TypeError):
        report.to_json_bytes()


LISTS = ("slots", "frames", "detection_events", "audits")


@functools.cache
def _attack_matrix_report() -> RunReport:
    return run_scenario(load_bundled_scenario("attack_matrix"))


def _resized(report: RunReport, sizes: dict[str, int]) -> RunReport:
    """`report` with each named top-level list cycled or cut to a length;
    `slots` names the rows' texts.

    `attack_matrix` passes its audits, so audit rows are made up."""
    fields = {}
    for name, size in sizes.items():
        name = "rows" if name == "slots" else name
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


def test_rows_and_frames_are_joined_never_encoded(monkeypatch):
    """Each row is its JSON text already, and a frame's base64 needs no
    escaping, so both lists are joined whatever their length and no row or
    frame reaches the encoder.  With every other list inside one chunk, the
    encoder writes the two keys and each run of values around them: five
    calls."""
    calls = counted_encoder_calls(monkeypatch)
    report = _resized(_attack_matrix_report(), dict.fromkeys(LISTS, CHUNK))
    assert report.to_json_bytes() == compact(report.to_json_dict())
    assert [sorted(o) if isinstance(o, dict) else o for o in calls] == [
        ["consistency_audit", "detection_events"],
        "frames",
        ["scenario", "schema"],
        "slots",
        ["summary"],
    ]


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
    pieces and their join, and writing them to a file peaks at 0.26x the
    output, 92 kB of 353 kB (0.22x of v4's 423 kB, whose rows stated every
    state field).  One `json.dumps` call held 5.2x its output on top of the
    report, and encoding the scenario echo in one call 0.39x.  The bounds
    say something only while the output is many pieces long: 30 of its
    largest piece here."""
    report = idle_at_key_report(1000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = len(report.to_json_bytes())
        joined = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    streamed = streamed_peak(report, tmp_path / "report.json")
    assert size > 16 * max(len(piece) for piece in report.json_pieces())
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


def _pinned_specs(name: str):
    """The specs of one pinned report source: a bundled scenario, a bench
    workload, or a lossy run."""
    if name in PINNED_REPORTS:
        return [load_bundled_scenario(name)]
    if name in PINNED_WORKLOAD_REPORTS:
        return _workload_specs(name)
    return [PINNED_LOSSY_REPORTS[name][0]()]


@functools.cache
def pinned_runs(name: str) -> tuple[tuple[ScenarioSpec, RunReport, bytes], ...]:
    """Each run of one pinned report source as (spec, report, its bytes),
    run once per test session for every test that reads a run's report."""
    runs = []
    for spec in _pinned_specs(name):
        report = run_scenario(spec)
        runs.append((spec, report, report.to_json_bytes()))
    return tuple(runs)


@pytest.mark.parametrize(
    "workload", ["idle_at_key", "idle_between_keys", "attack_dense", "oracle_sweep"]
)
def test_bench_workload_reports_match_stdlib(workload):
    for _, report, data in pinned_runs(workload):
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
# SHA-256 of the same reports as v2 wrote them, projected by `projections`.
PINNED_V2_REPORTS = {
    "fig4_walkthrough": "51f1a31a8bd55b0d00fbf8b92a361442b38e038af1baad44b7eb95864156207f",
    "attack_matrix": "755d5e6c69e0f33c4aa8c579d57d7807fc52fd497345731fdcb88011e1b548df",
}
# SHA-256 of every pinned report as v4 wrote it, projected by `v4_report`:
# the two bundled scenarios above, the four bench workloads and the two lossy
# runs below, a workload's reports concatenated as its other digests are.
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
# SHA-256 of the same reports as v3 wrote them, projected by `projections`.
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
# SHA-256 of every pinned report as written (`twinsync.report.v5`), whose
# rows state a state field only when it changed.
PINNED_V5_REPORTS = {
    "fig4_walkthrough": "aaa1efab3dc1639c20afd174a25dd4df5f96930f706870f29d64175e18ab5244",
    "attack_matrix": "89fb11660544c9c165825f0065d9f1b948203756a283b4cd9ea9496e837b10b1",
    "idle_at_key": "11a010306e90e93478d1605cb0ea3f945aba224970473c7d7bacde67919694be",
    "idle_between_keys": "e6956e1b93fb47796a89b2650b0a16418c363c9b27c49db6cdfd85f1395cf89d",
    "attack_dense": "7dbcef3c75136e617dfca105266571fd6728676d2916f1755d60a36919de96af",
    "oracle_sweep": "835bf335fb94db963c84180b326a5179dc07d454ccff928e5021a841d4627561",
    "attack_matrix_loss_0.3": "ca6946a99e9138ef75c1173681f3b7672a391afc98acdc90ec55663cd3d85554",
    "idle_between_keys_loss_0.1": "9794df2a9dec40a9a0b90d3ea017a62d280c6e38a6a68b2e3edd58a22702b8c8",
}


def pinned_digests(name: str, v2: str, v1: str, v1_indented: str) -> dict[str, str]:
    """The digests pinned for `name`, keyed as `digests` keys them."""
    return {
        "v5": PINNED_V5_REPORTS[name],
        "v4": PINNED_V4_REPORTS[name],
        "v3": PINNED_V3_REPORTS[name],
        "outside_frames": PINNED_OUTSIDE_FRAMES[name],
        "v2": v2,
        "v1": v1,
        "v1_indented": v1_indented,
    }


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_bundled_reports_match_pinned_digests(name, tmp_path):
    """`twinsync run --out` writes the bytes of a second run, with the pinned digests."""
    out = tmp_path / "report.json"
    rc = main(["run", "--scenario", str(fixture_path(name + ".json")), "--out", str(out)])
    assert rc == EXIT_OK
    ((_, _, data),) = pinned_runs(name)
    assert out.read_bytes() == data
    assert digests([data]) == pinned_digests(
        name, PINNED_V2_REPORTS[name], PINNED_COMPACT_REPORTS[name], PINNED_REPORTS[name]
    )


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
        assert digests == {PINNED_V5_REPORTS[name]}, name


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
    assert digests(data for _, _, data in pinned_runs(workload)) == pinned_digests(
        workload,
        PINNED_V2_WORKLOAD_REPORTS[workload],
        PINNED_COMPACT_WORKLOAD_REPORTS[workload],
        PINNED_WORKLOAD_REPORTS[workload],
    )


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
    _, v2_sha, compact_sha, indented_sha = PINNED_LOSSY_REPORTS[name]
    ((_, report, data),) = pinned_runs(name)
    for link in ("phys_to_virt", "virt_to_phys"):
        assert any(link in row.get("dropped", {}) for row in report.slots)
    assert report.summary["verdict"] == "pass"
    assert digests([data]) == pinned_digests(name, v2_sha, compact_sha, indented_sha)


def _varied_docs(name: str):
    """A bundled scenario's document, or a bench workload's seed-0 one, at
    sync period 1-3, latency 0-2 on both links and loss 0, 0.1 and 0.3 on
    both links: 27 documents, in that nesting order."""
    if name in PINNED_REPORTS:
        doc = load_fixture_json(name)
    else:
        (doc,) = import_bench_module("workloads").WORKLOADS[name].generate(0)
    for period, latency, loss in itertools.product((1, 2, 3), (0, 1, 2), (0.0, 0.1, 0.3)):
        channel = {"latency_slots": latency, "drop_probability": loss}
        channels = dict.fromkeys(("phys_to_virt", "virt_to_phys"), channel)
        yield {**doc, "sync_period_slots": period, "channels": channels}


# SHA-256 over each document's 27 reports (`_varied_docs`), as v4 wrote
# them (projected by `v4_report`) and concatenated in order.  The pins above
# run each document at its own period and latency only; delays that went
# wrong showed only at periods 2 and 3.
PINNED_VARIED_REPORTS = {
    "fig4_walkthrough": "31c72c0a58a09d488ad7078d051659ebc7d8e16b114b024a009400fb7a06402d",
    "attack_matrix": "9f50570e0ee057f04e29240dd59623f94bf67fe16963fc28744429d528aa47fd",
    "idle_at_key": "b584b8e623de02d904109040b34e6d393b37a2ad804f65ad1c9716e2f73869ae",
    "idle_between_keys": "3344b02744acb7194cb8c2061c532608213b51f3dc49d96f9d34b5b955af649a",
    "attack_dense": "650c8ec139cc3125890372b58ae3ec282185eed6a98870e626de9fb3887b3a70",
}
# The same reports as written (`twinsync.report.v5`).
PINNED_VARIED_V5_REPORTS = {
    "fig4_walkthrough": "46413527626b11f22c0d53dae9ebcb0838542255596671fc86a2c130b355c7b4",
    "attack_matrix": "b04623e1e15918ab74d4153d96c20bcf007c2828df5901f91f5f1ba0542240f0",
    "idle_at_key": "8deb6432166acc99089194d7ccc7fc62f7fe3983768d810f822730a1508b74c4",
    "idle_between_keys": "6ef74a30f87afad541f948349fcda11dda3385a773c1e916ba52180b9d0fdbc7",
    "attack_dense": "1b855979acf24171e679812c664cdf61ad8c0693da7eb32771958ea0096c2f4d",
}


@pytest.mark.parametrize("name", sorted(PINNED_VARIED_REPORTS))
def test_varied_reports_match_pinned_digests(name):
    written, as_v4 = hashlib.sha256(), hashlib.sha256()
    for doc in _varied_docs(name):
        data = run_scenario(scenario_from_dict(doc)).to_json_bytes()
        written.update(data)
        as_v4.update(compact(v4_report(json.loads(data))))
    assert as_v4.hexdigest() == PINNED_VARIED_REPORTS[name]
    assert written.hexdigest() == PINNED_VARIED_V5_REPORTS[name]


@pytest.mark.parametrize(
    "name", [*PINNED_REPORTS, *PINNED_WORKLOAD_REPORTS, *PINNED_LOSSY_REPORTS]
)
def test_frame_table_holds_each_frame_once_and_every_id_points_into_it(name):
    for _, _, data in pinned_runs(name):
        doc = v2_report(v4_report(json.loads(data)))
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
    for _, _, data in pinned_runs(name):
        REPORT_VALIDATOR.validate(json.loads(data))


@pytest.mark.parametrize("name", [*PINNED_REPORTS, *PINNED_WORKLOAD_REPORTS])
def test_every_sent_frame_decodes_from_base64_and_verifies_on_its_link(name):
    """Each frame a twin sent or lost, read back from the report, is the
    frame its link accepts, and its base64 is the one canonical spelling."""
    for spec, report, _ in pinned_runs(name):
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
    """A report states each fact one way: an empty map or list, an
    `[id, "accepted"]` pair and an audit's `ok` are v2's spellings, and a
    frame is canonical padded base64 (RFC 4648 section 4), not unpadded,
    with a newline as `binascii.b2a_base64` ends it by default, or in the
    URL-safe alphabet of section 5."""
    doc = run_scenario(load_bundled_scenario("fig4_walkthrough")).to_json_dict()
    REPORT_VALIDATOR.validate(doc)
    respell(doc)
    with pytest.raises(jsonschema.ValidationError):
        REPORT_VALIDATOR.validate(doc)


@pytest.mark.parametrize("field", STATE_FIELDS)
def test_schema_requires_every_state_field_in_the_first_row_only(field):
    """A later row states a state field only when it changed, so a reader
    needs the first row's four to carry forward."""
    doc = run_scenario(load_bundled_scenario("fig4_walkthrough")).to_json_dict()
    assert any(field not in row for row in doc["slots"][1:])
    REPORT_VALIDATOR.validate(doc)
    del doc["slots"][0][field]
    with pytest.raises(jsonschema.ValidationError):
        REPORT_VALIDATOR.validate(doc)


def test_the_bare_strings_a_row_writes_need_no_escaping():
    """The runner writes each link name and refusal outcome between quotes
    as it is, which is its JSON text only if JSON escapes none of its
    characters."""
    for text in [*(link.value for link in Direction), *OUTCOME_EVENT_KIND]:
        assert json.dumps(text) == f'"{text}"'


def test_the_schema_names_each_refusal_the_detector_maps():
    """A refused delivery's outcome is one of the detector's outcome table's
    keys, so every run checked against the schema also checks that each
    refusal it writes has an event kind."""
    refusals = REPORT_VALIDATOR.schema["$defs"]["refusal"]["enum"]
    assert sorted(refusals) == sorted(OUTCOME_EVENT_KIND)
