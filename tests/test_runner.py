"""End-to-end scenario runs: traces, events, reports, and determinism."""

import base64
import copy
import dataclasses
import functools
import gc
import itertools
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinsync.runner as runner_mod
from tests.conftest import HEAT, IDLE, heat_once_then_idle, import_bench_module, manual_tag
from twinsync.adversary import AttackAction, AttackKind
from twinsync.detector import Detector
from twinsync.frames import (
    HEADER_STRUCT,
    Frame,
    TAG_LEN,
    MsgType,
    decode_command_payload,
    decode_delta_payload,
    decode_frame,
    encode_command_payload,
    encode_delta_payload,
    encode_frame,
)
from twinsync.netsim import Direction
from twinsync.runner import PHYSICAL_SENDER_ID, VIRTUAL_SENDER_ID, run_scenario
from twinsync.sync import CommandRecord, DeltaRecord, Refusal
from twinsync.scenario import (
    DEFAULT_KEYS,
    load_bundled_scenario,
    load_fixture_json,
    scenario_from_dict,
)

P2V = Direction.PHYS_TO_VIRT.value
V2P = Direction.VIRT_TO_PHYS.value


def frame_bytes(report, frame_id: int) -> bytes:
    """The bytes of frame `frame_id`, decoded from the report's base64 frame table."""
    return base64.b64decode(report.frames[frame_id], validate=True)


def sent_bytes(report, row: dict, link: str) -> list[bytes]:
    """The bytes of the frames `row` sent on `link`, looked up in the report's frame table."""
    return [frame_bytes(report, i) for i in row.get("sent", {}).get(link, [])]


def delivered_pairs(row: dict, link: str) -> list[list]:
    """`[id, outcome]` of each frame delivered on `link` in `row`; the row
    writes an accepted frame as its bare id."""
    return [
        item if isinstance(item, list) else [item, "accepted"]
        for item in row.get("delivered", {}).get(link, [])
    ]


def outcomes(row: dict, link: str) -> list[str]:
    """The outcome of each frame delivered on `link` in `row`."""
    return [outcome for _, outcome in delivered_pairs(row, link)]


@pytest.fixture(scope="module")
def walkthrough():
    return run_scenario(load_bundled_scenario("fig4_walkthrough"))


class TestWalkthrough:
    """Three operator heats plus one remote heat: boiling crosses at slot 4."""

    def test_physical_state_trace(self, walkthrough):
        assert [r["physical_state"] for r in walkthrough.slots] == [
            0, 25, 50, 75, 100, 100, 100, 100,
        ]

    def test_physical_key_trace(self, walkthrough):
        assert [r["physical_key_state"] for r in walkthrough.slots] == [
            0, 0, 0, 0, 100, 100, 100, 100,
        ]

    def test_replica_lags_by_exactly_one_slot(self, walkthrough):
        assert [r["replica_key_state"] for r in walkthrough.slots] == [
            0, 0, 0, 0, 0, 100, 100, 100,
        ]

    def test_crossing_delta_is_the_canonical_four_input_record(self, walkthrough):
        (sent,) = sent_bytes(walkthrough, walkthrough.slots[4], P2V)
        payload = sent[HEADER_STRUCT.size : -TAG_LEN]
        assert payload.hex() == "0000000000000064" + "00000001" * 4

    def test_remote_command_round_trip(self, walkthrough):
        # Queued at slot 2, sent at 2, delivered at 3, executed at 4.
        sent_types = [data[3] for data in sent_bytes(walkthrough, walkthrough.slots[2], V2P)]
        assert sent_types == [2]
        assert outcomes(walkthrough.slots[3], V2P) == ["accepted"]
        assert walkthrough.slots[3]["physical_state"] == 75
        assert walkthrough.slots[4]["physical_state"] == 100

    def test_reverse_path_idles_with_acks(self, walkthrough):
        for slot, row in enumerate(walkthrough.slots):
            if slot == 2:
                continue
            types = [data[3] for data in sent_bytes(walkthrough, row, V2P)]
            assert types == [3]

    def test_sequence_numbers_count_sends_per_direction(self, walkthrough):
        """The header's slot is the sequence number: one send per slot at period 1."""
        slots = []
        for row in walkthrough.slots:
            for data in sent_bytes(walkthrough, row, P2V):
                slots.append(HEADER_STRUCT.unpack_from(data)[5])
        assert slots == list(range(8))

    def test_no_events_and_clean_audits(self, walkthrough):
        assert walkthrough.detection_events == []
        assert walkthrough.audits == []
        assert walkthrough.summary["event_count"] == 0
        assert walkthrough.summary["spurious_event_count"] == 0
        assert walkthrough.summary["verdict"] == "pass"

    def test_replica_synced_slot_tracks_deliveries(self, walkthrough):
        assert [r["replica_synced_slot"] for r in walkthrough.slots] == [
            0, 0, 1, 2, 3, 4, 5, 6,
        ]

    def test_report_bytes_are_reproducible_in_process(self):
        a = run_scenario(load_bundled_scenario("fig4_walkthrough")).to_json_bytes()
        b = run_scenario(load_bundled_scenario("fig4_walkthrough")).to_json_bytes()
        assert a == b

    def test_keys_longer_than_32_bytes_are_hashed_first(self, walkthrough):
        """The schema bounds no key's length: with distinct 33- and 100-byte
        keys, longer than keyed BLAKE2s takes, the walkthrough runs as with
        its own keys, tags with each key's digest, and passes."""
        up_key, down_key = bytes(range(33)), bytes(range(100, 200))
        doc = load_fixture_json("fig4_walkthrough")
        doc["keys"] = {P2V: up_key.hex(), V2P: down_key.hex()}
        report = run_scenario(scenario_from_dict(doc))
        assert report.summary["verdict"] == "pass"
        assert report.detection_events == []
        assert report.slots == walkthrough.slots
        for link, key in ((P2V, up_key), (V2P, down_key)):
            (sent,) = sent_bytes(report, report.slots[2], link)
            assert sent[-TAG_LEN:] == manual_tag(key, sent[:-TAG_LEN])


@pytest.fixture(scope="module")
def matrix_report():
    return run_scenario(load_bundled_scenario("attack_matrix"))


class TestAttackMatrix:
    @pytest.fixture
    def report(self, matrix_report):
        return matrix_report

    def test_every_attack_matched_exactly(self, report):
        rows = report.summary["attacks"]
        assert len(rows) == 8
        for row in rows:
            assert row["matched"], row
            assert row["event_count"] >= 1
            assert row["detected_requirements"] == row["expected_requirements"]

    def test_event_sequence(self, report):
        got = [(e["kind"], e["slot"], e["direction"]) for e in report.detection_events]
        assert got == [
            ("MISSED_SYNC", 5, P2V),
            ("FORGED_INSERT", 8, P2V),
            ("TAMPER", 12, P2V),
            ("MISSED_SYNC", 13, P2V),
            ("REPLAY_ATTACK", 16, P2V),
            ("MISSED_SYNC", 21, V2P),
            ("FORGED_INSERT", 24, V2P),
            ("TAMPER", 28, V2P),
            ("MISSED_SYNC", 29, V2P),
            ("REPLAY_ATTACK", 32, V2P),
        ]

    def test_every_event_is_attributed_to_an_attack(self, report):
        assert all(e["attack_scheduled"] for e in report.detection_events)
        assert not any(e.get("explained_by_benign_loss") for e in report.detection_events)

    def test_matrix_matches_expectations(self, report):
        assert report.summary["matrix"] == report.summary["expected_matrix"]
        assert report.summary["matrix"] == {
            "DELETE": {"phys_to_virt": ["R1"], "virt_to_phys": ["R1", "R3"]},
            "INSERT": {"phys_to_virt": ["R1", "R2"], "virt_to_phys": ["R1", "R3"]},
            "MODIFY": {"phys_to_virt": ["R1", "R2"], "virt_to_phys": ["R1", "R3"]},
            "REPLAY": {"phys_to_virt": ["R1"], "virt_to_phys": ["R1", "R3"]},
        }

    def test_verdict(self, report):
        assert report.summary["verdict"] == "pass"
        assert report.summary["spurious_event_count"] == 0
        assert report.audits == []

    def test_control_run_is_silent(self):
        doc = load_fixture_json("attack_matrix")
        doc["attacks"] = []
        control = run_scenario(scenario_from_dict(doc))
        assert control.detection_events == []
        assert control.summary["verdict"] == "pass"

    def test_adversary_actions_are_reported_on_their_slots(self, report):
        by_slot = {
            row["slot"]: [a["kind"] for a in row["adversary_actions"]]
            for row in report.slots
            if "adversary_actions" in row
        }
        assert by_slot == {
            4: ["DELETE"], 8: ["INSERT"], 12: ["MODIFY"], 16: ["REPLAY"],
            20: ["DELETE"], 24: ["INSERT"], 28: ["MODIFY"], 32: ["REPLAY"],
        }


class TestNoTarget:
    """An attack with nothing to act on is reported, not matched and not aborted."""

    def test_second_copy_of_a_delete_has_no_target(self, matrix_report):
        doc = load_fixture_json("attack_matrix")
        doc["attacks"].insert(1, dict(doc["attacks"][0]))
        report = run_scenario(scenario_from_dict(doc))
        first, second = report.slots[4]["adversary_actions"]
        assert "no_target" not in first
        assert second == {**first, "no_target": True}
        rows = report.summary["attacks"]
        assert [row.get("no_target", False) for row in rows] == [False, True] + [False] * 7
        assert [r for r in rows if "no_target" not in r] == matrix_report.summary["attacks"]
        assert report.summary["matrix"] == matrix_report.summary["matrix"]
        assert report.summary["expected_matrix"] == matrix_report.summary["expected_matrix"]
        assert report.summary["verdict"] == "pass"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(sync_period_slots=3),
            lambda d: d["channels"]["phys_to_virt"].update(latency_slots=1000000),
            lambda d: d["channels"]["phys_to_virt"].update(drop_probability=1.0),
            lambda d: d["attacks"][0]["params"].update(index=2**70),
            lambda d: d["attacks"][2]["params"].update(byte_offset=10**6),
        ],
        ids=["period_3", "latency_1e6", "drop_all", "delete_index_2_70", "modify_offset_1e6"],
    )
    def test_valid_edits_of_the_matrix_run_to_pass(self, edit):
        doc = load_fixture_json("attack_matrix")
        edit(doc)
        report = run_scenario(scenario_from_dict(doc))
        assert any(row.get("no_target") for row in report.summary["attacks"])
        assert report.summary["verdict"] == "pass"

    def test_missed_attack_excuses_no_event(self):
        """A MISSED_SYNC from benign loss inside a missed REPLAY's window stays
        unattributed: the run with the missed action has the same events."""
        doc = {
            "machine": "kettle",
            "total_slots": 12,
            "channels": {"phys_to_virt": {"drop_probability": 0.3}},
            "operator_inputs_physical": [[1, 1], [2, 1], [3, 1], [4, 1]],
            "seed": 1,
        }
        before = run_scenario(scenario_from_dict(doc))
        doc["attacks"] = [
            {"kind": "REPLAY", "slot": 8, "direction": P2V,
             "params": {"capture_slot": 8, "capture_index": 7}}
        ]
        after = run_scenario(scenario_from_dict(doc))
        assert after.summary["attacks"][0]["no_target"] is True
        missed = [e for e in after.detection_events if e["kind"] == "MISSED_SYNC"]
        assert any(8 <= e["slot"] <= 10 for e in missed)  # the REPLAY's window
        assert after.detection_events == before.detection_events
        assert all(not e["attack_scheduled"] for e in after.detection_events)
        for count in ("spurious_event_count", "benign_loss_event_count"):
            assert after.summary[count] == before.summary[count]
        assert after.summary["benign_loss_event_count"] == len(missed) > 0
        assert after.summary["verdict"] == "pass"


def summarize(grace: int, events: list, dropped: tuple[int, ...] = ()):
    """`Detector.summarize` of a run whose one attack, which found its
    target, DELETEs the up-link frame of slot 4, given `events` and the
    up-link frames lost at the `dropped` send slots."""
    attack = AttackAction(AttackKind.DELETE, 4, Direction.PHYS_TO_VIRT)
    lost = {(Direction.PHYS_TO_VIRT, slot) for slot in dropped}
    return up_link_detector(grace).summarize([attack], events, lost, [(attack, True)])


def up_link_detector(grace: int) -> Detector:
    """A detector of `summarize`'s up-link alone: latency 1, period 1."""
    return Detector({Direction.PHYS_TO_VIRT: 1}, 1, grace)


class TestSummarize:
    """The verdict's spurious half, and the edge of an attack's window."""

    def test_events_no_attack_or_loss_explains_are_spurious(self):
        detector = up_link_detector(grace=1)
        events = [
            *detector.on_slot_boundary(6),  # the DELETE's emission 4, overdue at 4 + 1 + 1
            detector.on_channel_error(
                Refusal("auth_fail", {"reason": "bad tag"}), 20, Direction.PHYS_TO_VIRT
            ),
            *detector.on_slot_boundary(30),  # emission 28, sent and not dropped
            *detector.on_slot_boundary(35),  # emission 33, dropped
        ]
        summary, annotated = summarize(1, events, dropped=(33,))
        assert [(e["kind"], e["slot"]) for e in annotated] == [
            ("MISSED_SYNC", 6), ("TAMPER", 20), ("MISSED_SYNC", 30), ("MISSED_SYNC", 35)
        ]
        assert [e["attack_scheduled"] for e in annotated] == [True, False, False, False]
        missed = [e["explained_by_benign_loss"] for e in annotated if e["kind"] == "MISSED_SYNC"]
        assert missed == [False, False, True]
        (attack,) = summary["attacks"]
        assert attack["matched"]
        assert summary["spurious_event_count"] == 2
        assert summary["benign_loss_event_count"] == 1
        assert summary["verdict"] == "detection_mismatch"

    @pytest.mark.parametrize("grace", [0, 1, 2, 3])
    def test_the_window_ends_grace_plus_one_slots_after_the_attack(self, grace):
        """The DELETE's MISSED_SYNC lands on slot + grace + 1, the last slot
        of its window, and is the attack's; one slot later, it is not."""
        edge = 4 + grace + 1
        (event,) = up_link_detector(grace).on_slot_boundary(edge)
        summary, (entry,) = summarize(grace, [event])
        (attack,) = summary["attacks"]
        assert (attack["detected_requirements"], attack["matched"]) == (["R1"], True)
        assert entry["attack_scheduled"]
        assert (summary["spurious_event_count"], summary["verdict"]) == (0, "pass")
        assert summary["matrix"] == summary["expected_matrix"] == {"DELETE": {P2V: ["R1"]}}

        (late,) = up_link_detector(grace).on_slot_boundary(edge + 1)
        summary, (entry,) = summarize(grace, [late])
        (attack,) = summary["attacks"]
        assert (attack["detected_requirements"], attack["matched"]) == ([], False)
        assert not entry["attack_scheduled"]
        assert summary["matrix"] == {"DELETE": {P2V: []}}
        assert summary["spurious_event_count"] == 1
        assert summary["verdict"] == "detection_mismatch"


def losing(doc: dict, link: str, slots: set[int]) -> dict:
    """`doc` at 0.25 loss on `link`, on the first seed that loses the frames
    sent there at `slots` and at no other slot but the last.

    A key holder's frame stamped with a lost slot then meets no honest frame
    of that slot first, so the link's window has not passed it.  Each link
    sends one frame per boundary whatever the adversary does, so attacks
    added later do not move the losses.
    """
    for seed in itertools.count():
        lossy = {**doc, "seed": seed, "channels": copy.deepcopy(doc.get("channels", {}))}
        lossy["channels"].setdefault(link, {})["drop_probability"] = 0.25
        report = run_scenario(scenario_from_dict(lossy))
        if {row["slot"] for row in report.slots[:-1] if link in row.get("dropped", {})} == slots:
            return lossy


def test_authenticated_ack_with_a_short_payload_is_a_forged_insert():
    """The runner decodes every ACK it accepts before the physical twin reads
    its acknowledgement."""
    # The down-link loses the ACK of slot 6, due at slot 7, the last.
    doc = losing(load_fixture_json("fig4_walkthrough"), V2P, {6})
    ack = Frame(MsgType.ACK, VIRTUAL_SENDER_ID, doc["session_id"], 6, bytes(7))
    forged = encode_frame(ack, bytes.fromhex(doc["keys"][V2P]))
    doc["attacks"] = [
        {"kind": "INSERT", "slot": 7, "direction": V2P, "params": {"raw_hex": forged.hex()}}
    ]
    report = run_scenario(scenario_from_dict(doc))
    assert outcomes(report.slots[7], V2P) == ["malformed_payload"]
    events = [(e["kind"], e["direction"], e["requirements"]) for e in report.detection_events]
    assert events == [("FORGED_INSERT", V2P, ["R1", "R3"])]
    assert report.summary["verdict"] == "pass"


def test_authenticated_commands_are_decoded_then_vetted():
    """A validly tagged COMMAND with no inputs fails to decode, a FORGED_INSERT;
    one naming an input the machine lacks decodes, and `reconcile` rejects it.
    Each goes in on time, one slot after the lost frame whose slot it carries."""
    # The down-link loses the frames of slots 5 and 6, due at slots 6 and 7.
    # The FORGED_INSERT comes second, so it falls in the window of both INSERTs
    # and each is credited with R1 and R3.
    doc = losing(load_fixture_json("fig4_walkthrough"), V2P, {5, 6})
    key = bytes.fromhex(doc["keys"][V2P])
    payloads = {
        5: encode_command_payload(CommandRecord(inputs=(99,), acked=0)),
        6: bytes(8),  # the acknowledgement, then no input
    }
    doc["attacks"] = [
        {
            "kind": "INSERT",
            "slot": slot + 1,
            "direction": V2P,
            "params": {
                "raw_hex": encode_frame(
                    Frame(MsgType.COMMAND, VIRTUAL_SENDER_ID, doc["session_id"], slot, payload),
                    key,
                ).hex()
            },
        }
        for slot, payload in payloads.items()
    ]
    report = run_scenario(scenario_from_dict(doc))
    assert outcomes(report.slots[6], V2P) == ["command_rejected"]
    assert outcomes(report.slots[7], V2P) == ["malformed_payload"]
    events = [(e["kind"], e["requirements"], e["detail"]) for e in report.detection_events]
    assert events[0] == ("COMMAND_REJECTED", ["R3"], {"reason": "unknown_input", "input": 99})
    assert events[1][:2] == ("FORGED_INSERT", ["R1", "R3"])
    assert len(events) == 2
    assert report.summary["verdict"] == "pass"


def replica_trace(report) -> list[tuple[int, int]]:
    """The replica's key state and sync slot at the end of each slot."""
    return [(row["replica_key_state"], row["replica_synced_slot"]) for row in report.slots]


def key_holder_run(heats_per_slot: int, record: DeltaRecord | None = None):
    """Four HEATs from slot 1, `heats_per_slot` a slot, boil the kettle in an
    8-slot run whose up-link loses the record of slot 6.  `record`, if any,
    goes in at the last slot as a validly tagged STATE_SYNC stamped with its
    slot: a key holder's lie."""
    doc = {
        "machine": "kettle",
        "total_slots": 8,
        "operator_inputs_physical": [[1 + i // heats_per_slot, HEAT] for i in range(4)],
    }
    doc = losing(doc, P2V, {6})
    if record is not None:
        # Session 1 is the default.
        payload = encode_delta_payload(record)
        frame = Frame(MsgType.STATE_SYNC, PHYSICAL_SENDER_ID, 1, record.slot, payload)
        forged = encode_frame(frame, DEFAULT_KEYS[Direction.PHYS_TO_VIRT]).hex()
        doc["attacks"] = [
            {"kind": "INSERT", "slot": 7, "direction": P2V, "params": {"raw_hex": forged}}
        ]
    return run_scenario(scenario_from_dict(doc))


@pytest.mark.parametrize(
    "heats_per_slot, record, mismatch",
    [
        (4, DeltaRecord(100, 0, (), 6), "unreachable_result"),
        (4, DeltaRecord(100, 100, (), 0), "replay"),
        (4, DeltaRecord(50, 100, (), 6), "base_mismatch"),
        # Heated a HEAT a slot, the replica holds 50, with key state 0 only.
        (1, DeltaRecord(50, 100, (), 6), "unreachable_result"),
    ],
)
def test_a_key_holders_state_sync_is_refolded_and_refused(heats_per_slot, record, mismatch):
    """A STATE_SYNC that passes its tag, stamped with the lost slot 6, still
    has to pass the re-fold: each lie raises one STATE_MISMATCH of its kind,
    and the replica stays where the same run without it leaves it.

    A slot the up-link has already accepted, such as slot 0, never reaches
    the replica: the decoder refuses it as a replay, a REPLAY_ATTACK, which
    the attack table expects of a REPLAY and not of an INSERT."""
    report = key_holder_run(heats_per_slot, record)
    if mismatch == "replay":
        outcome, event, verdict = "replay", ("REPLAY_ATTACK", None), "detection_mismatch"
    else:
        outcome, event, verdict = "state_mismatch", ("STATE_MISMATCH", mismatch), "pass"
    assert outcomes(report.slots[7], P2V) == [outcome]
    events = [(e["kind"], e["detail"].get("mismatch")) for e in report.detection_events]
    assert events == [event]
    assert report.summary["verdict"] == verdict
    assert replica_trace(report) == replica_trace(key_holder_run(heats_per_slot))


FUTURE_FRAMES = {
    "state_sync": (P2V, MsgType.STATE_SYNC, encode_delta_payload(DeltaRecord(0, 0, (), 1000))),
    "command": (V2P, MsgType.COMMAND, encode_command_payload(CommandRecord((HEAT,), 0))),
}


@pytest.mark.parametrize(
    "link, msg_type, payload, period, session, stamped, inserted, newest",
    [
        pytest.param(*frame, period, session, stamped, inserted, newest, id=name + suffix)
        for suffix, period, session, stamped, inserted, newest in [
            ("", 1, 1, 1000, 5, 4),
            ("-period2", 2, 1, 5, 6, 4),
            ("-period3", 3, 1, 5, 6, 3),
            ("-session2", 1, 2, 4, 5, 4),
        ]
        for name, frame in FUTURE_FRAMES.items()
    ],
)
def test_a_key_holders_frame_from_the_future_cannot_lock_its_link(
    link, msg_type, payload, period, session, stamped, inserted, newest
):
    """A validly tagged frame stamped later than the newest boundary an
    honest frame can carry, put in at a slot of a 20-slot run, is refused as
    from the future, so the link's newest accepted slot does not move and
    every honest frame after it is still accepted: one FORGED_INSERT in the
    INSERT's window, and the run passes.  Above period 1 a slot between two
    boundaries is from the future too: at period 2, slot 5 arriving at slot
    6 is later than boundary 4, the newest at or before the arrival slot
    minus the latency, and the refusal names that boundary.  So is a frame
    of a later session than the link's, at any slot: the link's session is
    fixed for the run, and the refusal names both sessions."""
    direction = Direction(link)
    sender = PHYSICAL_SENDER_ID if direction is Direction.PHYS_TO_VIRT else VIRTUAL_SENDER_ID
    frame = Frame(msg_type, sender, session, stamped, payload)
    forged = encode_frame(frame, DEFAULT_KEYS[direction])
    doc = {
        "machine": "kettle",
        "total_slots": 20,
        "sync_period_slots": period,
        "operator_inputs_physical": [[slot, HEAT] for slot in range(1, 5)],
        "attacks": [
            {
                "kind": "INSERT",
                "slot": inserted,
                "direction": link,
                "params": {"raw_hex": forged.hex()},
            }
        ],
    }
    report = run_scenario(scenario_from_dict(doc))

    def honest(slot: int) -> list[str]:
        """An honest frame arrives one slot after each boundary, and is accepted."""
        return ["accepted"] if (slot - 1) % period == 0 else []

    assert outcomes(report.slots[inserted], link) == honest(inserted) + ["future"]
    (event,) = report.detection_events
    assert (event["kind"], event["slot"], event["direction"]) == ("FORGED_INSERT", inserted, link)
    if session == 1:
        reason = f"slot {stamped} later than {newest}, the newest sync boundary an honest frame can carry"
    else:
        reason = f"session {session} later than the link's 1"
    assert event["detail"] == {"reason": reason, "claimed_slot": stamped}
    assert report.summary["spurious_event_count"] == 0
    assert report.summary["verdict"] == "pass"
    assert all(outcomes(row, link) == honest(row["slot"]) for row in report.slots[inserted + 1 :])


def test_an_honest_run_of_a_later_session_accepts_every_frame():
    """A link runs the scenario's session from its first frame: at session
    5, every frame each twin sends is of session 5, and every one that
    arrives within the run, all but the last slot's two, is accepted."""
    doc = {**load_fixture_json("fig4_walkthrough"), "session_id": 5, "attacks": []}
    spec = scenario_from_dict(doc)
    report = run_scenario(spec)
    sent = [
        data for row in report.slots for link in (P2V, V2P) for data in sent_bytes(report, row, link)
    ]
    assert sent and {HEADER_STRUCT.unpack_from(data)[4] for data in sent} == {5}
    delivered = [outcomes(row, link) for row in report.slots for link in (P2V, V2P)]
    assert sum(map(len, delivered)) == len(sent) - 2
    assert all(outcome == "accepted" for o in delivered for outcome in o)
    assert report.detection_events == []
    assert report.summary["verdict"] == "pass"


@settings(max_examples=40, deadline=None)
@given(
    period=st.integers(1, 4),
    inputs=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([HEAT, IDLE])), max_size=12),
)
def test_boundaries_alone_send_and_each_carries_its_inputs(period, inputs):
    """Only a sync boundary sends, one frame each way.  The down-link frame
    carries exactly the virtual inputs issued since the boundary before, in
    order: a COMMAND when there are any, else the ACK heartbeat."""
    spec = scenario_from_dict(
        {
            "machine": "kettle",
            "total_slots": 12,
            "sync_period_slots": period,
            "operator_inputs_virtual": [list(pair) for pair in inputs],
        }
    )
    report = run_scenario(spec)
    key, highest = spec.keys[Direction.VIRT_TO_PHYS], -1
    issued = sorted(inputs, key=lambda pair: pair[0])
    for row in report.slots:
        slot = row["slot"]
        if slot % period:
            assert "sent" not in row
            continue
        assert {link: len(ids) for link, ids in row["sent"].items()} == {P2V: 1, V2P: 1}
        (data,) = sent_bytes(report, row, V2P)
        link = (VIRTUAL_SENDER_ID, (MsgType.COMMAND, MsgType.ACK), slot, slot)
        frame = decode_frame(data, key, spec.session_id, highest, *link)
        assert frame.slot == slot
        highest = slot
        carried = tuple(sym for s, sym in issued if slot - period < s <= slot)
        if carried:
            assert frame.msg_type == MsgType.COMMAND
            assert decode_command_payload(frame.payload).inputs == carried
        else:
            assert frame.msg_type == MsgType.ACK


def test_an_insert_where_no_frame_is_due_is_delivered_and_detected():
    """The runner hands the adversary every slot's batch, empty ones too.

    With a period of two and one slot of latency, frames arrive on odd slots
    only, so nothing is due on either link at slot 4.
    """
    forged = "deadbeef" * 5
    doc = {
        "machine": "kettle",
        "total_slots": 8,
        "sync_period_slots": 2,
        "attacks": [{"kind": "INSERT", "slot": 4, "direction": P2V, "params": {"raw_hex": forged}}],
    }
    report = run_scenario(scenario_from_dict(doc))
    forged_id = report.frames.index(base64.b64encode(bytes.fromhex(forged)).decode())
    assert report.slots[4]["delivered"] == {P2V: [[forged_id, "malformed"]]}
    events = [(e["kind"], e["slot"], e["direction"]) for e in report.detection_events]
    assert events == [("FORGED_INSERT", 4, P2V)]
    assert report.summary["verdict"] == "pass"


OTHER_DIRECTION = {
    Direction.PHYS_TO_VIRT: Direction.VIRT_TO_PHYS,
    Direction.VIRT_TO_PHYS: Direction.PHYS_TO_VIRT,
}


@functools.cache
def shared_key_run(name: str):
    """A bundled scenario with one key for both directions, and its report.

    Validation rejects equal keys, but a spec built directly can have them;
    then each direction's frames authenticate on the other direction too.
    """
    key = bytes.fromhex("11" * 32)
    spec = dataclasses.replace(load_bundled_scenario(name), keys={d: key for d in Direction})
    return spec, run_scenario(spec)


def sent_frames(report) -> list[tuple[int, Direction, bytes]]:
    """(slot, direction, frame bytes) for every frame the twins sent."""
    return [
        (row["slot"], d, data)
        for row in report.slots
        for d in Direction
        for data in sent_bytes(report, row, d.value)
    ]


def reflection_problems(name: str, frame: bytes, target: Direction, at: int) -> list[str]:
    """Insert an honest frame onto `target` at slot `at`; list what went wrong.

    The reflected frame must be rejected as `wrong_direction`, detected as
    the INSERT it is, and change no state.  The verdict is checked unless the
    reflection lands in the window of one of the scenario's own attacks on
    `target`: attribution is by time window, so that attack is credited with
    the reflection's requirements too.
    """
    spec, honest = shared_key_run(name)
    attack = AttackAction(AttackKind.INSERT, at, target, {"raw_hex": frame.hex()})
    report = run_scenario(dataclasses.replace(spec, attacks=[*spec.attacks, attack]))
    where = f"{frame.hex()[:16]}... onto {target.value} at slot {at}"
    problems = []
    delivered = delivered_pairs(report.slots[at], target.value)
    found = [outcome for i, outcome in delivered if frame_bytes(report, i) == frame]
    if found != ["wrong_direction"]:
        problems.append(f"{where}: outcomes {found}")
    if not report.summary["attacks"][-1]["matched"]:
        problems.append(f"{where}: {report.summary['attacks'][-1]}")
    if report.summary["spurious_event_count"]:
        problems.append(f"{where}: spurious events")
    keys = ("physical_state", "physical_key_state", "replica_key_state", "replica_synced_slot")
    if [[r[k] for k in keys] for r in report.slots] != [[r[k] for k in keys] for r in honest.slots]:
        problems.append(f"{where}: the reflection changed a state")
    window = spec.grace_slots + 1
    shared = any(a.direction == target and a.slot <= at <= a.slot + window for a in spec.attacks)
    if not shared and report.summary["verdict"] != "pass":
        problems.append(f"{where}: verdict {report.summary['verdict']}")
    return problems


class TestReflection:
    """Under a shared key, a frame reflected onto the other direction is a forged insert."""

    @pytest.mark.parametrize("name", ["fig4_walkthrough", "attack_matrix"])
    def test_every_frame_reflected_one_slot_later_is_a_forged_insert(self, name):
        spec, honest = shared_key_run(name)
        problems = []
        for slot, direction, data in sent_frames(honest):
            if slot + 1 < spec.total_slots:
                problems += reflection_problems(name, data, OTHER_DIRECTION[direction], slot + 1)
        assert problems == []

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["fig4_walkthrough", "attack_matrix"]), data=st.data())
    def test_a_frame_reflected_at_any_later_slot_is_a_forged_insert(self, name, data):
        spec, honest = shared_key_run(name)
        earlier = [f for f in sent_frames(honest) if f[0] + 1 < spec.total_slots]
        slot, direction, frame = data.draw(st.sampled_from(earlier))
        at = data.draw(st.integers(slot + 1, spec.total_slots - 1))
        assert reflection_problems(name, frame, OTHER_DIRECTION[direction], at) == []

    def test_reflected_crossing_is_a_forged_insert_on_the_actuation_channel(self):
        """The record carrying the crossing to 100, sent at slot 4."""
        spec, honest = shared_key_run("fig4_walkthrough")
        (crossing,) = sent_bytes(honest, honest.slots[4], P2V)
        attack = AttackAction(
            AttackKind.INSERT, 5, Direction.VIRT_TO_PHYS, {"raw_hex": crossing.hex()}
        )
        report = run_scenario(dataclasses.replace(spec, attacks=[attack]))
        (event,) = report.detection_events
        assert (event["kind"], event["slot"], event["direction"]) == ("FORGED_INSERT", 5, V2P)
        assert event["requirements"] == ["R1", "R3"]
        assert event["detail"] == {"reason": "wrong direction", "claimed_slot": 4}

    def test_a_frame_reflected_twice_is_two_forged_inserts(self):
        """The wrong link's replay window never sees the reflected slot.

        The ACK sent at slot 1 on virt_to_phys, reflected onto phys_to_virt
        at slots 2 and 5: both copies are `wrong_direction`, neither `replay`.
        """
        spec, honest = shared_key_run("fig4_walkthrough")
        (ack,) = sent_bytes(honest, honest.slots[1], V2P)
        attacks = [
            AttackAction(AttackKind.INSERT, at, Direction.PHYS_TO_VIRT, {"raw_hex": ack.hex()})
            for at in (2, 5)
        ]
        report = run_scenario(dataclasses.replace(spec, attacks=attacks))
        (ack_id,) = honest.slots[1]["sent"][V2P]
        found = [
            outcome for row in report.slots for i, outcome in delivered_pairs(row, P2V)
            if i == ack_id
        ]
        assert found == ["wrong_direction", "wrong_direction"]
        events = [(e["kind"], e["slot"], e["requirements"]) for e in report.detection_events]
        assert events == [("FORGED_INSERT", 2, ["R1", "R2"]), ("FORGED_INSERT", 5, ["R1", "R2"])]
        assert [row["matched"] for row in report.summary["attacks"]] == [True, True]
        assert report.summary["verdict"] == "pass"


class TestBenignLoss:
    def test_random_drops_are_explained_not_blamed(self):
        doc = {
            "machine": "kettle",
            "total_slots": 6,
            "channels": {"phys_to_virt": {"drop_probability": 1.0}},
            "seed": 3,
        }
        report = run_scenario(scenario_from_dict(doc))
        missed = [e for e in report.detection_events if e["kind"] == "MISSED_SYNC"]
        assert [e["slot"] for e in missed] == [2, 3, 4, 5]
        assert all(e["explained_by_benign_loss"] for e in missed)
        assert all(not e["attack_scheduled"] for e in missed)
        assert report.summary["spurious_event_count"] == 0
        assert report.summary["benign_loss_event_count"] == 4
        assert report.summary["verdict"] == "pass"
        for row in report.slots:
            assert len(row["dropped"][P2V]) == len(row["sent"][P2V])

    def test_audits_stay_clean_when_nothing_changes(self):
        doc = {
            "machine": "kettle",
            "total_slots": 6,
            "channels": {"phys_to_virt": {"drop_probability": 1.0}},
        }
        report = run_scenario(scenario_from_dict(doc))
        assert report.audits == []


@pytest.fixture(scope="module")
def divergence_report():
    doc = {
        "machine": "kettle",
        "total_slots": 8,
        "operator_inputs_physical": [[1, 1], [2, 1], [3, 1], [4, 1]],
        "attacks": [
            {"kind": "DELETE", "slot": 5, "direction": "phys_to_virt", "params": {}}
        ],
    }
    return run_scenario(scenario_from_dict(doc))


class TestStateDivergence:
    """Deleting the record that carried a key crossing delays the replica by one slot:
    the next record starts from the same unacknowledged anchor and re-covers it."""

    @pytest.fixture
    def report(self, divergence_report):
        return divergence_report

    def test_only_liveness_fires(self, report):
        kinds = [(e["kind"], e["slot"]) for e in report.detection_events]
        assert kinds == [("MISSED_SYNC", 6)]

    def test_audit_pinpoints_the_divergence_onset(self, report):
        (failed,) = report.audits
        assert (failed["slot"], failed["expected"], failed["replica_key_state"]) == (5, 100, 0)

    def test_replica_recovers_at_the_next_record(self, report):
        assert [r["replica_key_state"] for r in report.slots] == [0] * 6 + [100] * 2
        (record,) = report.slots[5]["sent"][P2V]
        assert report.slots[6]["delivered"][P2V] == [record]

    def test_delete_is_credited_r1_only(self, report):
        (attack,) = report.summary["attacks"]
        assert attack["expected_requirements"] == ["R1"]
        assert attack["detected_requirements"] == ["R1"]
        assert attack["matched"]
        assert report.summary["spurious_event_count"] == 0
        assert report.summary["verdict"] == "pass"


class TestSyncPeriod:
    def test_period_two_emits_on_even_slots_only(self):
        doc = {
            "machine": "kettle",
            "total_slots": 8,
            "sync_period_slots": 2,
            "operator_inputs_physical": [[1, 1], [2, 1], [3, 1], [4, 1]],
        }
        report = run_scenario(scenario_from_dict(doc))
        for row in report.slots:
            expected = 1 if row["slot"] % 2 == 0 else 0
            assert len(sent_bytes(report, row, P2V)) == expected
            assert len(sent_bytes(report, row, V2P)) == expected
        assert report.detection_events == []
        assert report.audits == []
        assert [r["replica_key_state"] for r in report.slots] == [
            0, 0, 0, 0, 0, 100, 100, 100,
        ]

    def test_longer_latency_shifts_the_mirror(self):
        doc = {
            "machine": "kettle",
            "total_slots": 9,
            "channels": {
                "phys_to_virt": {"latency_slots": 2},
                "virt_to_phys": {"latency_slots": 2},
            },
            "operator_inputs_physical": [[1, 1], [2, 1], [3, 1], [4, 1]],
        }
        report = run_scenario(scenario_from_dict(doc))
        assert report.detection_events == []
        assert [r["replica_key_state"] for r in report.slots] == [
            0, 0, 0, 0, 0, 0, 100, 100, 100,
        ]
        assert report.audits == []


def idle_at_key(total_slots: int):
    """The kettle boils at slots 1-4, then idles at key state 100, losing 5% of ACKs."""
    physical = [[s, HEAT] for s in range(1, 5)] + [[s, IDLE] for s in range(5, total_slots)]
    return scenario_from_dict(
        {
            "machine": "kettle",
            "total_slots": total_slots,
            "channels": {"virt_to_phys": {"drop_probability": 0.05}},
            "operator_inputs_physical": physical,
        }
    )


def recorded(cls, into: list):
    """A stand-in for `cls` that keeps every instance it makes."""

    def make(*args, **kwargs):
        into.append(cls(*args, **kwargs))
        return into[-1]

    return make


def test_liveness_set_stays_small_on_a_long_run():
    """Each accepted emission is forgotten once its deadline check finds it."""
    detectors = []
    with mock.patch.object(runner_mod, "Detector", recorded(Detector, detectors)):
        run_scenario(idle_at_key(2000))
    (detector,) = detectors
    assert len(detector._satisfied) <= 2


def run_seconds(spec) -> float:
    gc.collect()
    started = time.perf_counter()
    run_scenario(spec)
    return time.perf_counter() - started


def test_slot_cost_does_not_grow_with_run_length():
    """Eight times the slots must take about eight times as long.

    A step that rescans the history every slot makes it 19 or more.  Best
    of five runs each, the short and long runs taken in turn, so a slow
    spell on a shared host falls on both sizes rather than on one.
    """
    short_spec, long_spec = idle_at_key(1000), idle_at_key(8000)
    short = long = float("inf")
    for _ in range(5):
        short = min(short, run_seconds(short_spec))
        long = min(long, run_seconds(long_spec))
    assert long / short < 12


def test_python_calls_per_slot_do_not_grow_with_run_length():
    """The deterministic companion of the test above: 8,000 slots make at
    most 1.01x the Python calls per slot of 1,000 (43.85 against 43.92), so
    no per-slot step calls more as the history grows."""
    assert calls_per_slot(idle_at_key(8000)) <= 1.01 * calls_per_slot(idle_at_key(1000))


SINGLE_ATTACKS = {
    "DELETE": lambda slot: {},
    "INSERT": lambda slot: {"raw_hex": "deadbeef" * 5},
    "MODIFY": lambda slot: {"byte_offset": 24, "xor_mask": 1},
    "REPLAY": lambda slot: {"capture_slot": slot - 1, "capture_index": 0},
}


def test_every_single_attack_on_the_matrix_run_passes():
    """Each attack kind on each direction at every slot from 2 to 34 of
    `attack_matrix`'s honest run, one attack per run: 264 runs.  Each attack
    finds its target, a REPLAY the frame delivered one slot before, and is
    detected exactly as expected with no other event."""
    honest = load_fixture_json("attack_matrix")
    honest["attacks"] = []
    failed = []
    for kind, params in SINGLE_ATTACKS.items():
        for direction in (P2V, V2P):
            for slot in range(2, 35):
                attack = {"kind": kind, "slot": slot, "direction": direction}
                doc = {**honest, "attacks": [{**attack, "params": params(slot)}]}
                summary = run_scenario(scenario_from_dict(doc)).summary
                (row,) = summary["attacks"]
                if summary["verdict"] != "pass" or not row["matched"] or "no_target" in row:
                    failed.append(attack)
    assert failed == []


def python_calls_per_slot(workload: str) -> float:
    """`calls_per_slot` of the benchmark's `workload` at seed 0."""
    (doc,) = getattr(import_bench_module("workloads"), workload)(0)
    return calls_per_slot(scenario_from_dict(doc))


def calls_per_slot(spec) -> float:
    """The Python function calls `run_scenario(spec)` makes per slot,
    counted by a profile hook, so host load cannot move it.  Calls into C
    are not counted."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run_scenario(spec)
    finally:
        sys.setprofile(None)
    return calls / spec.total_slots


def test_python_calls_per_idle_slot():
    """A deterministic guard on the per-slot constant of the frame path:
    43.82.  Each physical input appends to the execution log directly, one
    call fewer per input than the 44.82 of `ExecutionLog.append`'s
    contiguity check.  The audit takes the up link's newest boundary from
    the timing check, one call fewer per slot than the 45.82 of
    `delivered_emission`; wire version 2's replay check inside
    `decode_frame` made one call fewer per frame than the 47.76 of the
    window's own method."""
    assert python_calls_per_slot("idle_at_key") <= 48


def test_python_calls_per_attack_slot():
    """The same guard on the adversary and detector paths: 45.56 on
    `attack_dense`, down from 46.17, 47.17 and 49.12 for the same reasons."""
    assert python_calls_per_slot("attack_dense") <= 49


def test_report_bytes_per_idle_slot():
    """The written report of the benchmark's `idle_at_key` workload at seed
    0 holds each frame once, in base64, and its rows only what happened:
    422.662 B per slot (426.646 while records stated their input count,
    450.6 while the header carried a seq), where each
    frame's hex took 547, v2's rows with every empty list, every `accepted`
    and an audit row per slot took 697, and writing each frame's hex under
    both `sent` and `delivered` took 1,035."""
    (doc,) = import_bench_module("workloads").idle_at_key(0)
    spec = scenario_from_dict(doc)
    assert len(run_scenario(spec).to_json_bytes()) / spec.total_slots <= 465


def containers(value) -> int:
    """The dicts and lists reachable from `value`, itself included."""
    count, stack = 0, [value]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            count += 1
            stack.extend(item.values())
        elif isinstance(item, list):
            count += 1
            stack.extend(item)
    return count


def test_held_containers_per_idle_slot():
    """The dicts and lists a run holds until its report is written, per slot
    of the benchmark's `idle_at_key` workload at seed 0: about 7.1, a row and
    the `sent` and `delivered` maps with one list per link.  v2's rows, with
    their empty lists and `[id, "accepted"]` pairs, and an audit row per
    slot, held 13.9."""
    (doc,) = import_bench_module("workloads").idle_at_key(0)
    spec = scenario_from_dict(doc)
    report = run_scenario(spec)
    assert (containers(report.slots) + containers(report.audits)) / spec.total_slots <= 8


def test_idling_between_keys_ships_heartbeats():
    """The records of slots 1-4 re-cover the HEAT until the ACK for its record
    lands at slot 4; the IDLEs are self-loops and ship nothing, so from slot 5
    on every record is a heartbeat: 66 bytes on the wire."""
    report = run_scenario(heat_once_then_idle(8000))
    sizes = [len(data) for row in report.slots for data in sent_bytes(report, row, P2V)]
    assert len(sizes) == 8000
    assert sizes[1:5] == [70] * 4
    assert set(sizes[5:]) == {66}
    assert report.summary["verdict"] == "pass"


def test_long_lossy_idle_between_keys_completes():
    """20k slots at 10% loss on both channels: no record outgrows its frame."""
    report = run_scenario(heat_once_then_idle(20000, drop=0.1))
    assert report.summary["verdict"] == "pass"
    assert report.audits == []
    assert max(len(data) for row in report.slots for data in sent_bytes(report, row, P2V)) <= 82


TOGGLE = {
    "machine_id": "toggle",
    "states": [0, 1],
    "inputs": [1],
    "initial": 0,
    "key_states": [0],
    "delta": [[0, 1, 1], [1, 1, 0]],
}


def kettle_commanded_every_slot(total_slots: int) -> dict:
    """Heated once, then an IDLE and a virtual IDLE command every slot."""
    return {
        "machine": "kettle",
        "total_slots": total_slots,
        "operator_inputs_physical": [[1, HEAT]] + [[s, IDLE] for s in range(2, total_slots)],
        "operator_inputs_virtual": [[s, IDLE] for s in range(2, total_slots)],
    }


def toggle_commanded_every_slot(total_slots: int) -> dict:
    """Every input changes a toggle's state, so only acknowledgements cut its records."""
    every_slot = [[s, 1] for s in range(total_slots)]
    return {
        "machine": TOGGLE,
        "total_slots": total_slots,
        "operator_inputs_physical": every_slot,
        "operator_inputs_virtual": every_slot,
    }


def kettle_deaf(total_slots: int) -> dict:
    """Heated once, then idle, with every down-link frame lost."""
    return {
        "machine": "kettle",
        "total_slots": total_slots,
        "channels": {"virt_to_phys": {"drop_probability": 1.0}},
        "operator_inputs_physical": [[1, HEAT]] + [[s, IDLE] for s in range(2, total_slots)],
    }


@pytest.mark.parametrize(
    "build", [kettle_commanded_every_slot, toggle_commanded_every_slot, kettle_deaf]
)
def test_report_bytes_per_slot_stay_flat_without_idle_acks(build):
    """A boundary that sends a command sends no ACK, but the command itself
    acknowledges, and a self-loop ships nothing.  So records stay a few
    inputs long: 8,300 slots, where they once outgrew a frame near slot
    8,190, cost within 5% per slot of 500."""
    short = run_scenario(scenario_from_dict(build(500))).to_json_bytes()
    report = run_scenario(scenario_from_dict(build(8300)))
    assert report.summary["verdict"] == "pass"
    assert len(report.to_json_bytes()) / 8300 <= 1.05 * len(short) / 500


@pytest.mark.parametrize("name", ["fig4_walkthrough", "attack_matrix"])
def test_record_k_goes_out_as_up_link_seq_k(name):
    """The record of emission slot k goes out in the up-link frame stamped
    k, the sequence number the physical twin keeps its unacknowledged
    records by."""
    records = []
    tick = runner_mod.PhysicalTwin.tick

    def recording_tick(twin, slot):
        records.append(tick(twin, slot))
        return records[-1]

    with mock.patch.object(runner_mod.PhysicalTwin, "tick", recording_tick):
        report = run_scenario(load_bundled_scenario(name))
    stamped = []  # each up-link frame's record, read with the slot its header carries
    for row in report.slots:
        for data in sent_bytes(report, row, P2V):
            payload = data[HEADER_STRUCT.size : -TAG_LEN]
            stamped.append(decode_delta_payload(payload, HEADER_STRUCT.unpack_from(data)[5]))
    assert stamped == records
    assert len(records) == load_bundled_scenario(name).total_slots


def test_every_honest_frame_passes_the_timing_check():
    """Both links send one frame per boundary, stamped with that boundary's
    slot, and each arrives exactly its link's latency later, so the timing
    check never refuses one: on both bundled fixtures and the seed-0
    single-scenario bench workloads, at periods 1-5, 10,270 frames.  The
    9,872 delivered on time are all accepted, attacks or not: an INSERT or
    a REPLAY, even of the frame itself, comes after it in its batch.  The
    rest were deleted, modified or still in flight when the run ended.  No
    honest frame is shorter than an ACK's or an idle STATE_SYNC's 66 bytes,
    the bound below which `attack_dense` draws its MODIFY offsets."""
    workloads = import_bench_module("workloads")
    docs = [load_fixture_json(name) for name in ("fig4_walkthrough", "attack_matrix")]
    for name in ("idle_at_key", "idle_between_keys", "attack_dense"):
        docs += getattr(workloads, name)(0)
    stamps, deliveries, sizes, wrong = 0, 0, set(), []
    for doc in docs:
        for period in range(1, 6):
            spec = scenario_from_dict({**doc, "sync_period_slots": period})
            report = run_scenario(spec)
            sent: dict[tuple[str, int], int] = {}  # (link, frame id) to its send slot
            for row in report.slots:
                for link, ids in row.get("sent", {}).items():
                    for frame_id in ids:
                        sent[(link, frame_id)] = row["slot"]
                        data = frame_bytes(report, frame_id)
                        stamp = HEADER_STRUCT.unpack_from(data)[5]
                        sizes.add(len(data))
                        stamps += 1
                        if stamp != row["slot"]:
                            wrong.append((doc["name"], period, link, row["slot"], "stamp", stamp))
                for link in (P2V, V2P):
                    latency = spec.channels[Direction(link)].latency_slots
                    for frame_id, outcome in delivered_pairs(row, link):
                        if sent.get((link, frame_id)) != row["slot"] - latency:
                            continue  # not an honest frame, or not on time
                        del sent[(link, frame_id)]
                        deliveries += 1
                        if outcome != "accepted":
                            wrong.append((doc["name"], period, link, row["slot"], outcome))
    assert stamps == 10_270 and deliveries == 9_872
    assert min(sizes) == 66
    assert wrong == []


@pytest.mark.parametrize("link", [P2V, V2P])
@pytest.mark.parametrize("period", [1, 2, 3])
def test_a_delayed_frame_is_detected(period, link):
    """A Dolev-Yao adversary delays a frame with the powers it has: it
    DELETEs the frame of emission e as it arrives at e + 1 and REPLAYs it
    `lag` slots later, before the next emission arrives when the period
    allows.  The channel has no jitter, so the copy is late: the decoder
    refuses it as `late`, or as `replay` once a newer frame was accepted,
    and each is a REPLAY_ATTACK.  Over an idle 30-slot kettle run, at grace
    1-3, for each emission below slot 20 and each lag from 1 to grace + 1,
    every run ends `pass`.  Without the lateness check the copy is accepted
    whenever it arrives before the next emission: 60 of 180 runs at period
    2 and 84 of 126 at period 3, both links together, ended
    `detection_mismatch`."""
    runs, verdicts = 0, {}
    for grace in (1, 2, 3):
        for emission in range(0, 20, period):
            for lag in range(1, grace + 2):
                arrival = emission + 1
                doc = {
                    "machine": "kettle",
                    "total_slots": 30,
                    "sync_period_slots": period,
                    "grace_slots": grace,
                    "attacks": [
                        {"kind": "DELETE", "slot": arrival, "direction": link, "params": {}},
                        {
                            "kind": "REPLAY",
                            "slot": arrival + lag,
                            "direction": link,
                            "params": {"capture_slot": arrival, "capture_index": 0},
                        },
                    ],
                }
                report = run_scenario(scenario_from_dict(doc))
                if any(row.get("no_target") for row in report.summary["attacks"]):
                    continue
                runs += 1
                # The copy comes after any honest frame due in its batch.
                outcome = outcomes(report.slots[arrival + lag], link)[-1]
                assert outcome == ("late" if lag < period else "replay"), (grace, emission, lag)
                case = (grace, emission, lag, outcome)
                verdicts[case] = report.summary["verdict"]
    assert runs == len(range(0, 20, period)) * (2 + 3 + 4)  # every attack found its frame
    assert {case for case, verdict in verdicts.items() if verdict != "pass"} == set()


def records(report) -> list[tuple[int, tuple[int, ...]]]:
    """(base, inputs) of every STATE_SYNC record sent, in order."""
    out = []
    for row in report.slots:
        for data in sent_bytes(report, row, P2V):
            payload = data[HEADER_STRUCT.size : -TAG_LEN]
            delta = decode_delta_payload(payload, row["slot"])
            out.append((delta.base_state, delta.applied_inputs))
    return out


ACK_SLOT = 4  # the ACK delivered here moves the anchor from 0 to 25


def ack_anchoring_spec(attacks: list[dict], shared_key: bool = False, ack_drop: float = 0.0):
    """The kettle heats to 50 and idles there; attacks are on the ACK path."""
    spec = scenario_from_dict(
        {
            "machine": "kettle",
            "total_slots": 16,
            "channels": {"virt_to_phys": {"drop_probability": ack_drop}},
            "operator_inputs_physical": [[1, HEAT], [2, HEAT]]
            + [[s, IDLE] for s in range(3, 16)],
            "attacks": attacks,
        }
    )
    if shared_key:
        key = bytes.fromhex("11" * 32)
        spec = dataclasses.replace(spec, keys={d: key for d in Direction})
    return spec


def on_ack_path(kind: str, **params) -> dict:
    return {"kind": kind, "slot": ACK_SLOT, "direction": V2P, "params": params}


class TestAckAnchoring:
    """Only an ACK the link accepts moves the anchor; the rest leave every
    later record's base and inputs as they were."""

    def test_acks_keep_records_short(self):
        honest = records(run_scenario(ack_anchoring_spec([])))
        assert honest == [
            (0, ()),
            (0, (HEAT,)),
            (0, (HEAT, HEAT)),
            (0, (HEAT, HEAT)),
            (0, (HEAT, HEAT)),
            (25, (HEAT,)),
        ] + [(50, ())] * 10

    def test_without_acks_every_record_starts_at_the_initial_state(self):
        """With every ACK lost the anchor never moves, yet the IDLEs are self-loops
        and ship nothing: the record stays two inputs long."""
        report = run_scenario(ack_anchoring_spec([], ack_drop=1.0))
        assert records(report)[2:] == [(0, (HEAT, HEAT))] * 14
        assert report.summary["verdict"] == "pass"

    @pytest.mark.parametrize(
        ("attack", "outcome"),
        [
            (on_ack_path("REPLAY", capture_slot=2, capture_index=0), "replay"),
            (
                on_ack_path(
                    "INSERT",
                    template={
                        "msg_type": int(MsgType.ACK),
                        "sender_id": VIRTUAL_SENDER_ID,
                        "session_id": 1,
                        "slot": ACK_SLOT - 1,
                        "payload_hex": (14).to_bytes(8, "big").hex(),
                    },
                ),
                "auth_fail",
            ),
        ],
        ids=["replayed", "forged"],
    )
    def test_rejected_ack_changes_no_record(self, attack, outcome):
        honest = run_scenario(ack_anchoring_spec([]))
        report = run_scenario(ack_anchoring_spec([attack]))
        assert outcomes(report.slots[ACK_SLOT], V2P) == ["accepted", outcome]
        assert records(report) == records(honest)
        assert report.summary["verdict"] == "pass"

    def test_tampered_ack_is_as_good_as_deleted(self):
        """The ACK's frame is lost, and nothing in its altered bytes is read."""
        modified = run_scenario(
            ack_anchoring_spec([on_ack_path("MODIFY", byte_offset=40, xor_mask=0xFF)])
        )
        deleted = run_scenario(ack_anchoring_spec([on_ack_path("DELETE")]))
        honest = run_scenario(ack_anchoring_spec([]))
        assert outcomes(modified.slots[ACK_SLOT], V2P) == ["auth_fail"]
        assert records(modified) == records(deleted) != records(honest)
        assert modified.summary["verdict"] == "pass"

    def test_reflected_record_is_not_an_ack(self):
        """Under a shared key, the up-link's record of the slot before, sent back
        down the ACK path, is rejected before its payload is read."""
        honest = run_scenario(ack_anchoring_spec([], shared_key=True))
        (record,) = sent_bytes(honest, honest.slots[ACK_SLOT - 1], P2V)
        attack = on_ack_path("INSERT", raw_hex=record.hex())
        report = run_scenario(ack_anchoring_spec([attack], shared_key=True))
        assert outcomes(report.slots[ACK_SLOT], V2P) == ["accepted", "wrong_direction"]
        assert records(report) == records(honest)
        assert report.summary["verdict"] == "pass"
