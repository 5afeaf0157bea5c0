"""Adversary capture log and the four attack primitives.

An action whose target is absent, a scheduling mistake or a frame lost on
the way, leaves its batch unchanged and is recorded as not found.
"""

from twinsync.adversary import (
    Adversary,
    AttackAction,
    AttackKind,
    forge_frame_bytes,
)
from twinsync.frames import (
    HEADER_LEN,
    MIN_FRAME_LEN,
    U64_MAX,
    Frame,
    MsgType,
    decode_frame,
    encode_ack_payload,
    encode_frame,
)
from twinsync.netsim import Direction, SplitMix64
from twinsync.sync import Refusal

KEY = b"\x11" * 32
P2V = Direction.PHYS_TO_VIRT
V2P = Direction.VIRT_TO_PHYS


def frame_bytes(slot: int, payload: bytes = b"") -> bytes:
    return encode_frame(Frame(MsgType.STATE_SYNC, 1, 1, slot, payload=payload), KEY)


def decode(data: bytes, msg_type: MsgType) -> Frame | Refusal:
    """`data` as a fresh session-1 link of sender 1's `msg_type` decodes it,
    none of it from the future or late."""
    return decode_frame(data, KEY, 1, -1, 1, (msg_type,), U64_MAX, 0)


def adversary(*actions: AttackAction) -> Adversary:
    return Adversary(list(actions), SplitMix64(7))


class TestCaptureLog:
    def test_only_frames_a_replay_names_are_captured(self):
        adv = adversary(
            AttackAction(AttackKind.REPLAY, 5, P2V, {"capture_slot": 2, "capture_index": 1}),
            AttackAction(AttackKind.REPLAY, 5, V2P, {"capture_slot": 2}),
            AttackAction(AttackKind.REPLAY, 5, V2P, {"capture_slot": 3, "capture_index": 4}),
        )
        adv.intercept(1, P2V, [b"x"])
        adv.intercept(2, P2V, [b"a", b"b"])
        adv.intercept(2, V2P, [b"c", b"d"])
        adv.intercept(3, V2P, [b"e"])
        assert adv.captures == {(2, P2V, 1): b"b", (2, V2P, 0): b"c"}

    def test_batch_is_handed_back_as_is_and_never_mutated(self):
        adv = adversary(
            AttackAction(AttackKind.DELETE, 4, P2V),
            AttackAction(AttackKind.REPLAY, 6, P2V, {"capture_slot": 4, "capture_index": 1}),
        )
        batch = [b"a", b"b"]
        assert adv.intercept(3, P2V, batch) is batch
        assert adv.intercept(4, P2V, batch) == [b"b"]
        assert batch == [b"a", b"b"]
        assert adv.captures[(4, P2V, 1)] == b"b"

    def test_a_slot_no_action_or_capture_names_is_handed_back_untouched(self):
        adv = adversary(
            AttackAction(AttackKind.DELETE, 4, P2V),
            AttackAction(AttackKind.REPLAY, 6, V2P, {"capture_slot": 2}),
        )
        for slot in (0, 1, 3, 5, 7):
            for direction in (P2V, V2P):
                batch = [b"a", b"b"]
                assert adv.intercept(slot, direction, batch) is batch
                assert batch == [b"a", b"b"]
        assert adv.applied == []
        assert adv.captures == {}


class TestDelete:
    def test_removes_first_due_frame_by_default(self):
        adv = adversary(AttackAction(AttackKind.DELETE, 4, P2V))
        assert adv.intercept(4, P2V, [b"a", b"b"]) == [b"b"]

    def test_removes_by_index(self):
        adv = adversary(AttackAction(AttackKind.DELETE, 4, P2V, {"index": 1}))
        assert adv.intercept(4, P2V, [b"a", b"b"]) == [b"a"]

    def test_untouched_on_other_slots_and_directions(self):
        adv = adversary(AttackAction(AttackKind.DELETE, 4, P2V))
        assert adv.intercept(3, P2V, [b"a"]) == [b"a"]
        assert adv.intercept(4, V2P, [b"a"]) == [b"a"]

    def test_no_due_frame_is_an_authoring_error(self):
        action = AttackAction(AttackKind.DELETE, 4, P2V)
        adv = adversary(action)
        assert adv.intercept(4, P2V, []) == []
        assert adv.applied == [(action, False)]

    def test_index_past_the_batch_has_no_target(self):
        action = AttackAction(AttackKind.DELETE, 4, P2V, {"index": 2**70})
        adv = adversary(action)
        assert adv.intercept(4, P2V, [b"a"]) == [b"a"]
        assert adv.applied == [(action, False)]

    def test_deleted_frame_was_still_captured(self):
        adv = adversary(
            AttackAction(AttackKind.DELETE, 4, P2V),
            AttackAction(AttackKind.REPLAY, 6, P2V, {"capture_slot": 4}),
        )
        adv.intercept(4, P2V, [b"gone"])
        assert adv.captures[(4, P2V, 0)] == b"gone"
        assert adv.intercept(6, P2V, []) == [b"gone"]


class TestModify:
    def test_xor_flips_exactly_one_byte(self):
        data = frame_bytes(slot=1)
        adv = adversary(
            AttackAction(AttackKind.MODIFY, 4, P2V, {"byte_offset": 24, "xor_mask": 1})
        )
        (out,) = adv.intercept(4, P2V, [data])
        assert out != data
        assert len(out) == len(data)
        diff = [i for i, (a, b) in enumerate(zip(out, data)) if a != b]
        assert diff == [24]
        assert out[24] == data[24] ^ 1

    def test_modified_frame_fails_authentication(self):
        data = frame_bytes(slot=1)
        adv = adversary(
            AttackAction(AttackKind.MODIFY, 4, P2V, {"byte_offset": 30, "xor_mask": 0xFF})
        )
        (out,) = adv.intercept(4, P2V, [data])
        decoded = decode(out, MsgType.STATE_SYNC)
        assert isinstance(decoded, Refusal)
        assert decoded.outcome == "auth_fail"

    def test_payload_splice_keeps_the_stale_tag(self):
        data = frame_bytes(slot=1, payload=encode_ack_payload(5))
        adv = adversary(
            AttackAction(AttackKind.MODIFY, 4, P2V, {"payload_hex": "deadbeef"})
        )
        (out,) = adv.intercept(4, P2V, [data])
        assert out[HEADER_LEN:-32] == bytes.fromhex("deadbeef")
        assert out[HEADER_LEN - 2 : HEADER_LEN] == (4).to_bytes(2, "big")
        assert out[-32:] == data[-32:]
        decoded = decode(out, MsgType.STATE_SYNC)
        assert isinstance(decoded, Refusal)
        assert decoded.outcome == "auth_fail"

    def test_offset_outside_frame_is_an_authoring_error(self):
        action = AttackAction(AttackKind.MODIFY, 4, P2V, {"byte_offset": 900, "xor_mask": 1})
        adv = adversary(action)
        data = frame_bytes(slot=1)
        assert adv.intercept(4, P2V, [data]) == [data]
        assert adv.applied == [(action, False)]

    def test_payload_splice_on_a_short_frame_has_no_target(self):
        action = AttackAction(AttackKind.MODIFY, 4, P2V, {"payload_hex": "deadbeef"})
        adv = adversary(action)
        assert adv.intercept(4, P2V, [b"short"]) == [b"short"]
        assert adv.applied == [(action, False)]

    def test_no_due_frame_is_an_authoring_error(self):
        action = AttackAction(AttackKind.MODIFY, 4, P2V, {"byte_offset": 0, "xor_mask": 1})
        adv = adversary(action)
        assert adv.intercept(4, P2V, []) == []
        assert adv.applied == [(action, False)]


class TestInsert:
    def test_raw_hex_is_appended(self):
        adv = adversary(AttackAction(AttackKind.INSERT, 4, P2V, {"raw_hex": "ff00"}))
        assert adv.intercept(4, P2V, [b"a"]) == [b"a", b"\xff\x00"]

    def test_insert_into_empty_slot(self):
        adv = adversary(AttackAction(AttackKind.INSERT, 4, P2V, {"raw_hex": "ff00"}))
        assert adv.intercept(4, P2V, []) == [b"\xff\x00"]

    def test_template_forgery_is_structurally_valid_but_unauthenticated(self):
        """A template's `seq`, which wire version 1 sent, is accepted and ignored."""
        template = {"msg_type": 3, "sender_id": 1, "session_id": 1, "seq": 99,
                    "slot": 4, "payload_hex": encode_ack_payload(1).hex()}
        adv = adversary(AttackAction(AttackKind.INSERT, 4, P2V, {"template": template}))
        (out,) = adv.intercept(4, P2V, [])
        assert len(out) == MIN_FRAME_LEN + 8
        del template["seq"]
        assert out[:-32] == forge_frame_bytes(template, SplitMix64(0))[:-32]
        decoded = decode(out, MsgType.ACK)
        assert isinstance(decoded, Refusal)
        assert (decoded.outcome, decoded.detail["claimed_slot"]) == ("auth_fail", 4)

    def test_forged_tag_is_seed_deterministic(self):
        a = forge_frame_bytes({}, SplitMix64(7))
        b = forge_frame_bytes({}, SplitMix64(7))
        c = forge_frame_bytes({}, SplitMix64(8))
        assert a == b
        assert a[-32:] != c[-32:]


class TestReplay:
    def test_replays_a_captured_frame(self):
        data = frame_bytes(slot=1)
        adv = adversary(
            AttackAction(AttackKind.REPLAY, 6, P2V, {"capture_slot": 4, "capture_index": 0})
        )
        adv.intercept(4, P2V, [data])
        assert adv.intercept(6, P2V, [b"next"]) == [b"next", data]

    def test_same_slot_capture_then_replay(self):
        data = frame_bytes(slot=1)
        adv = adversary(AttackAction(AttackKind.REPLAY, 4, P2V, {"capture_slot": 4}))
        assert adv.intercept(4, P2V, [data]) == [data, data]

    def test_directions_have_separate_capture_spaces(self):
        action = AttackAction(AttackKind.REPLAY, 6, V2P, {"capture_slot": 4})
        adv = adversary(action)
        adv.intercept(4, P2V, [b"only here"])
        assert adv.intercept(6, V2P, []) == []
        assert adv.applied == [(action, False)]

    def test_uncaptured_reference_is_an_authoring_error(self):
        action = AttackAction(AttackKind.REPLAY, 6, P2V, {"capture_slot": 2})
        adv = adversary(action)
        assert adv.intercept(6, P2V, [b"next"]) == [b"next"]
        assert adv.applied == [(action, False)]


class TestScheduling:
    def test_applied_actions_are_recorded_in_order(self):
        first = AttackAction(AttackKind.INSERT, 4, P2V, {"raw_hex": "aa"})
        second = AttackAction(AttackKind.DELETE, 4, P2V, {"index": 0})
        third = AttackAction(AttackKind.DELETE, 4, P2V, {"index": 1})
        adv = adversary(first, second, third)
        out = adv.intercept(4, P2V, [b"x"])
        assert out == [b"\xaa"]
        assert adv.applied == [(first, True), (second, True), (third, False)]

    def test_unapplied_actions_stay_unapplied(self):
        adv = adversary(AttackAction(AttackKind.DELETE, 9, P2V))
        adv.intercept(4, P2V, [b"x"])
        assert adv.applied == []
