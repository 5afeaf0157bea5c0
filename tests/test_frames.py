"""Wire format: golden vectors, tag-first decoding, timing and replay checks, payload codecs."""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import manual_blake2s, manual_tag
import twinsync
from twinsync import frames
from twinsync.frames import (
    HEADER_STRUCT,
    MAGIC,
    MAX_RECORD_INPUTS,
    MIN_FRAME_LEN,
    Frame,
    MalformedPayload,
    MsgType,
    PayloadTooLarge,
    U64_MAX,
    VERSION,
    decode_ack_payload,
    decode_command_payload,
    decode_delta_payload,
    decode_frame,
    encode_ack_payload,
    encode_command_payload,
    encode_delta_payload,
    encode_frame,
    splice_payload,
)
from twinsync.sync import CommandRecord, DeltaRecord, Refusal
from twinsync.vectors import GOLDEN_VECTORS, golden_frame_bytes

ANY_SLOT = U64_MAX  # as the newest arrivable slot, no frame is from the future
NOT_LATE = 0  # as the arrival slot minus the latency, no frame is late

# Frozen canonical encodings. Computed once with an independent BLAKE2s
# (see manual_blake2s) and pinned; the encoder must reproduce them byte for
# byte forever.  Wire version 2 re-pinned them once, when the header lost its
# u64 seq, wire version 3 once more, when keyed BLAKE2s-256 replaced
# HMAC-SHA-256 as the tag, and wire version 4 once more, when records
# stopped stating their input count and a COMMAND put its `acked` first.
GOLDEN_HEX = (
    "4454040000000000000000000000000000000000000000000000f3fc34bb4ddf"
    "125c45b3d27d2bc903ccf2adb027ae46387958d4e314d7ced229",
    "4454040100000001000000000000000100000000000000040018000000000000"
    "006400000001000000010000000100000001f4520c80421bc9c08c344e8f1c2b"
    "895e0513cc0551cc6d7ff64523e4559149ef",
    "4454040200000002000000000000000100000000000000090010000000000000"
    "00090000000100000002357bf81c373950dfe99991b4cc4675b8397814467f24"
    "847276c34f01e8630607",
)


def rfc7693_selftest_seq(length: int, seed: int) -> bytes:
    """RFC 7693 Appendix E's deterministic byte sequence (a Fibonacci generator)."""
    a, b, out = 0xDEAD4BAD * seed & 0xFFFF_FFFF, 1, bytearray()
    for _ in range(length):
        a, b = b, (a + b) & 0xFFFF_FFFF
        out.append(b >> 24)
    return bytes(out)


class TestBlake2sReference:
    """The independent BLAKE2s agrees with RFC 7693's published values."""

    def test_empty_message(self):
        assert manual_blake2s(b"").hex() == (
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        )

    def test_abc(self):
        """RFC 7693 Appendix B."""
        assert manual_blake2s(b"abc").hex() == (
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        )

    def test_appendix_e_self_test(self):
        """The grand hash over unkeyed and keyed digests of 16, 20, 28 and 32
        bytes, each keyed with a key of its digest's length, of inputs from
        empty to 1,024 bytes: one block, two, and partial last blocks."""
        outputs = b""
        for digest_size in (16, 20, 28, 32):
            key = rfc7693_selftest_seq(digest_size, digest_size)
            for length in (0, 3, 64, 65, 255, 1024):
                data = rfc7693_selftest_seq(length, length)
                outputs += manual_blake2s(data, digest_size=digest_size)
                outputs += manual_blake2s(data, key, digest_size)
        assert manual_blake2s(outputs).hex() == (
            "6a411f08ce25adcdfb02aba641451cec53c598b24f4fc787fbdc88797f4c1dfe"
        )


class TestTag:
    """frames._tag, resumed from a cached keyed state, is keyed BLAKE2s-256."""

    def test_a_key_longer_than_32_bytes_is_hashed_first(self):
        for key in (bytes(range(33)), b"\xaa" * 100):
            body = b"a body the long key tags"
            assert frames._tag(key, body) == manual_blake2s(body, manual_blake2s(key))
            assert frames._tag(key, body) != frames._tag(key[:32], body)

    @given(
        keys=st.lists(
            (st.sampled_from([31, 32, 33]) | st.integers(min_value=1, max_value=100)).flatmap(
                lambda n: st.binary(min_size=n, max_size=n)
            ),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        bodies=st.lists(st.binary(max_size=300), min_size=4, max_size=8),
    )
    def test_matches_reference_with_alternating_keys(self, keys, bodies):
        """Each key is used at least twice, so a cached state updated in place shows."""
        for i, body in enumerate(bodies):
            key = keys[i % 2]
            assert frames._tag(key, body) == manual_tag(key, body)


class TestGoldenVectors:
    def test_encodings_are_pinned(self):
        assert [f.hex() for f in golden_frame_bytes()] == list(GOLDEN_HEX)

    def test_tags_match_independent_construction(self):
        for vector, data in zip(GOLDEN_VECTORS, golden_frame_bytes()):
            body, tag = data[:-32], data[-32:]
            assert tag == manual_tag(vector.key, body)

    def test_a_version_2_frame_fails_authentication(self):
        """Vector 2 as wire version 2 sent it, tagged with HMAC-SHA-256 under
        the same key: its tag is checked first, so it is refused as not
        authentic, not as a frame of an unsupported version.  Its body is
        today's but for the version, the payload length and the u16 input
        count its delta stated."""
        data = bytes.fromhex(
            "445402010000000100000000000000010000000000000004001a000000000000"
            "006400040000000100000001000000010000000100344933fdd7a733a18345d5"
            "7407ad1097bff89ff7df3c059236b7d975e25957"
        )
        key = GOLDEN_VECTORS[1].key
        out = decode_frame(data, key, 1, -1, 1, (MsgType.STATE_SYNC,), ANY_SLOT, NOT_LATE)
        assert isinstance(out, Refusal)
        assert (out.outcome, out.detail["reason"]) == ("auth_fail", "tag mismatch")
        current = golden_frame_bytes()[1]
        assert data[:-32] == (
            current[:2] + b"\x02" + current[3:24] + b"\x00\x1a" + current[26:34] + b"\x00\x04"
            + current[34:-32]
        )

    def test_minimum_frame_is_58_bytes(self):
        assert MIN_FRAME_LEN == 58
        assert len(bytes.fromhex(GOLDEN_HEX[0])) == 58

    def test_bundled_vector_file_matches(self):
        from twinsync.scenario import fixture_path
        from twinsync.vectors import verify_golden_vectors

        assert verify_golden_vectors(str(fixture_path("golden_frames.hex"))) == 3

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["", GOLDEN_HEX[0], "zz", GOLDEN_HEX[2]], "line 3: not valid hex"),
            (["", "", *GOLDEN_HEX[:2]], "line 5: expected 3 frames, file has 2"),
            ([*GOLDEN_HEX, GOLDEN_HEX[0]], "line 5: expected 3 frames, file has 4"),
            ([], "line 1: expected 3 frames, file has 0"),
        ],
        ids=["not_hex", "one_missing", "one_extra", "empty"],
    )
    def test_a_bad_vector_file_names_its_line(self, tmp_path, lines, message):
        """The file line a mismatch is found at, blank lines counted: past
        the last frame when the count differs."""
        from twinsync.vectors import VectorMismatch, verify_golden_vectors

        path = tmp_path / "frames.hex"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(VectorMismatch) as exc:
            verify_golden_vectors(str(path))
        assert str(exc.value).startswith(message)

    def test_zero_field_frame_is_not_a_protocol_frame(self):
        """Vector 1 pins layout and tag only; msg_type 0 never decodes to a Frame."""
        data = bytes.fromhex(GOLDEN_HEX[0])
        out = decode_frame(data, bytes(32), 0, -1, 0, (0,), ANY_SLOT, NOT_LATE)
        assert isinstance(out, Refusal)
        assert out.outcome == "malformed"
        assert "msg_type" in out.detail["reason"]


class TestDecode:
    def setup_method(self):
        self.key = bytes(range(32))
        self.frame = Frame(
            msg_type=MsgType.STATE_SYNC,
            sender_id=1,
            session_id=1,
            slot=4,
            payload=encode_delta_payload(DeltaRecord(0, 100, (1, 1, 1, 1), 4)),
        )
        self.data = encode_frame(self.frame, self.key)

    def _decode(self, data, key=None):
        """Decode on a fresh link of this frame's own session, sender and type."""
        link = (self.frame.session_id, -1, self.frame.sender_id, (self.frame.msg_type,))
        return decode_frame(data, key or self.key, *link, ANY_SLOT, NOT_LATE)

    def test_round_trip(self):
        out = self._decode(self.data)
        assert out == self.frame

    def test_short_frame_is_malformed(self):
        out = self._decode(self.data[: MIN_FRAME_LEN - 1])
        assert isinstance(out, Refusal)
        assert out.outcome == "malformed"

    def test_empty_frame_is_malformed(self):
        out = self._decode(b"")
        assert isinstance(out, Refusal)
        assert out.outcome == "malformed"

    def test_wrong_key_fails_authentication(self):
        out = self._decode(self.data, bytes(32))
        assert isinstance(out, Refusal)
        assert out.outcome == "auth_fail"

    @pytest.mark.parametrize("offset", [0, 2, 3, 16, 25, 26, 33, 34, 59, 91])
    @pytest.mark.parametrize("bit", [0, 7])
    def test_any_flipped_bit_fails_authentication(self, offset, bit):
        """Tag is checked first, so corruption is auth failure, not a parse
        error: in the header, at its last byte 25, in the payload from byte
        26, and in the tag, bytes 62-93 for a seven-input delta."""
        payload = encode_delta_payload(DeltaRecord(0, 100, (1,) * 7, 4))
        data = encode_frame(dataclasses.replace(self.frame, payload=payload), self.key)
        assert len(data) == 94
        corrupted = bytearray(data)
        corrupted[offset] ^= 1 << bit
        out = self._decode(bytes(corrupted))
        assert isinstance(out, Refusal)
        assert out.outcome == "auth_fail"

    def test_authentic_bad_magic_is_malformed(self):
        body = HEADER_STRUCT.pack(b"XX", VERSION, 1, 1, 1, 4, 0)
        data = body + manual_tag(self.key, body)
        out = self._decode(data)
        assert isinstance(out, Refusal)
        assert out.outcome == "malformed"
        assert out.detail["reason"] == "bad magic"

    def test_authentic_bad_version_is_malformed(self):
        """Version 1, whose header still carried a seq, version 2, tagged
        with HMAC-SHA-256, and version 3, whose records stated their input
        count, are no longer accepted."""
        for version in (1, 2, 3):
            body = HEADER_STRUCT.pack(MAGIC, version, 1, 1, 1, 4, 0)
            out = self._decode(body + manual_tag(self.key, body))
            assert isinstance(out, Refusal)
            assert out.outcome == "malformed"
            assert out.detail["reason"] == f"unsupported version {version}"

    def test_authentic_length_field_mismatch_is_malformed(self):
        body = HEADER_STRUCT.pack(MAGIC, VERSION, 1, 1, 1, 4, 5) + b"abc"
        data = body + manual_tag(self.key, body)
        out = self._decode(data)
        assert isinstance(out, Refusal)
        assert out.outcome == "malformed"
        assert "payload_len" in out.detail["reason"]

    def test_error_reports_carry_claimed_header_fields(self):
        out = self._decode(self.data, bytes(32))
        assert isinstance(out, Refusal)
        assert out.detail["claimed_slot"] == 4


@dataclasses.dataclass
class Receiver:
    """A link's receiving end as the runner keeps it: its one session and
    `highest`, the newest slot it accepted, which it moves on each accept."""

    key: bytes
    sender_id: int = 1
    session_id: int = 1
    highest: int = -1

    def receive(
        self, data: bytes, newest: int = ANY_SLOT, horizon: int = NOT_LATE
    ) -> Frame | Refusal:
        link = (self.session_id, self.highest, self.sender_id, (MsgType.ACK,), newest, horizon)
        out = decode_frame(data, self.key, *link)
        if isinstance(out, Frame):
            self.highest = out.slot
        return out


class TestReplayProtection:
    """The slot is the sequence number: a link refuses one at or before its newest accepted."""

    def setup_method(self):
        self.key = b"\x07" * 32
        self.link = Receiver(self.key)

    def _frame(self, slot, session=1, sender=1):
        return encode_frame(
            Frame(MsgType.ACK, sender, session, slot, payload=encode_ack_payload(0)), self.key
        )

    def _decode(self, data, newest=ANY_SLOT, horizon=NOT_LATE):
        return self.link.receive(data, newest, horizon)

    def test_duplicate_delivery_is_replay(self):
        data = self._frame(slot=1)
        assert isinstance(self._decode(data), Frame)
        out = self._decode(data)
        assert isinstance(out, Refusal)
        assert out.outcome == "replay"

    def test_stale_seq_is_replay(self):
        """A slot at or below the newest accepted one is stale."""
        assert isinstance(self._decode(self._frame(slot=5)), Frame)
        out = self._decode(self._frame(slot=3))
        assert isinstance(out, Refusal)
        assert out.outcome == "replay"
        assert out.detail["reason"] == "(session, slot) (1, 3) not after (1, 5)"

    def test_gaps_are_tolerated(self):
        assert isinstance(self._decode(self._frame(slot=1)), Frame)
        assert isinstance(self._decode(self._frame(slot=9)), Frame)

    def test_slot_zero_is_accepted_once(self):
        """The first emission is at slot 0, so a fresh link's -1 is below it."""
        assert isinstance(self._decode(self._frame(slot=0)), Frame)
        out = self._decode(self._frame(slot=0))
        assert isinstance(out, Refusal)
        assert out.outcome == "replay"

    def test_a_newer_session_is_refused_as_future(self):
        """A link's session is fixed for the run, as an IPsec SA's window is:
        a key holder's frame of a later session is no honest sender's, so it
        is refused as from the future, at any slot, and the link's own session
        carries on from its newest accepted slot."""
        assert isinstance(self._decode(self._frame(slot=5, session=1)), Frame)
        for slot in (1, 5, 6):
            out = self._decode(self._frame(slot=slot, session=2))
            assert isinstance(out, Refusal)
            assert (out.outcome, out.detail["claimed_slot"]) == ("future", slot)
            assert out.detail["reason"] == "session 2 later than the link's 1"
        assert self.link.highest == 5
        assert isinstance(self._decode(self._frame(slot=6, session=1)), Frame)

    def test_older_session_is_replay(self):
        self.link.session_id = 2
        assert isinstance(self._decode(self._frame(slot=1, session=2)), Frame)
        out = self._decode(self._frame(slot=9, session=1))
        assert isinstance(out, Refusal)
        assert out.outcome == "replay"
        assert out.detail["reason"] == "(session, slot) (1, 9) not after (2, 1)"

    def test_an_older_session_is_replay_on_a_fresh_link(self):
        """A slot the link has not accepted does not make another session's frame current."""
        self.link.session_id = 2
        out = self._decode(self._frame(slot=0, session=1))
        assert (out.outcome, out.detail["reason"]) == (
            "replay",
            "(session, slot) (1, 0) not after (2, -1)",
        )
        assert isinstance(self._decode(self._frame(slot=0, session=2)), Frame)

    def test_senders_are_tracked_independently(self):
        """Each link has one sender and its own newest slot, so slot 1 is new on both."""
        other_link = Receiver(self.key, sender_id=2)
        second = self._frame(slot=1, sender=2)
        assert isinstance(self._decode(self._frame(slot=1)), Frame)
        assert isinstance(other_link.receive(second), Frame)
        out = other_link.receive(second)
        assert out.outcome == "replay"
        assert (self.link.session_id, self.link.highest) == (1, 1)

    def test_tracker_not_advanced_by_rejected_frames(self):
        corrupted = bytearray(self._frame(slot=3))
        corrupted[-1] ^= 0x01
        self._decode(bytes(corrupted))
        assert isinstance(self._decode(self._frame(slot=1)), Frame)
        assert isinstance(self._decode(self._frame(slot=3)), Frame)

    def test_a_frame_from_the_future_is_refused(self):
        """A slot later than the newest sync boundary an honest frame can
        carry is no honest sender's; it is refused, so the link's newest slot
        does not move and the frames that follow it are still accepted."""
        out = self._decode(self._frame(slot=1000), newest=4)
        assert isinstance(out, Refusal)
        assert (out.outcome, out.detail["claimed_slot"]) == ("future", 1000)
        assert out.detail["reason"] == (
            "slot 1000 later than 4, the newest sync boundary an honest frame can carry"
        )
        assert self.link.highest == -1
        assert isinstance(self._decode(self._frame(slot=4), newest=4), Frame)
        assert self._decode(self._frame(slot=5), newest=4).outcome == "future"
        assert isinstance(self._decode(self._frame(slot=5), newest=5), Frame)

    def test_timing_is_checked_before_the_window(self):
        """A frame both stale and from the future is refused as the latter."""
        assert isinstance(self._decode(self._frame(slot=5)), Frame)
        out = self._decode(self._frame(slot=3), newest=2)
        assert out.outcome == "future"

    def test_a_late_frame_is_refused(self):
        """The channel has no jitter, so an honest frame carries exactly the
        arrival slot minus the latency; one stamped earlier was held back.
        It is refused however much newer than `highest` it is, and the link's
        newest slot does not move."""
        out = self._decode(self._frame(slot=4), newest=6, horizon=7)
        assert isinstance(out, Refusal)
        assert (out.outcome, out.detail["claimed_slot"]) == ("late", 4)
        assert out.detail["reason"] == "slot 4 earlier than 7, arrival slot less latency"
        assert self.link.highest == -1
        assert isinstance(self._decode(self._frame(slot=6), newest=6, horizon=6), Frame)
        # Once the link has passed it, the same frame is stale first.
        assert self._decode(self._frame(slot=4), newest=6, horizon=7).outcome == "replay"


@settings(derandomize=True, max_examples=300)
@given(
    session=st.integers(0, 3) | st.integers(0, U64_MAX),
    slot=st.integers(0, 8) | st.integers(0, U64_MAX),
    session_id=st.integers(0, 3) | st.integers(0, U64_MAX),
    highest=st.integers(-1, 8) | st.integers(-1, U64_MAX),
    newest=st.integers(-4, 8) | st.integers(-4, U64_MAX),
    horizon=st.integers(-4, 8) | st.integers(-4, U64_MAX),
)
def test_decode_frame_accepts_exactly_the_links_session_after_highest(
    session, slot, session_id, highest, newest, horizon
):
    """A frame tagged with the link key, of any session and slot, on a link
    of any (session_id, highest, newest, horizon): accepted exactly when it
    is of the link's session and highest < slot and horizon <= slot <=
    newest, refused as `future` when it is of a later session or slot, as
    `replay` when its (session, slot) is not after the link's, as `late`
    otherwise, and the same on a second call, since decode_frame keeps no
    state."""
    key = bytes(range(32))
    frame = Frame(MsgType.ACK, 2, session, slot, encode_ack_payload(0))
    data = encode_frame(frame, key)
    link = (session_id, highest, 2, (MsgType.ACK,), newest, horizon)
    out = decode_frame(data, key, *link)
    assert out == decode_frame(data, key, *link)
    if session == session_id and highest < slot and horizon <= slot <= newest:
        assert out == frame
    else:
        assert isinstance(out, Refusal)
        if slot > newest or session > session_id:
            assert out.outcome == "future"
        elif (session, slot) <= (session_id, highest):
            assert out.outcome == "replay"
        else:
            assert out.outcome == "late"


class TestLinkBinding:
    """A link accepts only its sender's id and message types, checked before timing and replay."""

    def setup_method(self):
        self.key = b"\x07" * 32
        # An ACK of sender 2, as the virtual twin sends on virt_to_phys.
        self.ack = encode_frame(Frame(MsgType.ACK, 2, 1, 3, encode_ack_payload(0)), self.key)

    def _decode(self, key, sender, msg_types, newest=ANY_SLOT, highest=-1):
        return decode_frame(self.ack, key, 1, highest, sender, msg_types, newest, NOT_LATE)

    def test_other_sender_is_wrong_direction(self):
        out = self._decode(self.key, 1, (MsgType.ACK,))
        assert isinstance(out, Refusal)
        assert out.outcome == "wrong_direction"
        assert (out.detail["reason"], out.detail["claimed_slot"]) == ("wrong direction", 3)

    def test_other_message_type_is_wrong_direction(self):
        out = self._decode(self.key, 2, (MsgType.STATE_SYNC,))
        assert isinstance(out, Refusal)
        assert out.outcome == "wrong_direction"

    def test_wrong_direction_leaves_the_window_unchanged(self):
        """The same bytes rejected twice on the wrong link still decode for their own sender."""
        for _ in range(2):
            out = self._decode(self.key, 1, (MsgType.STATE_SYNC,))
            assert out.outcome == "wrong_direction"
        assert isinstance(self._decode(self.key, 2, (MsgType.ACK,)), Frame)

    def test_direction_is_checked_before_the_window(self):
        """Once slot 3 is accepted, the frame on the wrong link is named for its direction."""
        assert isinstance(self._decode(self.key, 2, (MsgType.ACK,)), Frame)
        out = self._decode(self.key, 1, (MsgType.ACK,), highest=3)
        assert out.outcome == "wrong_direction"

    def test_direction_is_checked_before_the_timing(self):
        """A reflected frame is named for its direction even when it is also early."""
        out = self._decode(self.key, 1, (MsgType.ACK,), newest=2)
        assert out.outcome == "wrong_direction"

    def test_tag_is_checked_before_direction(self):
        out = self._decode(bytes(32), 1, (MsgType.STATE_SYNC,))
        assert out.outcome == "auth_fail"


HEADER_NAMES = {"HEADER_STRUCT", "MAGIC", "VERSION", "HEADER_LEN"}


def test_only_frames_py_imports_the_header_layout():
    """Every header is packed and read in frames.py, so no other module needs its layout."""
    offenders = []
    for path in sorted(Path(twinsync.__file__).parent.glob("*.py")):
        if path.name == "frames.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = HEADER_NAMES & {alias.name for alias in node.names}
                offenders += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert offenders == []


def test_frame_body_is_the_one_header_pack():
    """Sent frames and forgeries share one header layout only while one function packs it."""
    packs = []
    for path in sorted(Path(twinsync.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "pack"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "HEADER_STRUCT"
                ):
                    packs.append((path.name, getattr(stmt, "name", "<module>")))
    assert packs == [("frames.py", "frame_body")]


def test_splice_keeps_the_header_bytes_and_declares_the_new_length():
    """Bytes 0-23 are copied, not re-packed: a flipped magic and version stay flipped."""
    data = bytearray(encode_frame(Frame(MsgType.ACK, 2, 5, 7, encode_ack_payload(3)), bytes(32)))
    data[0] ^= 0xFF
    data[2] ^= 0x80
    out = splice_payload(bytes(data), b"\x01\x02\x03")
    assert out[:24] == data[:24]
    assert out[24:] == b"\x00\x03\x01\x02\x03"


def test_each_frame_is_tagged_once_through_frames_tag(monkeypatch):
    """The bench times the tag by rebinding frames._tag; every tag must go through it."""
    real, calls = frames._tag, []

    def counting(key: bytes, body: bytes) -> bytes:
        calls.append(len(body))
        return real(key, body)

    monkeypatch.setattr(frames, "_tag", counting)
    key = bytes(range(32))
    data = encode_frame(Frame(MsgType.ACK, 2, 1, 0, encode_ack_payload(0)), key)
    assert calls == [len(data) - 32]
    for junk in (b"", bytes(MIN_FRAME_LEN - 1)):
        decode_frame(junk, key, 1, -1, 2, (MsgType.ACK,), ANY_SLOT, NOT_LATE)
    assert len(calls) == 1
    for frame in (bytes(MIN_FRAME_LEN), data, data):
        decode_frame(frame, key, 1, -1, 2, (MsgType.ACK,), ANY_SLOT, NOT_LATE)
    assert calls == [len(data) - 32, MIN_FRAME_LEN - 32, len(data) - 32, len(data) - 32]


HASH_CALLS = {
    ("hmac", "new"),
    ("hmac", "digest"),
    ("hashlib", "sha256"),
    ("hashlib", "new"),
    ("hashlib", "blake2s"),
}


def test_only_tag_and_its_key_cache_hash():
    """frames.hmac in the bench is the time spent in _tag; no hashing may bypass it."""
    tree = ast.parse(Path(frames.__file__).read_text())
    found = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module in ("hmac", "hashlib"):
                found.append((owner, f"from {node.module} import"))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in HASH_CALLS
            ):
                found.append((owner, f"{node.value.id}.{node.attr}"))
    assert found and {owner for owner, _ in found} <= {"_tag", "_keyed"}, found


def test_decode_frame_keeps_no_state():
    """decode_frame is a pure check: the link's session and newest accepted
    slot are its arguments, and only their owner moves them.  It assigns or
    deletes no attribute or item and declares no global, so no window state
    can come back inside it unseen."""
    tree = ast.parse(Path(frames.__file__).read_text())
    (function,) = [
        stmt for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "decode_frame"
    ]
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(function)
        if isinstance(node, (ast.Global, ast.Nonlocal))
        or isinstance(node, (ast.Attribute, ast.Subscript))
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    assert found == []


class TestPayloadCodecs:
    def test_four_input_delta_payload_layout(self):
        payload = encode_delta_payload(DeltaRecord(0, 100, (1, 1, 1, 1), slot=4))
        assert len(payload) == 24
        assert payload.hex() == "0000000000000064" + "00000001" * 4

    def test_both_record_codecs_hold_the_same_number_of_inputs(self):
        """Either record is 8 bytes and a u32 per input, so a frame holds
        MAX_RECORD_INPUTS of either, and `encode_frame` refuses one more."""
        n = MAX_RECORD_INPUTS
        assert n == 16_381
        for count, fits in ((n, True), (n + 1, False)):
            payloads = {
                MsgType.STATE_SYNC: encode_delta_payload(DeltaRecord(0, 1, (1,) * count, 0)),
                MsgType.COMMAND: encode_command_payload(CommandRecord((1,) * count, 0)),
            }
            for msg_type, payload in payloads.items():
                assert len(payload) == 8 + 4 * count
                frame = Frame(msg_type, 1, 1, 0, payload)
                if fits:
                    assert len(encode_frame(frame, bytes(32))) == MIN_FRAME_LEN + len(payload)
                else:
                    with pytest.raises(PayloadTooLarge):
                        encode_frame(frame, bytes(32))

    def test_heartbeat_delta_payload_is_eight_bytes(self):
        payload = encode_delta_payload(DeltaRecord(100, 100, (), slot=7))
        assert payload.hex() == "0000006400000064"

    def test_delta_round_trip(self):
        record = DeltaRecord(0, 100, (1, 2, 1), slot=11)
        assert decode_delta_payload(encode_delta_payload(record), slot=11) == record

    def test_truncated_delta_payload(self):
        """A delta cut inside its last input."""
        payload = encode_delta_payload(DeltaRecord(0, 100, (1, 1, 1, 1), slot=4))
        with pytest.raises(MalformedPayload, match="23 bytes"):
            decode_delta_payload(payload[:23], slot=4)

    def test_delta_payload_shorter_than_header(self):
        with pytest.raises(MalformedPayload, match="4 bytes"):
            decode_delta_payload(b"\x00" * 4, slot=0)

    def test_delta_count_must_match_length(self):
        """The input count is the length's: three inputs and half of a fourth
        is no count at all."""
        bad = bytes.fromhex("0000000000000064" + "00000001" * 3 + "0001")
        with pytest.raises(MalformedPayload, match="22 bytes"):
            decode_delta_payload(bad, slot=4)

    def test_two_input_command_payload_layout(self):
        payload = encode_command_payload(CommandRecord(inputs=(1, 2), acked=9))
        assert len(payload) == 16
        assert payload.hex() == "0000000000000009" + "00000001" + "00000002"

    def test_command_round_trip(self):
        record = CommandRecord(inputs=(2,), acked=3)
        assert decode_command_payload(encode_command_payload(record)) == record

    def test_empty_command_cannot_be_encoded(self):
        with pytest.raises(ValueError):
            encode_command_payload(CommandRecord(inputs=(), acked=1))

    def test_zero_count_command_payload_rejected(self):
        """An acknowledgement with no inputs is an ACK's payload, not a COMMAND's."""
        with pytest.raises(MalformedPayload):
            decode_command_payload(bytes.fromhex("0000000000000001"))

    @pytest.mark.parametrize("data", [b"", b"\x00"])
    def test_command_payload_shorter_than_its_count_is_truncated(self, data):
        """Too short to hold even `acked`."""
        with pytest.raises(MalformedPayload, match=f"of {len(data)} bytes"):
            decode_command_payload(data)

    def test_command_count_must_match_length(self):
        """One input and half of a second: the length gives no whole count."""
        with pytest.raises(MalformedPayload, match="14 bytes"):
            decode_command_payload(bytes.fromhex("0000000000000009" + "00000001" + "0002"))

    @settings(derandomize=True, max_examples=400)
    @given(data=st.binary(max_size=40) | st.lists(st.binary(min_size=4, max_size=4)).map(b"".join))
    def test_a_record_payload_decodes_exactly_when_its_length_fits(self, data):
        """No record states its input count: the length alone decides.  A
        delta is 8 bytes and a u32 per input, a COMMAND the same with at
        least one input; any other length is malformed, and whatever decodes
        encodes back to the same bytes."""
        size = len(data)
        if size < 8 or size % 4:
            with pytest.raises(MalformedPayload):
                decode_delta_payload(data, slot=0)
        else:
            assert encode_delta_payload(decode_delta_payload(data, slot=0)) == data
        if size < 12 or size % 4:
            with pytest.raises(MalformedPayload):
                decode_command_payload(data)
        else:
            assert encode_command_payload(decode_command_payload(data)) == data

    def test_ack_payload(self):
        assert encode_ack_payload(3).hex() == "0000000000000003"
        assert decode_ack_payload(encode_ack_payload(3)) == 3

    def test_ack_payload_wrong_size(self):
        with pytest.raises(MalformedPayload):
            decode_ack_payload(b"\x00" * 7)

    def test_oversized_payload_rejected_at_encode(self):
        frame = Frame(MsgType.STATE_SYNC, 1, 1, 1, payload=b"\x00" * 65536)
        with pytest.raises(PayloadTooLarge):
            encode_frame(frame, bytes(32))


@given(
    msg_type=st.sampled_from([MsgType.STATE_SYNC, MsgType.COMMAND, MsgType.ACK]),
    sender_id=st.integers(min_value=0, max_value=2**32 - 1),
    session_id=st.integers(min_value=0, max_value=2**64 - 1),
    slot=st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=80),
    key=st.binary(min_size=1, max_size=48),
)
def test_encode_decode_round_trip(msg_type, sender_id, session_id, slot, payload, key):
    frame = Frame(msg_type, sender_id, session_id, slot, payload)
    link = (session_id, -1, sender_id, (msg_type,), slot, slot)
    out = decode_frame(encode_frame(frame, key), key, *link)
    assert out == frame
