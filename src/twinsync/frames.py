"""Authenticated wire format for twin synchronization traffic.

Frame layout, wire version 4, all integers big-endian:

    [0..2)    magic 0x44 0x54
    [2]       version (4)
    [3]       msg_type: 1 STATE_SYNC, 2 COMMAND, 3 ACK
    [4..8)    sender_id  u32
    [8..16)   session_id u64
    [16..24)  slot       u64, the sender's emission slot
    [24..26)  payload_len u16
    [26..26+L)    payload
    [26+L..58+L)  tag = BLAKE2s-256 keyed with key, of bytes[0 .. 26+L)

A payload states no length of its own, as a TCP segment's comes from its
datagram's (RFC 9293 section 3.1): a delta is base and result state, u32
each, a COMMAND `acked`, u64, each then a u32 per input, an ACK `acked`.
This module is the only one that packs or reads a header, and `frame_body`
is the one place a header is packed: `encode_frame` tags what it returns,
the adversary's forgeries append a random tag to it, and `splice_payload`
keeps a captured header's bytes and rewrites only its length.  So
`frame_body` alone checks the u16 payload_len: a record too long for it
raises `PayloadTooLarge` there, and a splice cannot be, since the scenario
schema bounds `payload_hex` to 65,535 bytes.  The tag covers header and
payload, so the shortest valid frame is 58 bytes.  Keyed BLAKE2s (RFC 7693
section 2.5) is a MAC by construction, one hash pass where HMAC takes two;
a key longer than its 32-byte maximum is hashed first, as RFC 2104 hashes a
key longer than its block.
decode_frame decides whether a link accepts a frame, with its checks in this
order: length, tag, structure, the link's sender id and message types,
timing, replay, and last lateness; a frame failing one comes back as a
`sync.Refusal` named for it.  Any bit flipped anywhere in a frame therefore
fails authentication rather than surfacing as a parse error, and structural
checks only ever run on authentic bytes.  decode_frame keeps no state: the
link holds its one session, fixed for the run as an IPsec SA's is (RFC 4303
section 3.4.3), and the newest slot it accepted, which it moves only for a
frame that passed every check.  A link sends one frame per emission slot, so
the slot is its sequence number, derived rather than sent, as TLS 1.3
derives its record numbers (RFC 8446 section 5.3).  Like TCP's receive
window (RFC 9293 section 3.10.7.4), a link cannot run ahead of the present:
a frame of a later session, or stamped later than the newest sync boundary
at or before the arrival slot minus the link's latency, is no honest one,
and the channel has no jitter, so neither is one stamped before that slot.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import struct
from dataclasses import dataclass
from enum import IntEnum

from .sync import CommandRecord, DeltaRecord, Refusal

MAGIC = b"\x44\x54"
VERSION = 4
HEADER_STRUCT = struct.Struct(">2sBBIQQH")
HEADER_LEN = HEADER_STRUCT.size
TAG_LEN = 32
MIN_FRAME_LEN = HEADER_LEN + TAG_LEN
MAX_PAYLOAD_LEN = 0xFFFF

# Largest values of the unsigned wire fields.  The scenario schema states its
# own literal maxima; the tests check those against these.
U8_MAX = 0xFF
U32_MAX = 0xFFFF_FFFF
U64_MAX = 0xFFFF_FFFF_FFFF_FFFF


class MsgType(IntEnum):
    STATE_SYNC = 1
    COMMAND = 2
    ACK = 3


_MSG_TYPES = frozenset(MsgType)


class PayloadTooLarge(ValueError):
    pass


class MalformedPayload(ValueError):
    """An authenticated payload that does not parse as its message type."""


@dataclass(slots=True)
class Frame:
    msg_type: int
    sender_id: int
    session_id: int
    slot: int
    payload: bytes = b""


@functools.lru_cache(maxsize=32)
def _keyed(key: bytes):
    """BLAKE2s-256 keyed with `key` (RFC 7693 section 2.5), or with its BLAKE2s-256
    digest if it is longer than 32 bytes; shared, so copied."""
    return hashlib.blake2s(key=key if len(key) <= 32 else hashlib.blake2s(key).digest())


def _tag(key: bytes, body: bytes) -> bytes:
    """Keyed BLAKE2s-256 of `body`, resumed from a copy of the key's cached state."""
    state = _keyed(key).copy()
    state.update(body)
    return state.digest()


def frame_body(frame: Frame) -> bytes:
    """Header and payload of `frame`: the bytes its tag covers, and the one header pack."""
    payload = frame.payload
    if len(payload) > MAX_PAYLOAD_LEN:
        raise PayloadTooLarge(f"payload of {len(payload)} bytes exceeds u16 length")
    return HEADER_STRUCT.pack(
        MAGIC, VERSION, frame.msg_type, frame.sender_id, frame.session_id, frame.slot, len(payload)
    ) + payload


def splice_payload(data: bytes, payload: bytes) -> bytes:
    """`data`'s header before payload_len as it is, `payload`'s length, then `payload`; no tag."""
    return data[: HEADER_LEN - 2] + len(payload).to_bytes(2, "big") + payload


def encode_frame(frame: Frame, key: bytes) -> bytes:
    """`frame_body(frame)` and its tag: every frame sent comes here."""
    body = frame_body(frame)
    return body + _tag(key, body)


def decode_frame(
    data: bytes,
    key: bytes,
    session_id: int,
    highest: int,
    sender_id: int,
    msg_types: tuple[int, ...],
    newest: int,
    horizon: int,
) -> Frame | Refusal:
    """Accept or refuse one frame arriving on a link, changing nothing.

    The link runs session `session_id`, has accepted no slot later than
    `highest` (-1 before its first), and its sender has `sender_id` and
    sends `msg_types`; `horizon` is the arrival slot minus the link's
    latency, the earliest slot an honest frame can carry, and `newest` the
    latest: the newest sync boundary at or before `horizon`, below 0 before
    there is one.
    Returns the Frame on success, otherwise a Refusal whose detail claims the
    header's slot once there is a header.
    """
    if len(data) < MIN_FRAME_LEN:
        reason = f"frame of {len(data)} bytes shorter than minimum {MIN_FRAME_LEN}"
        return Refusal("malformed", {"reason": reason})
    body, tag = data[:-TAG_LEN], data[-TAG_LEN:]
    # Unpacked first only so that a frame failing the tag check can report its claims.
    magic, version, msg_type, sender, session, slot, payload_len = (
        HEADER_STRUCT.unpack_from(body)
    )
    outcome = "malformed"
    if not hmac.compare_digest(_tag(key, body), tag):
        outcome, reason = "auth_fail", "tag mismatch"
    elif magic != MAGIC:
        reason = "bad magic"
    elif version != VERSION:
        reason = f"unsupported version {version}"
    elif msg_type not in _MSG_TYPES:
        reason = f"unknown msg_type {msg_type}"
    elif payload_len != len(data) - MIN_FRAME_LEN:
        reason = f"payload_len {payload_len} does not match frame size"
    elif sender != sender_id or msg_type not in msg_types:
        # The other direction's frame, reflected: it authenticates only under
        # a shared key, and must not count as this link's.
        outcome, reason = "wrong_direction", "wrong direction"
    elif slot > newest:
        outcome, reason = "future", (
            f"slot {slot} later than {newest}, the newest sync boundary an honest frame can carry"
        )
    elif session > session_id:
        outcome, reason = "future", f"session {session} later than the link's {session_id}"
    elif (session, slot) <= (session_id, highest):
        outcome = "replay"
        reason = f"(session, slot) {session, slot} not after {session_id, highest}"
    elif slot < horizon:
        outcome, reason = "late", f"slot {slot} earlier than {horizon}, arrival slot less latency"
    else:
        return Frame(msg_type, sender, session, slot, body[HEADER_LEN:])
    return Refusal(outcome, {"reason": reason, "claimed_slot": slot})


# Payload codecs. These run on authenticated bytes only, so failures raise
# rather than come back as refusals.

_DELTA_HEAD = struct.Struct(">II")  # base state, result state
_ACK = struct.Struct(">Q")  # newest accepted emission slot + 1, 0 for none

# Most inputs one delta or COMMAND record carries: 8 fixed bytes, a u32 per input.
MAX_RECORD_INPUTS = (MAX_PAYLOAD_LEN - 8) // 4


def encode_delta_payload(record: DeltaRecord) -> bytes:
    inputs = record.applied_inputs
    n = len(inputs)
    if not n:
        return _DELTA_HEAD.pack(record.base_state, record.result_state)
    return struct.pack(f">II{n}I", record.base_state, record.result_state, *inputs)


def decode_delta_payload(data: bytes, slot: int) -> DeltaRecord:
    size = len(data)
    if size < 8 or size % 4:
        raise MalformedPayload(f"delta payload of {size} bytes is not 8 plus a multiple of 4")
    base, result = _DELTA_HEAD.unpack_from(data)
    inputs = struct.unpack_from(f">{size // 4 - 2}I", data, 8) if size > 8 else ()
    return DeltaRecord(base, result, inputs, slot)


def encode_command_payload(record: CommandRecord) -> bytes:
    n = len(record.inputs)
    if n == 0:
        raise ValueError("command must carry at least one input")
    return struct.pack(f">Q{n}I", record.acked, *record.inputs)


def decode_command_payload(data: bytes) -> CommandRecord:
    size = len(data)
    if size < 12 or size % 4:
        raise MalformedPayload(f"command payload of {size} bytes is not 12 plus a multiple of 4")
    fields = struct.unpack(f">Q{size // 4 - 2}I", data)
    return CommandRecord(fields[1:], fields[0])


def encode_ack_payload(acked: int) -> bytes:
    return _ACK.pack(acked)


def decode_ack_payload(data: bytes) -> int:
    if len(data) != 8:
        raise MalformedPayload(f"ack payload must be 8 bytes, got {len(data)}")
    return _ACK.unpack(data)[0]
