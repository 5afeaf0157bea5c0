"""Golden wire-format vectors.

Three canonical frames pin the byte layout and the tag construction: an
all-zero-fields frame under the all-zero key, a STATE_SYNC frame carrying a
four-input delta, and a two-input COMMAND frame.  The encoder must reproduce
them byte for byte; any drift in field order, widths, endianness, or the MAC
construction shows up as a vector mismatch.

The vector file format is plain text, one lowercase hex frame per line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frames import (
    Frame,
    MsgType,
    encode_command_payload,
    encode_delta_payload,
    encode_frame,
)
from .sync import CommandRecord, DeltaRecord


@dataclass(frozen=True)
class GoldenVector:
    description: str
    key: bytes
    frame: Frame


GOLDEN_VECTORS: tuple[GoldenVector, ...] = (
    GoldenVector(
        description="empty payload, all header fields zero, zero key",
        key=bytes(32),
        frame=Frame(msg_type=0, sender_id=0, session_id=0, slot=0, payload=b""),
    ),
    GoldenVector(
        description="state sync carrying a four-input delta",
        key=bytes(range(32)),
        frame=Frame(
            msg_type=MsgType.STATE_SYNC,
            sender_id=1,
            session_id=1,
            slot=4,
            payload=encode_delta_payload(
                DeltaRecord(base_state=0, result_state=100, applied_inputs=(1, 1, 1, 1), slot=4)
            ),
        ),
    ),
    GoldenVector(
        description="command carrying two inputs",
        key=b"\xff" * 32,
        frame=Frame(
            msg_type=MsgType.COMMAND,
            sender_id=2,
            session_id=1,
            slot=9,
            payload=encode_command_payload(CommandRecord(inputs=(1, 2), acked=9)),
        ),
    ),
)


class VectorMismatch(Exception):
    """A vector file that differs from the canonical frames, as `line N: reason`."""


def golden_frame_bytes() -> list[bytes]:
    return [encode_frame(v.frame, v.key) for v in GOLDEN_VECTORS]


def emit_golden_vectors(path: str) -> int:
    """Write the canonical vectors; returns the number of lines written."""
    frames = golden_frame_bytes()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for data in frames:
            fh.write(data.hex() + "\n")
    return len(frames)


def verify_golden_vectors(path: str) -> int:
    """Check a vector file byte for byte; returns the number of frames verified."""
    # A non-ASCII byte decodes to U+FFFD and so fails below as a non-hex line.
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    expected = golden_frame_bytes()
    if len(lines) != len(expected):
        at = lines[-1][0] + 1 if lines else 1
        raise VectorMismatch(f"line {at}: expected {len(expected)} frames, file has {len(lines)}")
    for (lineno, line), want in zip(lines, expected):
        try:
            got = bytes.fromhex(line)
        except ValueError as exc:
            raise VectorMismatch(f"line {lineno}: not valid hex: {exc}") from exc
        if got != want:
            offset = next(
                (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            raise VectorMismatch(
                f"line {lineno}: frame differs from the canonical encoding at byte {offset}"
            )
    return len(expected)
