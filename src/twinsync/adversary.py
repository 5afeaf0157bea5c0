"""Channel-controlling adversary without key material.

The adversary sits in the delivery path of both channels and can delete,
insert, modify, and replay frames.  It sees every frame that passes through
and keeps those its scheduled replays name, but it cannot compute valid
tags, so anything it fabricates or mutates is detectable downstream.  Attack
actions are scheduled per (slot, direction) by the scenario.

An action whose target is absent (no frame at its index, an offset outside
the frame, a replay of a frame never seen) leaves the batch as it was and is
recorded as not found: there is nothing to attack, so nothing to detect.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

from .frames import MIN_FRAME_LEN, TAG_LEN, Frame, frame_body, splice_payload
from .netsim import Direction, SplitMix64


class AttackKind(str, Enum):
    DELETE = "DELETE"
    INSERT = "INSERT"
    MODIFY = "MODIFY"
    REPLAY = "REPLAY"


@dataclass(frozen=True)
class AttackAction:
    kind: AttackKind
    slot: int
    direction: Direction
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind._value_,
            "slot": self.slot,
            "direction": self.direction._value_,
            "params": self.params,
        }


def forge_frame_bytes(template: dict, rng: SplitMix64) -> bytes:
    """Structurally valid frame with an attacker-chosen header and a random tag."""
    body = frame_body(
        Frame(
            template.get("msg_type", 1),
            template.get("sender_id", 0),
            template.get("session_id", 0),
            template.get("slot", 0),
            bytes.fromhex(template.get("payload_hex", "")),
        )
    )
    tag = b"".join(struct.pack(">Q", rng.next_u64()) for _ in range(4))
    return body + tag


class Adversary:
    """Applies scheduled attack actions to each due batch of frames.

    A frame a scheduled REPLAY names is captured before any action runs, so a
    replay may reference a frame from the very batch it is injected into.
    """

    def __init__(self, actions: list[AttackAction], rng: SplitMix64):
        self.actions = list(actions)
        self._scheduled: dict[tuple[int, Direction], list[AttackAction]] = {}
        # The batch indices some REPLAY names, by the (slot, direction) of their batch.
        self._wanted: dict[tuple[int, Direction], set[int]] = {}
        for action in self.actions:
            self._scheduled.setdefault((action.slot, action.direction), []).append(action)
            if action.kind == AttackKind.REPLAY:
                batch = (action.params["capture_slot"], action.direction)
                self._wanted.setdefault(batch, set()).add(action.params.get("capture_index", 0))
        # Every slot some action or capture names: the others pass untouched.
        self._slots = {slot for slot, _ in (*self._scheduled, *self._wanted)}
        self.rng = rng
        # The frames named by a REPLAY, by (slot, direction, index in its batch).
        self.captures: dict[tuple[int, Direction, int], bytes] = {}
        # Every scheduled action met, in order, with whether it found its target.
        self.applied: list[tuple[AttackAction, bool]] = []

    def intercept(self, slot: int, direction: Direction, frames: list[bytes]) -> list[bytes]:
        """The batch as delivered: `frames` itself when no action changes it."""
        if slot not in self._slots:
            return frames
        for index in self._wanted.get((slot, direction), ()):
            if index < len(frames):
                self.captures[(slot, direction, index)] = frames[index]
        for action in self._scheduled.get((slot, direction), ()):
            result = self._apply(action, frames)  # a new list; `frames` is never mutated
            if result is not None:
                frames = result
            self.applied.append((action, result is not None))
        return frames

    def _apply(self, action: AttackAction, frames: list[bytes]) -> list[bytes] | None:
        """The batch after `action`, or None when its target is absent."""
        params = action.params
        if action.kind == AttackKind.INSERT:
            if "raw_hex" in params:
                forged = bytes.fromhex(params["raw_hex"])
            else:
                forged = forge_frame_bytes(params.get("template", {}), self.rng)
            return frames + [forged]

        if action.kind == AttackKind.REPLAY:
            key = (params["capture_slot"], action.direction, params.get("capture_index", 0))
            data = self.captures.get(key)
            return None if data is None else frames + [data]

        index = params.get("index", 0)
        if index >= len(frames):
            return None
        if action.kind == AttackKind.DELETE:
            return frames[:index] + frames[index + 1 :]
        mutated = _mutate(frames[index], params)
        if mutated is None:
            return None
        return frames[:index] + [mutated] + frames[index + 1 :]


def _mutate(data: bytes, params: dict) -> bytes | None:
    """The modified frame, or None when the frame has no such offset or payload."""
    if "payload_hex" in params:
        # Splice in a new payload and fix the declared length; the tag is
        # left as it was, which is the point: the adversary cannot redo it.
        if len(data) < MIN_FRAME_LEN:
            return None
        return splice_payload(data, bytes.fromhex(params["payload_hex"])) + data[-TAG_LEN:]
    offset = params["byte_offset"]
    if offset >= len(data):
        return None
    mutated = bytearray(data)
    mutated[offset] ^= params["xor_mask"]
    return bytes(mutated)
