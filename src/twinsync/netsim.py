"""Slotted two-channel network between the twins.

Time advances in integer slots.  Each direction is a separate unidirectional
channel with a fixed latency and an optional random drop applied at send
time; whatever survives the drop sits in a FIFO queue until its delivery
slot, when it comes out in the slot's due batch.  The channel never sees the
adversary: the runner hands it every batch, empty ones too.

Drop decisions come from a SplitMix64 stream so that identical (scenario,
seed) pairs reproduce identical delivery traces in any implementation of the
same generator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 generator (the usual published constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def chance(self, probability: float) -> bool:
        """True with the given probability; exact at 0 and 1.  One draw, left unmixed at 0."""
        if probability == 0.0:
            self._state = (self._state + _GAMMA) & _MASK64
            return False
        return self.next_u64() < int(probability * 2.0**64)


class Direction(str, Enum):
    PHYS_TO_VIRT = "phys_to_virt"
    VIRT_TO_PHYS = "virt_to_phys"


@dataclass(frozen=True)
class DroppedFrame:
    """A frame dropped at send: its send slot and the very bytes object sent."""

    sent_at_slot: int
    data: bytes


@dataclass
class Channel:
    """One direction of the link. Frames are raw bytes; the channel never inspects them."""

    rng: SplitMix64
    latency_slots: int = 1
    drop_probability: float = 0.0
    # (deliver_at_slot, data): sent in slot order at one latency, so in delivery order.
    queue: deque[tuple[int, bytes]] = field(default_factory=deque)
    drop_log: list[DroppedFrame] = field(default_factory=list)

    def send(self, data: bytes, slot: int) -> bool:
        """Enqueue for delivery at slot + latency and return True, or drop and return False.

        The drop decision happens here, before the adversary ever sees the
        frame: a benignly lost frame is not capturable.
        """
        # One draw per send, unconditionally, so the stream position is a pure
        # function of the send count.
        if self.rng.chance(self.drop_probability):
            self.drop_log.append(DroppedFrame(slot, data))
            return False
        self.queue.append((slot + self.latency_slots, data))
        return True

    def deliver_due(self, slot: int) -> list[bytes]:
        """Remove and return the frames due this slot, FIFO."""
        queue, due = self.queue, []  # a frame due at a slot never asked for goes undelivered
        while queue and queue[0][0] <= slot:
            deliver_at, data = queue.popleft()
            if deliver_at == slot:
                due.append(data)
        return due
