"""Rule-based detection of replication attacks.

Three security requirements anchor every verdict:

    R1  synchronized, timely state replication between the twins
    R2  the digital twin's state may only change through verified sync records
    R3  physical actuation only through vetted commands; `reconcile` checks only
        the input alphabet, so on a total machine R3 rests on the tags alone

Each anomaly is mapped to the requirements whose enforcement caught it, and
the mapping depends on which side of the link was attacked: anomalies on the
physical-bound channel always implicate R3 because that channel drives
actuation, while anomalies on the virtual-bound channel implicate R2
whenever forged or altered content could have corrupted the replica.  Each
refused frame or record arrives as a `sync.Refusal`, and `OUTCOME_EVENT_KIND`
names the event its outcome raises.  An event reads its requirements from
`EVENT_REQUIREMENTS`, and the run's verdict, `Detector.summarize`, lives
beside the tables it reads.

Liveness is the detector's own job: both endpoints emit one authenticated
frame per sync period (heartbeats when idle), so a deleted message shows up
as an emission slot that never produced an accepted arrival within the
grace window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .adversary import AttackAction, AttackKind
from .machine import TwinMachine
from .netsim import Direction
from .sync import Refusal


class Requirement(str, Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"


class EventKind(str, Enum):
    MISSED_SYNC = "MISSED_SYNC"
    TAMPER = "TAMPER"
    REPLAY_ATTACK = "REPLAY_ATTACK"
    FORGED_INSERT = "FORGED_INSERT"
    STATE_MISMATCH = "STATE_MISMATCH"
    COMMAND_REJECTED = "COMMAND_REJECTED"


@dataclass(frozen=True)
class DetectionEvent:
    kind: EventKind
    slot: int
    direction: Direction
    detail: dict

    def to_dict(self) -> dict:
        # `_value_` is read directly: `.value` is a descriptor call costing
        # several times the read.
        return {
            "kind": self.kind._value_,
            "slot": self.slot,
            "direction": self.direction._value_,
            "requirements": list(
                REQUIREMENT_NAMES[EVENT_REQUIREMENTS[(self.kind, self.direction)]]
            ),
            "detail": self.detail,
        }


# The sorted names of each set of requirements, built once for all eight.
REQUIREMENT_NAMES: dict[frozenset[Requirement], tuple[str, ...]] = {
    frozenset(subset): tuple(sorted(r._value_ for r in subset))
    for n in range(len(Requirement) + 1)
    for subset in combinations(Requirement, n)
}


_R1 = frozenset({Requirement.R1})
_R1R2 = frozenset({Requirement.R1, Requirement.R2})
_R1R3 = frozenset({Requirement.R1, Requirement.R3})

# The event each refusal raises, by the outcome its slot row writes.
OUTCOME_EVENT_KIND: dict[str, EventKind] = {
    "malformed": EventKind.FORGED_INSERT,
    "auth_fail": EventKind.TAMPER,
    "wrong_direction": EventKind.FORGED_INSERT,
    "future": EventKind.FORGED_INSERT,
    "replay": EventKind.REPLAY_ATTACK,
    "late": EventKind.REPLAY_ATTACK,
    "malformed_payload": EventKind.FORGED_INSERT,
    "state_mismatch": EventKind.STATE_MISMATCH,
    "command_rejected": EventKind.COMMAND_REJECTED,
}

# The requirements each event enforces, keyed by the direction it was
# observed on: a semantic event has one, the direction of the records or
# commands that raise it.
EVENT_REQUIREMENTS: dict[tuple[EventKind, Direction], frozenset[Requirement]] = {
    (EventKind.MISSED_SYNC, Direction.PHYS_TO_VIRT): _R1,
    (EventKind.MISSED_SYNC, Direction.VIRT_TO_PHYS): _R1R3,
    (EventKind.TAMPER, Direction.PHYS_TO_VIRT): _R1R2,
    (EventKind.TAMPER, Direction.VIRT_TO_PHYS): _R1R3,
    (EventKind.FORGED_INSERT, Direction.PHYS_TO_VIRT): _R1R2,
    (EventKind.FORGED_INSERT, Direction.VIRT_TO_PHYS): _R1R3,
    (EventKind.REPLAY_ATTACK, Direction.PHYS_TO_VIRT): _R1,
    (EventKind.REPLAY_ATTACK, Direction.VIRT_TO_PHYS): _R1R3,
    (EventKind.STATE_MISMATCH, Direction.PHYS_TO_VIRT): _R1R2,
    (EventKind.COMMAND_REJECTED, Direction.VIRT_TO_PHYS): frozenset({Requirement.R3}),
}

# The event each attack kind raises.  A scheduled attack is expected to be
# detected with that event's requirements on the channel it targets.
_ATTACK_EVENT = {
    AttackKind.DELETE: EventKind.MISSED_SYNC,
    AttackKind.REPLAY: EventKind.REPLAY_ATTACK,
    AttackKind.INSERT: EventKind.FORGED_INSERT,
    AttackKind.MODIFY: EventKind.TAMPER,
}
ATTACK_EXPECTATIONS: dict[tuple[AttackKind, Direction], frozenset[Requirement]] = {
    (kind, direction): EVENT_REQUIREMENTS[(event, direction)]
    for kind, event in _ATTACK_EVENT.items()
    for direction in Direction
}


class Detector:
    """Turns refusals and liveness gaps into events.

    An emission at slot e (e divisible by the period) is due at
    e + latency + grace; if no authenticated frame claiming emission slot e
    has arrived by then, that emission was lost.  Each emission is looked up
    once, at that slot, so an arrival is forgotten once it is found.  Each
    direction has its own latency; the period and the grace are the run's.
    """

    def __init__(self, latency_slots: dict[Direction, int], sync_period: int, grace_slots: int):
        self.sync_period = sync_period
        self._window = grace_slots + 1  # slots after an attack that its events may land in
        # Each direction with the slots from an emission to its deadline.
        self._waits = [(d, latency + grace_slots) for d, latency in latency_slots.items()]
        self._satisfied: set[tuple[Direction, int]] = set()

    def on_frame_accepted(self, direction: Direction, emission_slot: int) -> None:
        self._satisfied.add((direction, emission_slot))

    def on_channel_error(self, refusal: Refusal, slot: int, direction: Direction) -> DetectionEvent:
        """The event a refused frame or record raises, with the refusal's detail."""
        return DetectionEvent(OUTCOME_EVENT_KIND[refusal.outcome], slot, direction, refusal.detail)

    # An alias the runner never calls: bench/probes.py traces this name too,
    # until its probe is retargeted to on_channel_error.
    on_semantic_mismatch = on_channel_error

    def on_slot_boundary(self, slot: int) -> list[DetectionEvent]:
        """MISSED_SYNC for each emission that became overdue exactly at this slot."""
        events, satisfied = [], self._satisfied
        for direction, wait in self._waits:
            emission = slot - wait
            if emission < 0 or emission % self.sync_period:
                continue
            key = (direction, emission)
            if key in satisfied:
                satisfied.remove(key)
                continue
            detail = {"expected_emission_slot": emission}
            events.append(DetectionEvent(EventKind.MISSED_SYNC, slot, direction, detail))
        return events

    def summarize(
        self,
        attacks: list[AttackAction],
        events: list[DetectionEvent],
        dropped: set[tuple[Direction, int]],
        applied: list[tuple[AttackAction, bool]],
    ) -> tuple[dict, list[dict]]:
        """The run's summary and verdict, and its events as the report writes them.

        An event is in an attack's window when it is on the attacked direction
        within grace + 1 slots after the attack's slot.  An attack that found
        no target, by the adversary's `applied` log, caused nothing: it is
        marked, and kept out of the matrix, the verdict and the attribution of
        events.  A MISSED_SYNC whose (direction, emission) the channels dropped
        is benign loss.
        """
        window = self._window
        missed = {id(action) for action, found in applied if not found}
        events_at: dict[tuple[Direction, int], list[DetectionEvent]] = {}
        for event in events:
            events_at.setdefault((event.direction, event.slot), []).append(event)
        attributed: set[int] = set()  # ids of events in the window of an attack that found one

        attack_rows = []
        all_matched = True
        cells: dict[tuple, frozenset] = {}  # requirements detected, by (kind, direction) attacked
        for attack in attacks:
            hits = [
                e
                for s in range(attack.slot, attack.slot + window + 1)
                for e in events_at.get((attack.direction, s), ())
            ]
            detected = frozenset()
            for e in hits:
                detected |= EVENT_REQUIREMENTS[(e.kind, e.direction)]
            cell = (attack.kind, attack.direction)
            expected = ATTACK_EXPECTATIONS[cell]
            matched = detected == expected
            row = {
                "kind": attack.kind._value_,
                "slot": attack.slot,
                "direction": attack.direction._value_,
                "expected_requirements": list(REQUIREMENT_NAMES[expected]),
                "detected_requirements": list(REQUIREMENT_NAMES[detected]),
                "event_count": len(hits),
                "matched": matched,
            }
            attack_rows.append(row)
            if id(attack) in missed:
                row["no_target"] = True
                continue
            attributed.update(map(id, hits))
            all_matched = all_matched and matched
            cells[cell] = cells.get(cell, frozenset()) | detected
        matrix: dict[str, dict[str, list[str]]] = {}
        expected_matrix: dict[str, dict[str, list[str]]] = {}
        for cell, detected in cells.items():
            k, d = cell[0]._value_, cell[1]._value_  # attack kind, direction
            matrix.setdefault(k, {})[d] = list(REQUIREMENT_NAMES[detected])
            expected_matrix.setdefault(k, {})[d] = list(REQUIREMENT_NAMES[ATTACK_EXPECTATIONS[cell]])

        annotated = []
        spurious = 0
        benign_loss = 0
        for event in events:
            entry = event.to_dict()
            scheduled = id(event) in attributed
            entry["attack_scheduled"] = scheduled
            if event.kind == EventKind.MISSED_SYNC:
                lost = (event.direction, event.detail["expected_emission_slot"]) in dropped
                entry["explained_by_benign_loss"] = lost
                if lost:
                    benign_loss += 1
                elif not scheduled:
                    spurious += 1
            elif not scheduled:
                spurious += 1
            annotated.append(entry)

        summary = {
            "attacks": attack_rows,
            "matrix": matrix,
            "expected_matrix": expected_matrix,
            "event_count": len(events),
            "spurious_event_count": spurious,
            "benign_loss_event_count": benign_loss,
            "verdict": "pass" if all_matched and spurious == 0 else "detection_mismatch",
        }
        return summary, annotated


def consistency_audit(
    physical_keys: list[int], machine: TwinMachine, replica_key: int, emission: int
) -> int | None:
    """Compare the replica against the physical history it should mirror.

    physical_keys[s] is the physical key state at the end of slot s, for
    every slot up to the audited one, and `emission` the newest that can have
    been delivered by its end, below 0 while none can.  Returns the key state
    at that emission, or the initial state before one, when `replica_key`
    differs from it; None when consistent.
    """
    expected = machine.initial if emission < 0 else physical_keys[emission]
    return None if replica_key == expected else expected
