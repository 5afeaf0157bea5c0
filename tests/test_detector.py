"""Requirement mapping, liveness expectations, and the consistency audit."""

import pytest

from tests.conftest import HEAT
from twinsync.adversary import AttackKind
from twinsync.detector import (
    ATTACK_EXPECTATIONS,
    EVENT_REQUIREMENTS,
    Detector,
    EventKind,
    Requirement,
    consistency_audit,
)
from twinsync.machine import machine_from_dict
from twinsync.netsim import Direction
from twinsync.oracle import expected_traces
from twinsync.sync import CommandRecord, DeltaRecord, Refusal, VirtualTwin, reconcile

P2V = Direction.PHYS_TO_VIRT
V2P = Direction.VIRT_TO_PHYS
R1 = Requirement.R1
R2 = Requirement.R2
R3 = Requirement.R3


def make_detector(period=1, latency=1, grace=1, directions=(P2V, V2P)) -> Detector:
    return Detector({d: latency for d in directions}, period, grace)


def requirements(event) -> frozenset[Requirement]:
    """The requirements an event enforces, as the detector reads them."""
    return EVENT_REQUIREMENTS[(event.kind, event.direction)]


class TestRequirementTables:
    def test_virtual_bound_anomalies(self):
        assert EVENT_REQUIREMENTS[(EventKind.MISSED_SYNC, P2V)] == {R1}
        assert EVENT_REQUIREMENTS[(EventKind.REPLAY_ATTACK, P2V)] == {R1}
        assert EVENT_REQUIREMENTS[(EventKind.TAMPER, P2V)] == {R1, R2}
        assert EVENT_REQUIREMENTS[(EventKind.FORGED_INSERT, P2V)] == {R1, R2}

    def test_physical_bound_anomalies_always_implicate_actuation(self):
        for kind in (
            EventKind.MISSED_SYNC,
            EventKind.REPLAY_ATTACK,
            EventKind.TAMPER,
            EventKind.FORGED_INSERT,
        ):
            assert EVENT_REQUIREMENTS[(kind, V2P)] == {R1, R3}

    def test_attack_expectations_are_total(self):
        kinds = {AttackKind.DELETE, AttackKind.INSERT, AttackKind.MODIFY, AttackKind.REPLAY}
        assert set(ATTACK_EXPECTATIONS) == {(k, d) for k in kinds for d in (P2V, V2P)}

    def test_attack_expectations_match_channel_mapping(self):
        assert ATTACK_EXPECTATIONS[(AttackKind.DELETE, P2V)] == {R1}
        assert ATTACK_EXPECTATIONS[(AttackKind.REPLAY, P2V)] == {R1}
        assert ATTACK_EXPECTATIONS[(AttackKind.INSERT, P2V)] == {R1, R2}
        assert ATTACK_EXPECTATIONS[(AttackKind.MODIFY, P2V)] == {R1, R2}
        for kind in AttackKind:
            assert ATTACK_EXPECTATIONS[(kind, V2P)] == {R1, R3}


class TestChannelErrorEvents:
    @pytest.mark.parametrize(
        "outcome,event_kind",
        [
            ("auth_fail", EventKind.TAMPER),
            ("replay", EventKind.REPLAY_ATTACK),
            ("future", EventKind.FORGED_INSERT),
            ("malformed", EventKind.FORGED_INSERT),
            ("wrong_direction", EventKind.FORGED_INSERT),
            ("malformed_payload", EventKind.FORGED_INSERT),
        ],
    )
    @pytest.mark.parametrize("direction", [P2V, V2P])
    def test_kind_and_requirements(self, outcome, event_kind, direction):
        detector = make_detector()
        err = Refusal(outcome, {"reason": "r", "claimed_slot": 7})
        event = detector.on_channel_error(err, slot=8, direction=direction)
        assert event.kind is event_kind
        assert event.slot == 8
        assert event.direction is direction
        names = sorted(r.value for r in EVENT_REQUIREMENTS[(event_kind, direction)])
        assert event.to_dict()["requirements"] == names
        assert event.detail == {"reason": "r", "claimed_slot": 7}


class TestLiveness:
    def test_deleted_emission_alarms_after_grace(self):
        """The frame emitted at slot 3 is deleted in flight: latency 1 plus
        grace 1 means the alarm fires exactly at slot 5."""
        detector = make_detector(directions=(P2V,))
        for emission in (0, 1, 2):
            detector.on_frame_accepted(P2V, emission_slot=emission)
        assert detector.on_slot_boundary(3) == []
        assert detector.on_slot_boundary(4) == []
        events = detector.on_slot_boundary(5)
        assert [e.kind for e in events] == [EventKind.MISSED_SYNC]
        assert events[0].slot == 5
        assert requirements(events[0]) == {R1}
        assert events[0].detail == {"expected_emission_slot": 3}

    def test_timely_arrival_keeps_quiet(self):
        detector = make_detector(directions=(P2V,))
        for slot in range(0, 10):
            detector.on_frame_accepted(P2V, emission_slot=slot)
        for slot in range(0, 12):
            assert detector.on_slot_boundary(slot) == []

    def test_arrival_within_grace_keeps_quiet(self):
        detector = make_detector(directions=(P2V,))
        detector.on_frame_accepted(P2V, emission_slot=0)
        assert detector.on_slot_boundary(1) == []
        assert detector.on_slot_boundary(2) == []
        detector.on_frame_accepted(P2V, emission_slot=1)  # one slot late
        assert detector.on_slot_boundary(3) == []

    def test_each_lost_emission_alarms_once(self):
        detector = make_detector(directions=(P2V,))
        seen = []
        for slot in range(0, 8):
            seen += detector.on_slot_boundary(slot)
        assert [e.detail["expected_emission_slot"] for e in seen] == list(range(0, 6))
        assert [e.slot for e in seen] == list(range(2, 8))

    def test_period_skips_non_boundary_slots(self):
        detector = make_detector(period=2, directions=(P2V,))
        detector.on_frame_accepted(P2V, emission_slot=0)
        detector.on_frame_accepted(P2V, emission_slot=2)
        assert detector.on_slot_boundary(2) == []
        assert detector.on_slot_boundary(3) == []  # emission 1 is not a boundary
        assert detector.on_slot_boundary(4) == []
        events = detector.on_slot_boundary(6)  # emission 4 never arrived
        assert [e.detail["expected_emission_slot"] for e in events] == [4]

    def test_directions_alarm_independently(self):
        detector = make_detector()
        detector.on_frame_accepted(P2V, emission_slot=0)
        events = detector.on_slot_boundary(2)
        assert [(e.kind, e.direction) for e in events] == [(EventKind.MISSED_SYNC, V2P)]
        assert requirements(events[0]) == {R1, R3}


class TestSemanticEvents:
    def test_mismatch_error(self, kettle):
        detector = make_detector()
        err = VirtualTwin(kettle).apply_sync(DeltaRecord(100, 100, (), slot=1))
        event = detector.on_channel_error(err, slot=6, direction=P2V)
        assert event.kind is EventKind.STATE_MISMATCH
        assert requirements(event) == {R1, R2}
        assert event.detail["mismatch"] == "base_mismatch"
        assert (event.detail["expected"], event.detail["got"]) == (0, 100)

    def test_command_reject(self, kettle):
        detector = make_detector()
        err = reconcile(CommandRecord(inputs=(99,), acked=0), kettle)
        event = detector.on_channel_error(err, slot=6, direction=V2P)
        assert event.kind is EventKind.COMMAND_REJECTED
        assert requirements(event) == {R3}
        assert event.detail == {"reason": "unknown_input", "input": 99}


# Physical key state at the end of each slot when the kettle gets HEAT at
# slots 1-4: it reaches key state 100 at slot 4.
BOIL_KEYS = [0, 0, 0, 0, 100, 100]


class TestConsistencyAudit:
    """The audit at slot 5 with one slot of latency expects emission 4, and
    at slot 4 emission 3; the newest delivered emission is its argument."""

    def test_clean_mirror_passes(self, kettle):
        assert consistency_audit(BOIL_KEYS, kettle, 100, emission=4) is None

    def test_replica_lags_by_latency(self, kettle):
        """At the crossing slot itself the replica legitimately still holds the old key."""
        assert consistency_audit(BOIL_KEYS, kettle, 0, emission=3) is None

    def test_before_anything_can_arrive(self, kettle):
        """Below 0 the replica must hold the initial state, whatever the last
        physical key is: a negative emission is never an index."""
        for emission in (-1, -3):
            assert consistency_audit([0], kettle, 0, emission) is None
            assert consistency_audit([100], kettle, 0, emission) is None
            assert consistency_audit([100], kettle, 100, emission) == 0

    def test_stale_replica_is_flagged(self, kettle):
        assert consistency_audit(BOIL_KEYS, kettle, 0, emission=4) == 100

    def test_horizon_respects_sync_period(self, kettle):
        """Period 2: a crossing at slot 3 is only shippable at the slot-4
        boundary, so the replica trace still expects 0 at slot 4, emission 2,
        and 100 at slot 5, emission 4."""
        keys = [0, 0, 0, 100, 100, 100]  # HEAT at slots 0-3
        traces = expected_traces(kettle, {s: [HEAT] for s in range(4)}, 6, 1, sync_period=2)
        assert traces[1:] == (keys, [0, 0, 0, 0, 0, 100])
        assert consistency_audit(keys, kettle, 0, 2) is None
        assert consistency_audit(keys, kettle, 0, 4) == 100


# All states key states, one step up per input: with an input at every slot,
# the physical key at the end of slot s is s + 1.
COUNTER = machine_from_dict(
    {
        "machine_id": "counter",
        "states": list(range(8)),
        "inputs": [1],
        "initial": 0,
        "key_states": list(range(8)),
        "delta": [[s, 1, min(s + 1, 7)] for s in range(8)],
    }
)


@pytest.mark.parametrize(
    "slot, latency, period, expected",
    [(0, 1, 1, None), (1, 1, 1, 0), (5, 1, 1, 4), (4, 1, 2, 2), (5, 1, 2, 4), (3, 0, 3, 3), (1, 2, 1, None)],
)
def test_delivered_emission(slot, latency, period, expected):
    """The newest emission delivered by the end of `slot`: the last sync
    boundary at or before slot - latency, None while nothing sent can have
    arrived.  The oracle's replica trace expects that emission's key, and
    the audit, given it (below 0 for None, as the runner's timing check
    computes it), expects the same."""
    keys = [s + 1 for s in range(slot + 1)]
    inputs = {s: [1] for s in range(slot + 1)}
    _, physical, replica = expected_traces(COUNTER, inputs, slot + 1, latency, period)
    assert physical == keys
    assert replica[slot] == (COUNTER.initial if expected is None else keys[expected])
    emission = -1 if expected is None else expected
    assert consistency_audit(keys, COUNTER, replica[slot], emission) is None
    assert consistency_audit(keys, COUNTER, -1, emission) == replica[slot]
