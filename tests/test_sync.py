"""Delta records, their verification by the virtual twin, and both twin endpoints."""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from tests.conftest import COOL, HEAT, IDLE
from twinsync.frames import Frame, MsgType, decode_frame, encode_delta_payload, encode_frame
from twinsync.sync import (
    CommandRecord,
    DeltaRecord,
    PhysicalTwin,
    Refusal,
    VirtualTwin,
    command_inputs,
    fold_key_state,
    reconcile,
)


class TestFold:
    def test_four_heats(self, kettle):
        assert fold_key_state(kettle, 0, (HEAT, HEAT, HEAT, HEAT)) == (100, 100)

    def test_partial_heating_visits_no_new_key(self, kettle):
        final, last_key = fold_key_state(kettle, 0, (HEAT, HEAT))
        assert final == 50
        assert last_key == 0

    def test_base_outside_key_set_has_no_key(self, kettle):
        final, last_key = fold_key_state(kettle, 50, (HEAT,))
        assert final == 75
        assert last_key is None

    def test_empty_inputs(self, kettle):
        assert fold_key_state(kettle, 100, ()) == (100, 100)


def replica(machine, key, held_state, slot=0):
    """A virtual twin on `key` at `slot` that holds `held_state` with `key` only."""
    twin = VirtualTwin(machine)
    twin.last_synced_key, twin.last_synced_slot = key, slot
    twin.held = {held_state: {key}}
    return twin


def replica_state(twin):
    """Everything `apply_sync` may change, copied."""
    held = {state: set(keys) for state, keys in twin.held.items()}
    return twin.last_synced_key, twin.last_synced_slot, twin.acked, held


class TestVerifyDelta:
    def test_accepts_consistent_record(self, kettle):
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(DeltaRecord(0, 100, (HEAT, HEAT, HEAT, HEAT), slot=4)) is None
        assert (twin.last_synced_key, twin.last_synced_slot) == (100, 4)

    def test_base_mismatch(self, kettle):
        err = VirtualTwin(kettle).apply_sync(DeltaRecord(100, 100, (IDLE,), slot=5))
        assert err.outcome == "state_mismatch"
        assert err.detail["mismatch"] == "base_mismatch"
        assert (err.detail["expected"], err.detail["got"]) == (0, 100)

    def test_unreachable_result(self, kettle):
        err = VirtualTwin(kettle).apply_sync(DeltaRecord(0, 100, (HEAT,), slot=1))
        assert err.outcome == "state_mismatch"
        assert err.detail["mismatch"] == "unreachable_result"

    def test_liveness_record_verifies(self, kettle):
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(DeltaRecord(0, 0, (IDLE, IDLE), slot=2)) is None
        assert (twin.last_synced_key, twin.last_synced_slot) == (0, 2)

    def test_undeclared_input_is_unreachable(self, kettle):
        err = VirtualTwin(kettle).apply_sync(DeltaRecord(0, 0, (77,), slot=1))
        assert err.outcome == "state_mismatch"
        assert err.detail["mismatch"] == "unreachable_result"

    def test_exhaustive_small_machine(self, four_state_machines):
        """A record is accepted exactly when its base is held and the fold confirms
        the claim: the last key visited, or a key held with the base when the fold
        visits none.  An accepted record holds the fold's end with the claim; a
        rejected one, of any kind, changes nothing."""
        machine = four_state_machines[0]  # ring4, keys {0, 2}
        symbols = sorted(machine.inputs)
        undeclared = max(symbols) + 1
        checked = 0
        kinds = set()

        def rejected(twin, delta, kind):
            before = replica_state(twin)
            err = twin.apply_sync(delta)
            assert (err.outcome, err.detail["mismatch"]) == ("state_mismatch", kind)
            assert replica_state(twin) == before
            kinds.add(kind)
            return err

        for held, key, length in product(sorted(machine.states), [0, 2], range(4)):
            held_before = {held: {key}}
            for base, inputs in product(sorted(machine.states), product(symbols, repeat=length)):
                end, last_key = fold_key_state(machine, base, inputs)
                for claim in sorted(machine.states):
                    twin = replica(machine, key, held, slot=1)
                    delta = DeltaRecord(base, claim, inputs, slot=1)
                    if base != held:
                        rejected(twin, delta, "base_mismatch")
                    elif claim == last_key or (last_key is None and claim == key):
                        assert twin.apply_sync(delta) is None
                        after = {**held_before, end: held_before.get(end, set()) | {claim}}
                        assert replica_state(twin) == (claim, 1, 2, after)
                    else:
                        rejected(twin, delta, "unreachable_result")
                    checked += 1
            twin = replica(machine, key, held, slot=1)
            unfoldable = DeltaRecord(held, key, (undeclared,), slot=1)
            err = rejected(twin, unfoldable, "unreachable_result")
            assert err.detail["reason"].startswith("fold failed")
        assert checked == 4 * 2 * 4 * (1 + 2 + 4 + 8) * 4
        assert kinds == {"base_mismatch", "unreachable_result"}

    def test_base_held_from_an_earlier_emission_verifies(self, kettle):
        """A record re-covering inputs the replica already folded still verifies."""
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(DeltaRecord(0, 0, (HEAT, HEAT), 2)) is None
        assert twin.held == {0: {0}, 50: {0}}
        assert twin.apply_sync(DeltaRecord(0, 0, (HEAT, HEAT, HEAT), 3)) is None
        assert (twin.last_synced_key, twin.last_synced_slot) == (0, 3)
        assert twin.apply_sync(DeltaRecord(50, 100, (HEAT, HEAT), 4)) is None
        assert (twin.last_synced_key, twin.last_synced_slot) == (100, 4)
        assert twin.held == {0: {0}, 50: {0}, 75: {0}, 100: {100}}

    def test_base_never_held_is_a_base_mismatch(self, kettle):
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(DeltaRecord(0, 0, (HEAT,), 1)) is None
        err = twin.apply_sync(DeltaRecord(50, 0, (), 2))
        assert err.detail["mismatch"] == "base_mismatch"
        assert (err.detail["expected"], err.detail["got"]) == (0, 50)


class TestApplyDelta:
    """A delta record applied through `VirtualTwin.apply_sync`."""

    def test_advances_key_and_slot(self, kettle):
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(DeltaRecord(0, 100, (HEAT,) * 4, slot=4)) is None
        assert (twin.last_synced_key, twin.last_synced_slot) == (100, 4)

    def test_error_leaves_replica_unchanged(self, kettle):
        twin = replica(kettle, 0, 0, slot=2)
        before = replica_state(twin)
        assert twin.apply_sync(DeltaRecord(100, 100, (), slot=3)).outcome == "state_mismatch"
        assert replica_state(twin) == before

    def test_stale_slot_rejected_before_content(self, kettle):
        """Order is the decoder's check, not the replica's: a STATE_SYNC
        stamped at or before the up link's newest accepted slot, which is
        the replica's sync slot, is refused as a replay before its record is
        decoded, so it never reaches `apply_sync`."""
        twin = replica(kettle, 100, 100, slot=8)
        key = bytes(range(32))
        record = DeltaRecord(100, 100, (), slot=5)
        frame = Frame(MsgType.STATE_SYNC, 1, 1, 5, encode_delta_payload(record))
        out = decode_frame(encode_frame(frame, key), key, 1, 8, 1, (MsgType.STATE_SYNC,), 8, 0)
        assert (out.outcome, out.detail["claimed_slot"]) == ("replay", 5)
        assert out.detail["reason"] == "(session, slot) (1, 5) not after (1, 8)"
        assert twin.apply_sync(record) is None  # the replica alone would take it

    def test_equal_slot_heartbeat_is_accepted(self, kettle):
        twin = replica(kettle, 100, 100, slot=8)
        assert twin.apply_sync(DeltaRecord(100, 100, (), slot=8)) is None
        assert (twin.last_synced_key, twin.last_synced_slot) == (100, 8)


class TestReconcile:
    def test_accepts_known_inputs(self, kettle):
        cmd = CommandRecord(inputs=(HEAT, IDLE), acked=3)
        assert reconcile(cmd, kettle) is None

    def test_rejects_unknown_input(self, kettle):
        out = reconcile(CommandRecord(inputs=(HEAT, 99), acked=3), kettle)
        assert out == Refusal("command_rejected", {"reason": "unknown_input", "input": 99})


class TestPhysicalTwin:
    def test_heartbeat_when_nothing_happened(self, kettle):
        twin = PhysicalTwin(kettle)
        assert twin.tick(0) == DeltaRecord(0, 0, (), slot=0)
        assert twin.tick(1) == DeltaRecord(0, 0, (), slot=1)
        assert twin.tick(2) == DeltaRecord(0, 0, (), slot=2)

    def test_empty_log_yields_heartbeat(self, kettle):
        twin = PhysicalTwin(kettle)
        record = twin.tick(0)
        assert record == DeltaRecord(0, 0, (), slot=0)
        virtual = VirtualTwin(kettle)
        key, slot, _, held = replica_state(virtual)
        assert virtual.apply_sync(record) is None
        assert replica_state(virtual) == (key, slot, 1, held)

    def test_idle_slot_is_a_self_loop_delta(self, kettle):
        """A self-loop is logged but never shipped: its record is a heartbeat."""
        twin = PhysicalTwin(kettle)
        twin.apply_input(1, IDLE)
        assert twin.tick(1) == DeltaRecord(0, 0, (), 1)
        assert len(twin.log.entries) == 1

    def test_emissions_follow_the_walkthrough(self, kettle):
        """Each record starts at the newest acknowledged one; the ACK for the
        record of slot t, which carries t + 1, arrives after the tick of slot
        t + 3, as in a run with one slot of latency each way."""
        twin = PhysicalTwin(kettle)
        emitted = []
        for slot in range(1, 9):
            if slot <= 4:
                twin.apply_input(slot, HEAT)
            emitted.append(twin.tick(slot))
            twin.on_ack(slot - 2)
        assert emitted == [
            DeltaRecord(0, 0, (HEAT,), 1),
            DeltaRecord(0, 0, (HEAT, HEAT), 2),
            DeltaRecord(0, 0, (HEAT, HEAT, HEAT), 3),
            DeltaRecord(0, 100, (HEAT, HEAT, HEAT, HEAT), 4),
            DeltaRecord(25, 100, (HEAT, HEAT, HEAT), 5),
            DeltaRecord(50, 100, (HEAT, HEAT), 6),
            DeltaRecord(75, 100, (HEAT,), 7),
            DeltaRecord(100, 100, (), 8),
        ]

    def test_anchor_advances_past_shipped_crossing(self, kettle_cool):
        """Only once the record that shipped the crossing is acknowledged."""
        twin = PhysicalTwin(kettle_cool)
        for slot in (1, 2, 3, 4):
            twin.apply_input(slot, HEAT)
            twin.tick(slot)
        twin.apply_input(5, COOL)
        assert twin.tick(5) == DeltaRecord(0, 100, (HEAT,) * 4 + (COOL,), slot=5)
        twin.on_ack(5)  # the record of slot 4
        twin.apply_input(6, COOL)
        assert twin.tick(6) == DeltaRecord(100, 100, (COOL, COOL), slot=6)

    def test_ack_at_or_behind_the_anchor_changes_nothing(self, kettle):
        """0 acknowledges nothing, not even a record of slot 0."""
        twin = PhysicalTwin(kettle)
        for slot in (0, 1, 2):
            twin.apply_input(slot, HEAT)
            twin.tick(slot)
        twin.on_ack(0)
        assert twin.tick(3) == DeltaRecord(0, 0, (HEAT,) * 3, slot=3)
        twin.on_ack(2)
        twin.on_ack(2)
        twin.on_ack(1)
        twin.on_ack(0)
        assert twin.tick(4) == DeltaRecord(50, 0, (HEAT,), slot=4)

    def test_ack_ahead_of_every_record_anchors_at_the_newest(self, kettle):
        twin = PhysicalTwin(kettle)
        for slot in (1, 2):
            twin.apply_input(slot, HEAT)
            twin.tick(slot)
        twin.on_ack(99)
        assert twin.tick(3) == DeltaRecord(50, 0, (), slot=3)

    def test_inputs_that_never_leave_the_state_are_not_shipped(self, kettle):
        """At a key state and between them alike, an idle slot ships no input,
        and a record with no input past the last one is not kept for an ACK:
        acknowledging it anchors where the record before it ended."""
        twin = PhysicalTwin(kettle)
        twin.apply_input(1, HEAT)
        assert twin.tick(1) == DeltaRecord(0, 0, (HEAT,), slot=1)
        twin.apply_input(2, IDLE)
        assert twin.tick(2) == DeltaRecord(0, 0, (HEAT,), slot=2)
        twin.apply_input(3, HEAT)
        assert twin.tick(3) == DeltaRecord(0, 0, (HEAT, HEAT), slot=3)
        twin.on_ack(3)  # the record of slot 2
        for slot in (4, 5):
            twin.apply_input(slot, IDLE)
            assert twin.tick(slot) == DeltaRecord(25, 0, (HEAT,), slot=slot)
        twin.on_ack(6)
        twin.apply_input(6, IDLE)
        assert twin.tick(6) == DeltaRecord(50, 0, (), slot=6)
        assert twin._unacked == []

    def test_unshipped_crossing_stays_in_the_record(self, kettle_cool):
        """Inputs land across two slots with no tick between: one cumulative record."""
        twin = PhysicalTwin(kettle_cool)
        for slot in (1, 2, 3, 4):
            twin.apply_input(slot, HEAT)
            if slot % 2 == 0:
                assert twin.tick(slot) == (
                    DeltaRecord(0, 0, (HEAT, HEAT), 2) if slot == 2 else
                    DeltaRecord(0, 100, (HEAT,) * 4, 4)
                )
        assert [slot for slot, _, _ in twin._unacked] == [2, 4]

    def test_every_emission_verifies_in_sequence(self, kettle_cool):
        twin = PhysicalTwin(kettle_cool)
        virtual = VirtualTwin(kettle_cool)
        schedule = [HEAT, HEAT, COOL, HEAT, HEAT, HEAT, COOL, COOL, COOL, COOL, HEAT]
        for slot, sym in enumerate(schedule, start=1):
            twin.apply_input(slot, sym)
            record = twin.tick(slot)
            assert virtual.apply_sync(record) is None
            assert virtual.last_synced_key == twin.key_state
            if slot % 3 == 0:
                twin.on_ack(slot)  # the record of the slot before


class TestCommandInputs:
    def test_period_skips_off_slots(self):
        """Only boundaries carry inputs: an off-slot input waits for the next one."""
        schedule = [(slot, HEAT) for slot in range(8)]
        expected = {0: (HEAT,), 3: (HEAT,) * 3, 6: (HEAT,) * 3, 9: (HEAT,)}
        assert command_inputs(schedule, 3) == expected


class TestVirtualTwin:
    def test_tick_carries_the_boundary_inputs_or_is_the_heartbeat(self, kettle):
        """One record per tick; an empty one, the idle heartbeat, when it carries no input."""
        twin = VirtualTwin(kettle)
        assert twin.tick((HEAT, IDLE)) == CommandRecord(inputs=(HEAT, IDLE), acked=0)
        assert twin.tick(()) == CommandRecord(inputs=(), acked=0)

    def test_every_record_acknowledges_the_newest_accepted_sync(self, kettle):
        """A command and the idle heartbeat alike carry the replica's newest
        accepted emission slot, plus one."""
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(DeltaRecord(0, 0, (HEAT,), slot=1)) is None
        assert twin.tick((HEAT,)) == CommandRecord(inputs=(HEAT,), acked=2)
        assert twin.apply_sync(DeltaRecord(0, 100, (HEAT,), slot=2)) is not None
        assert twin.tick(()) == CommandRecord(inputs=(), acked=2)

    def test_commands_of_one_period_share_one_record(self, kettle):
        commands = command_inputs([(1, HEAT), (1, HEAT), (2, IDLE), (3, HEAT)], 3)
        assert commands == {3: (HEAT, HEAT, IDLE, HEAT)}
        command = VirtualTwin(kettle).tick(commands[3])
        assert command == CommandRecord(inputs=(HEAT, HEAT, IDLE, HEAT), acked=0)

    def test_flush_respects_period(self, kettle):
        """An input issued just after a boundary goes out at the next one."""
        commands = command_inputs([(1, HEAT)], 2)
        assert 0 not in commands
        assert VirtualTwin(kettle).tick(commands[2]) == CommandRecord(inputs=(HEAT,), acked=0)

    def test_apply_sync_tracks_seq(self, kettle):
        """The slot is the sequence number; the acknowledgement is the newest
        accepted one plus one, so that slot 0 differs from none."""
        twin = VirtualTwin(kettle)
        assert twin.acked == 0
        assert twin.apply_sync(DeltaRecord(0, 0, (), slot=0)) is None
        assert twin.acked == 1
        assert twin.apply_sync(DeltaRecord(0, 100, (HEAT,) * 4, slot=4)) is None
        assert twin.acked == 5
        assert twin.last_synced_key == 100

    def test_apply_sync_rejects_without_side_effects(self, kettle):
        twin = VirtualTwin(kettle)
        err = twin.apply_sync(DeltaRecord(100, 100, (), slot=4))
        assert err.outcome == "state_mismatch"
        assert twin.acked == 0
        assert twin.last_synced_key == 0


@given(
    st.lists(
        st.tuples(st.sampled_from([HEAT, IDLE, COOL, None]), st.booleans(), st.booleans()),
        max_size=40,
    ),
    st.integers(0, 3),
)
def test_replica_tracks_physical_key_trace(schedule, ack_lag):
    """Records and ACKs lost at random, ACKs `ack_lag` slots late: every record
    that arrives verifies and puts the replica on the physical key."""
    from twinsync.machine import machine_from_dict
    from twinsync.scenario import load_fixture_json

    doc = load_fixture_json("kettle")
    doc["inputs"].append(COOL)
    for state in doc["states"]:
        doc["delta"].append([state, COOL, max(state - 25, 0)])
    machine = machine_from_dict(doc)

    twin = PhysicalTwin(machine)
    virtual = VirtualTwin(machine)
    accepted = [0]  # the replica's acknowledgement at the end of each slot
    for slot, (sym, record_lost, ack_lost) in enumerate(schedule, start=1):
        if sym is not None:
            twin.apply_input(slot, sym)
        record = twin.tick(slot)
        if not record_lost:
            assert virtual.apply_sync(record) is None
            assert virtual.last_synced_key == twin.key_state
        accepted.append(virtual.acked)
        if not ack_lost and slot > ack_lag:
            twin.on_ack(accepted[slot - ack_lag])
