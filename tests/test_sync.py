"""Delta computation, verification, application, and the twin endpoint classes."""

from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twinsync.sync as sync_mod
from conftest import COOL, HEAT, IDLE
from twinsync.sync import (
    CommandRecord,
    DeltaRecord,
    MismatchError,
    MismatchKind,
    PhysicalTwin,
    Reject,
    ReplicaState,
    VirtualTwin,
    apply_delta,
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


class TestVerifyDelta:
    def test_accepts_consistent_record(self, kettle):
        delta = DeltaRecord(0, 100, (HEAT, HEAT, HEAT, HEAT), slot=4)
        assert apply_delta(ReplicaState(0), delta, kettle) == ReplicaState(100, 4)

    def test_base_mismatch(self, kettle):
        delta = DeltaRecord(100, 100, (IDLE,), slot=5)
        err = apply_delta(ReplicaState(0), delta, kettle)
        assert isinstance(err, MismatchError)
        assert err.kind is MismatchKind.BASE_MISMATCH
        assert (err.expected, err.got) == (0, 100)

    def test_unreachable_result(self, kettle):
        delta = DeltaRecord(0, 100, (HEAT,), slot=1)
        err = apply_delta(ReplicaState(0), delta, kettle)
        assert isinstance(err, MismatchError)
        assert err.kind is MismatchKind.UNREACHABLE_RESULT

    def test_liveness_record_verifies(self, kettle):
        delta = DeltaRecord(0, 0, (IDLE, IDLE), slot=2)
        assert apply_delta(ReplicaState(0), delta, kettle) == ReplicaState(0, 2)

    def test_undeclared_input_is_unreachable(self, kettle):
        delta = DeltaRecord(0, 0, (77,), slot=1)
        err = apply_delta(ReplicaState(0), delta, kettle)
        assert isinstance(err, MismatchError)
        assert err.kind is MismatchKind.UNREACHABLE_RESULT

    def test_exhaustive_small_machine(self, four_state_machines):
        """Acceptance is exactly `last key visited == claim`; everything else rejects."""
        machine = four_state_machines[0]  # ring4, keys {0, 2}
        symbols = sorted(machine.inputs)
        checked = 0
        for base, length in product(sorted(machine.states), range(4)):
            for inputs in product(symbols, repeat=length):
                _, last_key = fold_key_state(machine, base, inputs)
                for claim in sorted(machine.states):
                    delta = DeltaRecord(base, claim, inputs, slot=max(length, 1))
                    out = apply_delta(ReplicaState(base), delta, machine)
                    if claim == last_key:
                        assert out == ReplicaState(claim, delta.slot)
                    else:
                        assert isinstance(out, MismatchError)
                        assert out.kind is MismatchKind.UNREACHABLE_RESULT
                    checked += 1
        assert checked == 4 * (1 + 2 + 4 + 8) * 4


class TestApplyDelta:
    def test_none_is_identity(self, kettle):
        replica = ReplicaState(last_synced_key=0, last_synced_slot=3)
        assert apply_delta(replica, None, kettle) is replica

    def test_advances_key_and_slot(self, kettle):
        replica = ReplicaState(last_synced_key=0)
        out = apply_delta(replica, DeltaRecord(0, 100, (HEAT,) * 4, slot=4), kettle)
        assert out == ReplicaState(last_synced_key=100, last_synced_slot=4)

    def test_error_leaves_replica_unchanged(self, kettle):
        replica = ReplicaState(last_synced_key=0, last_synced_slot=2)
        out = apply_delta(replica, DeltaRecord(100, 100, (), slot=3), kettle)
        assert isinstance(out, MismatchError)
        assert replica == ReplicaState(last_synced_key=0, last_synced_slot=2)

    def test_stale_slot_rejected_before_content(self, kettle):
        replica = ReplicaState(last_synced_key=100, last_synced_slot=8)
        stale = DeltaRecord(100, 100, (), slot=5)
        out = apply_delta(replica, stale, kettle)
        assert isinstance(out, MismatchError)
        assert out.kind is MismatchKind.REPLAYED_BASE
        assert (out.expected, out.got) == (8, 5)

    def test_equal_slot_heartbeat_is_accepted(self, kettle):
        replica = ReplicaState(last_synced_key=100, last_synced_slot=8)
        out = apply_delta(replica, DeltaRecord(100, 100, (), slot=8), kettle)
        assert out == ReplicaState(last_synced_key=100, last_synced_slot=8)


UNDECLARED = 99


@pytest.mark.parametrize("case", ["empty", "extended", "one_differs", "undeclared", "rebased"])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_resumed_fold_gives_the_full_fold(four_state_machines, case, data):
    """Verifying (base, P), maybe a heartbeat, and then (base, P + X) gives what
    a replica without the kept fold gives: the same state or the same error.
    Only X is folded when the second record extends the first one's inputs;
    "rebased" ships P + X from the key the first record reached instead."""
    machine = data.draw(st.sampled_from(four_state_machines))
    symbols = sorted(machine.inputs)
    base = data.draw(st.sampled_from(sorted(machine.key_states)))
    prefix = tuple(data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=8)))
    extra = tuple(
        data.draw(st.lists(st.sampled_from(symbols), min_size=case == "extended", max_size=4))
    )
    if case == "empty":
        extra = ()
    if case == "undeclared":
        at = data.draw(st.integers(0, len(extra)))
        extra = extra[:at] + (UNDECLARED,) + extra[at:]
    inputs = prefix + extra
    if case == "one_differs":
        at = data.draw(st.integers(0, len(prefix) - 1))
        swap = data.draw(st.sampled_from([s for s in symbols if s != prefix[at]]))
        inputs = prefix[:at] + (swap,) + prefix[at + 1 :] + extra

    _, first_key = fold_key_state(machine, base, prefix)
    first = apply_delta(ReplicaState(base), DeltaRecord(base, first_key, prefix, 1), machine)
    if data.draw(st.booleans()):
        first = apply_delta(first, DeltaRecord(first_key, first_key, (), 2), machine)
    assert isinstance(first, ReplicaState)
    second_base = first_key if case == "rebased" else base
    claims = sorted(machine.states)
    if case != "undeclared":
        claims.append(fold_key_state(machine, second_base, inputs)[1])
    record = DeltaRecord(second_base, data.draw(st.sampled_from(claims)), inputs, slot=3)
    fresh = ReplicaState(first.last_synced_key, first.last_synced_slot)

    with mock.patch.object(sync_mod, "fold_key_state", wraps=fold_key_state) as fold:
        resumed = apply_delta(first, record, machine)
    assert resumed == apply_delta(fresh, record, machine)
    if first_key == second_base:
        resumes = second_base == base and case != "one_differs"
        folded = sum(len(call.args[2]) for call in fold.call_args_list)
        assert folded == (len(extra) if resumes else len(inputs))


class TestReconcile:
    def test_accepts_known_inputs(self, kettle):
        cmd = CommandRecord(inputs=(HEAT, IDLE), issued_slot=3)
        assert reconcile(cmd, kettle) == (HEAT, IDLE)

    def test_rejects_empty_command(self, kettle):
        out = reconcile(CommandRecord(inputs=(), issued_slot=3), kettle)
        assert out == Reject(reason="empty_command")

    def test_rejects_unknown_input(self, kettle):
        out = reconcile(CommandRecord(inputs=(HEAT, 99), issued_slot=3), kettle)
        assert out == Reject(reason="unknown_input", detail=99)


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
        replica = ReplicaState(last_synced_key=0)
        assert apply_delta(replica, record, kettle) == replica

    def test_idle_slot_is_a_self_loop_delta(self, kettle):
        twin = PhysicalTwin(kettle)
        twin.apply_input(1, IDLE)
        assert twin.tick(1) == DeltaRecord(0, 0, (IDLE,), 1)

    def test_emissions_follow_the_walkthrough(self, kettle):
        twin = PhysicalTwin(kettle)
        emitted = []
        for slot in range(1, 8):
            if slot <= 4:
                twin.apply_input(slot, HEAT)
            emitted.append(twin.tick(slot))
        assert emitted == [
            DeltaRecord(0, 0, (HEAT,), 1),
            DeltaRecord(0, 0, (HEAT, HEAT), 2),
            DeltaRecord(0, 0, (HEAT, HEAT, HEAT), 3),
            DeltaRecord(0, 100, (HEAT, HEAT, HEAT, HEAT), 4),
            DeltaRecord(100, 100, (), 5),
            DeltaRecord(100, 100, (), 6),
            DeltaRecord(100, 100, (), 7),
        ]

    def test_anchor_advances_past_shipped_crossing(self, kettle_cool):
        twin = PhysicalTwin(kettle_cool)
        for slot in (1, 2, 3, 4):
            twin.apply_input(slot, HEAT)
            twin.tick(slot)
        twin.apply_input(5, COOL)
        assert twin.tick(5) == DeltaRecord(100, 100, (COOL,), slot=5)

    def test_unshipped_crossing_stays_in_the_record(self, kettle_cool):
        """Inputs land across two slots with no emission between: one cumulative record."""
        twin = PhysicalTwin(kettle_cool, sync_period=2)
        for slot in (1, 2, 3, 4):
            twin.apply_input(slot, HEAT)
            assert twin.tick(slot) == (
                DeltaRecord(0, 0, (HEAT, HEAT), 2) if slot == 2 else
                DeltaRecord(0, 100, (HEAT,) * 4, 4) if slot == 4 else None
            )

    def test_every_emission_verifies_in_sequence(self, kettle_cool):
        twin = PhysicalTwin(kettle_cool)
        replica = ReplicaState(last_synced_key=kettle_cool.initial)
        schedule = [HEAT, HEAT, COOL, HEAT, HEAT, HEAT, COOL, COOL, COOL, COOL, HEAT]
        for slot, sym in enumerate(schedule, start=1):
            twin.apply_input(slot, sym)
            out = apply_delta(replica, twin.tick(slot), kettle_cool)
            assert isinstance(out, ReplicaState)
            replica = out
            assert replica.last_synced_key == twin.current_key()

    def test_period_skips_off_slots(self, kettle):
        twin = PhysicalTwin(kettle, sync_period=3)
        assert twin.tick(1) is None
        assert twin.tick(2) is None
        assert twin.tick(3) is not None

    def test_invalid_period(self, kettle):
        with pytest.raises(ValueError):
            PhysicalTwin(kettle, sync_period=0)


class TestVirtualTwin:
    def test_queue_and_flush(self, kettle):
        twin = VirtualTwin(kettle)
        twin.queue_operator_inputs(2, (HEAT,))
        twin.queue_operator_inputs(2, (IDLE,))
        assert twin.tick(2) == [
            CommandRecord(inputs=(HEAT,), issued_slot=2),
            CommandRecord(inputs=(IDLE,), issued_slot=2),
        ]
        assert twin.tick(3) == []

    def test_flush_respects_period(self, kettle):
        twin = VirtualTwin(kettle, sync_period=2)
        twin.queue_operator_inputs(1, (HEAT,))
        assert twin.tick(1) is None
        assert twin.tick(2) == [CommandRecord(inputs=(HEAT,), issued_slot=1)]

    def test_apply_sync_tracks_seq(self, kettle):
        twin = VirtualTwin(kettle)
        assert twin.apply_sync(5, DeltaRecord(0, 100, (HEAT,) * 4, slot=4)) is None
        assert twin.last_sync_seq == 5
        assert twin.replica.last_synced_key == 100

    def test_apply_sync_rejects_without_side_effects(self, kettle):
        twin = VirtualTwin(kettle)
        err = twin.apply_sync(5, DeltaRecord(100, 100, (), slot=4))
        assert isinstance(err, MismatchError)
        assert twin.last_sync_seq == 0
        assert twin.replica.last_synced_key == 0


@given(st.lists(st.sampled_from([HEAT, IDLE, COOL, None]), max_size=40))
def test_replica_tracks_physical_key_trace(schedule):
    """Applying every emission in order keeps the replica on the physical key."""
    from twinsync.machine import machine_from_dict
    from twinsync.scenario import load_fixture_json

    doc = load_fixture_json("kettle")
    doc["inputs"].append(COOL)
    for state in doc["states"]:
        doc["delta"].append([state, COOL, max(state - 25, 0)])
    machine = machine_from_dict(doc)

    twin = PhysicalTwin(machine)
    replica = ReplicaState(last_synced_key=machine.initial)
    for slot, sym in enumerate(schedule, start=1):
        if sym is not None:
            twin.apply_input(slot, sym)
        out = apply_delta(replica, twin.tick(slot), machine)
        assert isinstance(out, ReplicaState)
        replica = out
        assert replica.last_synced_key == twin.current_key()
