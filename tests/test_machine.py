"""Machine execution, key-state projection, and definition validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.conftest import COOL, HEAT, IDLE
from twinsync.machine import (
    ExecutionLog,
    MachineFormatError,
    UnknownInput,
    machine_from_dict,
    machine_to_dict,
    project_key_state,
    step,
    validate_machine,
)
from twinsync.oracle import expected_traces
from twinsync.scenario import read_json_file, resolve_machine
from twinsync.sync import PhysicalTwin


def execute(machine, schedule):
    """A physical twin after applying (slot, input) pairs in order."""
    twin = PhysicalTwin(machine)
    for slot, sym in schedule:
        twin.apply_input(slot, sym)
    return twin


def key_visits(twin):
    """(slot, key state) for every logged input that landed in a key state."""
    return [(e.slot, e.to_state) for e in twin.log.entries if e.is_key_crossing]


class TestStep:
    def test_heat_from_cold(self, kettle):
        assert step(kettle, 0, HEAT) == 25

    def test_heat_saturates_at_boiling(self, kettle):
        assert step(kettle, 100, HEAT) == 100

    def test_idle_is_identity(self, kettle):
        for state in (0, 25, 50, 75, 100):
            assert step(kettle, state, IDLE) == state

    def test_unknown_input_raises(self, kettle):
        with pytest.raises(UnknownInput):
            step(kettle, 0, 99)

    def test_cool_floors_at_zero(self, kettle_cool):
        assert step(kettle_cool, 25, COOL) == 0
        assert step(kettle_cool, 0, COOL) == 0
        assert step(kettle_cool, 100, COOL) == 75


class TestRunSchedule:
    def test_four_heats_reach_boiling(self, kettle):
        twin = execute(kettle, [(s, HEAT) for s in (1, 2, 3, 4)])
        assert [e.to_state for e in twin.log.entries] == [25, 50, 75, 100]
        assert [e.is_key_crossing for e in twin.log.entries] == [False, False, False, True]

    def test_multiple_inputs_in_one_slot(self, kettle):
        twin = execute(kettle, [(3, HEAT), (3, HEAT)])
        assert [e.to_state for e in twin.log.entries] == [25, 50]


class TestProjection:
    def test_empty_log_projects_to_initial(self, kettle):
        assert project_key_state(ExecutionLog(), kettle) == 0
        assert PhysicalTwin(kettle).key_state == 0

    def test_mid_range_states_project_back_to_initial(self, kettle):
        twin = execute(kettle, [(1, HEAT), (2, HEAT)])
        assert project_key_state(twin.log, kettle) == twin.key_state == 0

    def test_projection_after_boiling(self, kettle):
        twin = execute(kettle, [(s, HEAT) for s in (1, 2, 3, 4)])
        assert project_key_state(twin.log, kettle) == twin.key_state == 100

    def test_key_trace_records_crossings_only(self, kettle):
        twin = execute(kettle, [(s, HEAT) for s in (1, 2, 3, 4)])
        assert key_visits(twin) == [(4, 100)]
        _, physical_keys, _ = expected_traces(kettle, {s: [HEAT] for s in (1, 2, 3, 4)}, 5)
        assert physical_keys == [0, 0, 0, 0, 100]

    def test_boil_then_cool_cycle(self, kettle_cool):
        schedule = [(s, HEAT) for s in (1, 2, 3, 4)] + [(s, COOL) for s in (5, 6, 7, 8)]
        twin = execute(kettle_cool, schedule)
        assert key_visits(twin) == [(4, 100), (8, 0)]
        assert project_key_state(twin.log, kettle_cool) == twin.key_state == 0

    def test_idle_at_a_key_state_reconfirms_it(self, kettle):
        """Self-loops at a key state change nothing, so none is logged; projection holds."""
        twin = execute(kettle, [(s, IDLE) for s in (1, 2)])
        assert key_visits(twin) == []
        assert project_key_state(twin.log, kettle) == twin.key_state == 0

    def test_idle_between_key_states_records_nothing(self, kettle):
        twin = execute(kettle, [(1, HEAT), (2, IDLE), (3, IDLE)])
        assert key_visits(twin) == []


class TestValidation:
    def test_kettle_is_clean(self, kettle):
        assert validate_machine(kettle) == []

    def test_missing_transition_is_an_error(self, kettle):
        doc = machine_to_dict(kettle)
        doc["delta"] = [row for row in doc["delta"] if row[:2] != [50, HEAT]]
        errors = validate_machine(machine_from_dict(doc))
        assert [e.split(":", 1)[0] for e in errors] == ["non_total_transition"]

    def test_initial_must_be_a_key_state(self, kettle):
        doc = machine_to_dict(kettle)
        doc["key_states"] = [100]
        errors = validate_machine(machine_from_dict(doc))
        assert "initial_not_key_state" in [e.split(":", 1)[0] for e in errors]

    def test_undeclared_key_state(self, kettle):
        doc = machine_to_dict(kettle)
        doc["key_states"] = [0, 100, 42]
        errors = validate_machine(machine_from_dict(doc))
        assert "key_state_unknown" in [e.split(":", 1)[0] for e in errors]

    def test_undeclared_transition_endpoints(self):
        machine = machine_from_dict(
            {
                "machine_id": "broken",
                "states": [0],
                "inputs": [1],
                "initial": 0,
                "key_states": [0],
                "delta": [[0, 1, 0], [9, 1, 0], [0, 2, 0], [0, 3, 9]],
            }
        )
        codes = {e.split(":", 1)[0] for e in validate_machine(machine)}
        assert {
            "transition_source_unknown",
            "transition_input_unknown",
            "transition_target_unknown",
        } <= codes

    def test_unreachable_state_is_not_an_error(self):
        machine = machine_from_dict(
            {
                "machine_id": "island",
                "states": [0, 1, 2],
                "inputs": [1],
                "initial": 0,
                "key_states": [0],
                "delta": [[0, 1, 1], [1, 1, 0], [2, 1, 2]],
            }
        )
        assert validate_machine(machine) == []

    def test_all_states_key_is_not_an_error(self):
        machine = machine_from_dict(
            {
                "machine_id": "allkey",
                "states": [0, 1],
                "inputs": [1],
                "initial": 0,
                "key_states": [0, 1],
                "delta": [[0, 1, 1], [1, 1, 0]],
            }
        )
        assert validate_machine(machine) == []


def shape_problems(doc) -> list[str]:
    """The problems `resolve_machine` finds in a machine definition."""
    problems: list[str] = []
    assert resolve_machine(doc, problems) is None
    return problems


class TestDocumentForm:
    """resolve_machine checks a definition's shape; machine_from_dict builds a valid one."""

    def test_round_trip(self, kettle):
        assert machine_from_dict(machine_to_dict(kettle)) == kettle

    def test_missing_field(self):
        assert shape_problems({"machine_id": "m"}) == [
            f"machine.{key}: required"
            for key in ("states", "inputs", "initial", "key_states", "delta")
        ]

    def test_duplicate_transition_rejected(self):
        doc = {
            "machine_id": "dup",
            "states": [0],
            "inputs": [1],
            "initial": 0,
            "key_states": [0],
            "delta": [[0, 1, 0], [0, 1, 0]],
        }
        with pytest.raises(MachineFormatError):
            machine_from_dict(doc)
        assert shape_problems(doc) == ["machine: duplicate transition for state 0 input 1"]

    def test_negative_values_rejected(self):
        doc = {
            "machine_id": "neg",
            "states": [0, -1],
            "inputs": [1],
            "initial": 0,
            "key_states": [0],
            "delta": [],
        }
        assert shape_problems(doc) == ["machine.states[1]: must be >= 0 and <= 4294967295"]

    @pytest.mark.parametrize(
        "labels, problem",
        [
            (5, "labels: must be an object"),
            ([], "labels: must be an object"),
            ({"states": 5}, "labels.states: must be an object"),
            ({"states": ["COLD"]}, "labels.states: must be an object"),
            ({"states": {"0": 1}}, "labels.states.0: must be a string"),
        ],
        ids=["5", "labels1", "labels2", "labels3", "labels4"],
    )
    def test_labels_must_map_strings_to_strings(self, kettle, labels, problem):
        doc = machine_to_dict(kettle)
        doc["labels"] = labels
        assert shape_problems(doc) == [f"machine.{problem}"]

    def test_load_from_file(self, tmp_path, kettle):
        """A machine file is read and checked the way an inline machine is."""
        import json

        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine_to_dict(kettle)))
        problems: list[str] = []
        assert resolve_machine(read_json_file(str(path)), problems) == kettle
        assert problems == []


@given(st.lists(st.sampled_from([HEAT, IDLE]), max_size=30))
def test_execution_is_deterministic(schedule):
    from twinsync.scenario import load_fixture_json

    machine = machine_from_dict(load_fixture_json("kettle"))
    pairs = [(i + 1, sym) for i, sym in enumerate(schedule)]
    first = execute(machine, pairs)
    second = execute(machine, pairs)
    assert first.log.entries == second.log.entries
    assert (first.state, first.key_state) == (second.state, second.key_state)
    # Contiguity holds by construction along any legal run: nothing else checks it.
    for prev, cur in zip(first.log.entries, first.log.entries[1:]):
        assert cur.from_state == prev.to_state
        assert cur.slot >= prev.slot


@given(st.lists(st.sampled_from([HEAT, IDLE, COOL]), max_size=25))
def test_projection_matches_last_trace_point(schedule):
    from twinsync.scenario import load_fixture_json

    doc = load_fixture_json("kettle")
    doc["inputs"].append(COOL)
    for state in doc["states"]:
        doc["delta"].append([state, COOL, max(state - 25, 0)])
    machine = machine_from_dict(doc)
    twin = execute(machine, [(i + 1, sym) for i, sym in enumerate(schedule)])
    inputs_by_slot = {i + 1: [sym] for i, sym in enumerate(schedule)}
    _, physical_keys, _ = expected_traces(machine, inputs_by_slot, len(schedule) + 1)
    assert physical_keys[0] == 0
    assert project_key_state(twin.log, machine) == twin.key_state == physical_keys[-1]
