"""Properties of the whole pipeline on random machines, inputs, channels and attacks.

Model-based in the style of QuickCheck (Claessen and Hughes, ICFP 2000):
each example draws a machine (2-6 states, 1-3 inputs, key states that
include the initial state), inputs on both twins, a sync period of 1-3,
latency 0-3 and loss 0-0.3 on each direction, a grace of 0-2 slots and at
most one attack at any slot and direction, for a run of at most 40 slots.
The clauses:

- a document that parses runs: `scenario_from_dict` raises `ScenarioInvalid`
  or `run_scenario` returns a report, and nothing else is raised;
- two runs give the same bytes, and the report validates against
  `report.schema.json`;
- no record ever fails verification: there is no STATE_MISMATCH event;
- every input of every accepted STATE_SYNC record changes the state it is
  folded from: a self-loop is never shipped;
- every attack that found a target is matched exactly, and no event is
  spurious, lossless or lossy;
- lossless and with no attacks, every audit is ok and the replica's key
  trace is `oracle.expected_traces`, with each operator command applied
  the slot after it arrives;
- each slot row's text, written by the runner, is the report encoder's text
  of what it parses to;
- slot 0's row writes all four state fields and a later row each one
  exactly when it differs from the row before's, and `RunReport.slots`
  reads the rows as `conftest.v4_report` does.
"""

import base64
import json
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import REPORT_VALIDATOR, STATE_FIELDS, v4_report
from twinsync import runner
from twinsync.detector import consistency_audit
from twinsync.frames import HEADER_LEN, TAG_LEN, decode_delta_payload
from twinsync.machine import step
from twinsync.netsim import Direction
from twinsync.oracle import expected_traces
from twinsync.runner import _ENCODER, run_scenario
from twinsync.scenario import ScenarioInvalid, scenario_from_dict
from twinsync.sync import PhysicalTwin, VirtualTwin

MAX_SLOTS = 40
DIRECTIONS = ("phys_to_virt", "virt_to_phys")


def hex_bytes(min_size: int, max_size: int) -> st.SearchStrategy:
    return st.binary(min_size=min_size, max_size=max_size).map(bytes.hex)


@st.composite
def machines(draw) -> dict:
    states = list(range(draw(st.integers(2, 6))))
    inputs = list(range(1, draw(st.integers(1, 3)) + 1))
    initial = draw(st.sampled_from(states))
    keys = {initial} | set(draw(st.lists(st.sampled_from(states))))
    return {
        "machine_id": "drawn",
        "states": states,
        "inputs": inputs,
        "initial": initial,
        "key_states": sorted(keys),
        "delta": [[s, i, draw(st.sampled_from(states))] for s in states for i in inputs],
    }


@st.composite
def attacks(draw, total_slots: int) -> dict:
    kind = draw(st.sampled_from(["DELETE", "INSERT", "MODIFY", "REPLAY"]))
    slot = draw(st.integers(0, total_slots - 1))
    if kind == "DELETE":
        params = {"index": draw(st.integers(0, 1))}
    elif kind == "INSERT":
        raw = {"raw_hex": draw(hex_bytes(1, 120))}
        template = {
            "template": {
                "msg_type": draw(st.integers(1, 3)),
                "sender_id": draw(st.integers(1, 2)),
                "session_id": 1,
                "seq": draw(st.integers(1, 1 << 20)),
                "slot": slot,
                "payload_hex": draw(hex_bytes(0, 24)),
            }
        }
        params = draw(st.sampled_from([raw, template]))
    elif kind == "MODIFY":
        xor = {"byte_offset": draw(st.integers(0, 65)), "xor_mask": draw(st.integers(1, 255))}
        splice = {"payload_hex": draw(hex_bytes(0, 16))}
        params = draw(st.sampled_from([xor, splice]))
    else:
        params = {
            "capture_slot": draw(st.integers(0, slot)),
            "capture_index": draw(st.integers(0, 1)),
        }
    return {"kind": kind, "slot": slot, "direction": draw(st.sampled_from(DIRECTIONS)),
            "params": params}


@st.composite
def scenarios(draw, lossy: bool = True, attacked: bool = True) -> dict:
    machine = draw(machines())
    total = draw(st.integers(1, MAX_SLOTS))
    inputs = st.lists(
        st.tuples(st.integers(0, total - 1), st.sampled_from(machine["inputs"])).map(list),
        max_size=total,
    )
    drop = (st.just(0.0) | st.floats(0, 0.3)) if lossy else st.just(0.0)
    return {
        "machine": machine,
        "total_slots": total,
        "sync_period_slots": draw(st.integers(1, 3)),
        "grace_slots": draw(st.integers(0, 2)),
        "channels": {
            d: {"latency_slots": draw(st.integers(0, 3)), "drop_probability": draw(drop)}
            for d in DIRECTIONS
        },
        "operator_inputs_physical": draw(inputs),
        "operator_inputs_virtual": draw(inputs),
        "attacks": draw(st.lists(attacks(total), max_size=1)) if attacked else [],
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_a_scenario_that_parses_runs_the_same_twice_to_a_valid_report(doc):
    try:
        spec = scenario_from_dict(doc)
    except ScenarioInvalid as exc:
        assert exc.problems
        return
    report = run_scenario(spec)
    data = report.to_json_bytes()
    assert run_scenario(scenario_from_dict(doc)).to_json_bytes() == data
    REPORT_VALIDATOR.validate(json.loads(data))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_every_accepted_record_ships_only_state_changing_inputs(doc):
    try:
        spec = scenario_from_dict(doc)
    except ScenarioInvalid:
        return
    report = run_scenario(spec)
    for row in report.slots:
        for frame_id in row.get("delivered", {}).get("phys_to_virt", ()):
            if isinstance(frame_id, list):  # rejected, with its outcome
                continue
            payload = base64.b64decode(report.frames[frame_id])[HEADER_LEN:-TAG_LEN]
            record = decode_delta_payload(payload, row["slot"])
            state = record.base_state
            for sym in record.applied_inputs:
                nxt = step(spec.machine, state, sym)
                assert nxt != state, (record, state, sym)
                state = nxt


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenarios())
def test_every_attack_is_matched_exactly_and_no_event_is_spurious(doc):
    try:
        spec = scenario_from_dict(doc)
    except ScenarioInvalid:
        return
    report = run_scenario(spec)
    assert [e for e in report.detection_events if e["kind"] == "STATE_MISMATCH"] == []
    for attack in report.summary["attacks"]:
        assert attack.get("no_target") or attack["matched"], attack
    assert report.summary["spurious_event_count"] == 0
    assert report.summary["verdict"] == "pass"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios(lossy=False, attacked=False))
def test_lossless_attack_free_runs_follow_the_oracle(doc):
    spec = scenario_from_dict(doc)
    report = run_scenario(spec)
    up = spec.channels[Direction.PHYS_TO_VIRT].latency_slots
    down = spec.channels[Direction.VIRT_TO_PHYS].latency_slots
    period = spec.sync_period_slots
    inputs_by_slot: dict[int, list[int]] = {}
    for slot, sym in spec.operator_inputs_physical:
        inputs_by_slot.setdefault(slot, []).append(sym)
    # A command queued at slot s goes out at the first boundary at or after
    # s, arrives `down` slots later and is executed the slot after that,
    # behind that slot's physical inputs.
    commands: dict[int, list[int]] = {}
    for slot, sym in spec.operator_inputs_virtual:
        commands.setdefault(slot, []).append(sym)
    for slot, syms in sorted(commands.items()):
        applied = -(-slot // period) * period + down + 1
        inputs_by_slot.setdefault(applied, []).extend(syms)
    states, keys, replica = expected_traces(
        spec.machine, inputs_by_slot, spec.total_slots, up, period
    )
    assert [r["physical_state"] for r in report.slots] == states
    assert [r["physical_key_state"] for r in report.slots] == keys
    assert [r["replica_key_state"] for r in report.slots] == replica
    assert report.audits == []
    assert report.detection_events == []
    assert report.summary["verdict"] == "pass"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_each_row_text_is_the_encoders_text_of_its_parse(doc):
    try:
        spec = scenario_from_dict(doc)
    except ScenarioInvalid:
        return
    for row in run_scenario(spec).rows:
        assert row == _ENCODER.encode(json.loads(row))


def run_reading_states(spec):
    """`run_scenario(spec)`, and each slot's four state values read off the
    twins as the runner audits the slot, after which they do not change."""
    twins, states = {}, []

    def made(name, cls):
        return lambda machine: twins.setdefault(name, cls(machine))

    def audit(physical_keys, machine, replica_key, emission):
        physical, virtual = twins["physical"], twins["virtual"]
        states.append(dict(zip(STATE_FIELDS, (
            physical.key_state, physical.state, virtual.last_synced_key, virtual.last_synced_slot
        ))))
        return consistency_audit(physical_keys, machine, replica_key, emission)

    with (
        patch.object(runner, "PhysicalTwin", made("physical", PhysicalTwin)),
        patch.object(runner, "VirtualTwin", made("virtual", VirtualTwin)),
        patch.object(runner, "consistency_audit", audit),
    ):
        report = run_scenario(spec)
    return report, states


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_a_row_writes_a_state_field_exactly_when_it_changed(doc):
    try:
        spec = scenario_from_dict(doc)
    except ScenarioInvalid:
        return
    report, states = run_reading_states(spec)
    written = report.to_json_dict()
    before: dict = {}  # nothing before slot 0, whose row writes all four
    for row, state in zip(written["slots"], states, strict=True):
        changed = {field: value for field, value in state.items() if before.get(field) != value}
        assert {field: row[field] for field in STATE_FIELDS if field in row} == changed
        before = state
    assert report.slots == v4_report(written)["slots"]
