"""Shared fixtures: reference machines and an independent HMAC oracle."""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
import re
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from twinsync.machine import TwinMachine, machine_from_dict
from twinsync.scenario import ScenarioSpec, load_fixture_json, scenario_from_dict

HEAT = 1
IDLE = 2
COOL = 3

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def import_bench_module(name: str):
    """Import a module of the benchmark harness in bench/ by name."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))


def heat_once_then_idle(total_slots: int, drop: float = 0.0) -> ScenarioSpec:
    """One HEAT leaves the kettle between key states; it idles there for the run."""
    physical = [[1, HEAT]] + [[s, IDLE] for s in range(2, total_slots)]
    drop_all = {"drop_probability": drop}
    return scenario_from_dict(
        {
            "machine": "kettle",
            "total_slots": total_slots,
            "channels": {"phys_to_virt": drop_all, "virt_to_phys": drop_all},
            "operator_inputs_physical": physical,
        }
    )


LINKS = ("phys_to_virt", "virt_to_phys")


def whole_pattern(validator, pattern, instance, schema):
    """JSON Schema's `pattern` as ECMA-262 reads it, where `$` matches only
    at the end: jsonschema's `re.search` also lets `$` match before a final
    newline.  Every pattern in the package's schemas is anchored at both
    ends, so matching it whole is the same test."""
    if isinstance(instance, str) and not re.fullmatch(pattern, instance):
        yield jsonschema.ValidationError(f"{instance!r} does not match {pattern!r}")


# The report schema with patterns matched as ECMA-262 does.
REPORT_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, validators={"pattern": whole_pattern}
)(json.loads(resources.files("twinsync").joinpath("schemas", "report.schema.json").read_text()))


def v3_report(doc: dict) -> dict:
    """A `twinsync.report.v4` document as v3 wrote it: each frame in the
    `frames` table as hex, not base64."""
    frames = [base64.b64decode(frame, validate=True).hex() for frame in doc["frames"]]
    return {**doc, "schema": "twinsync.report.v3", "frames": frames}


def v2_report(doc: dict) -> dict:
    """A `twinsync.report.v3` document as v2 wrote it: every row with `sent`,
    `delivered` and `dropped` for both links and `adversary_actions`, each
    delivered frame as an `[id, outcome]` pair, and one audit row per slot,
    passing or not."""
    failed = {audit["slot"]: audit for audit in doc["consistency_audit"]}
    slots, audits = [], []
    for row in doc["slots"]:
        slots.append(
            {
                **row,
                "sent": {link: row.get("sent", {}).get(link, []) for link in LINKS},
                "delivered": {
                    link: [
                        item if isinstance(item, list) else [item, "accepted"]
                        for item in row.get("delivered", {}).get(link, [])
                    ]
                    for link in LINKS
                },
                "dropped": {link: row.get("dropped", {}).get(link, []) for link in LINKS},
                "adversary_actions": row.get("adversary_actions", []),
            }
        )
        slot = row["slot"]
        if slot in failed:
            audits.append({**failed[slot], "ok": False})
        else:
            audits.append(
                {"slot": slot, "ok": True, "replica_key_state": row["replica_key_state"]}
            )
    return {**doc, "schema": "twinsync.report.v2", "slots": slots, "consistency_audit": audits}


def v1_report(doc: dict) -> dict:
    """A `twinsync.report.v2` document as v1 wrote it: each frame id replaced
    by `frames[id]`, each delivered pair by {"frame_hex", "outcome"}, and no
    `frames` table."""
    frames = doc["frames"]

    def hexes(ids_by_link: dict) -> dict:
        return {link: [frames[i] for i in ids] for link, ids in ids_by_link.items()}

    slots = [
        {
            **row,
            "sent": hexes(row["sent"]),
            "dropped": hexes(row["dropped"]),
            "delivered": {
                link: [{"frame_hex": frames[i], "outcome": outcome} for i, outcome in pairs]
                for link, pairs in row["delivered"].items()
            },
        }
        for row in doc["slots"]
    ]
    rest = {key: value for key, value in doc.items() if key != "frames"}
    return {**rest, "schema": "twinsync.report.v1", "slots": slots}


@pytest.fixture
def kettle() -> TwinMachine:
    return machine_from_dict(load_fixture_json("kettle"))


@pytest.fixture
def kettle_cool(kettle: TwinMachine) -> TwinMachine:
    """Kettle extended with a COOL input: 25 degrees down, floor at 0."""
    doc = load_fixture_json("kettle")
    doc["machine_id"] = "kettle_cool"
    doc["inputs"].append(COOL)
    doc["labels"]["inputs"][str(COOL)] = "COOL"
    for state in doc["states"]:
        doc["delta"].append([state, COOL, max(state - 25, 0)])
    return machine_from_dict(doc)


def _machine(machine_id, states, inputs, initial, key_states, delta) -> TwinMachine:
    return machine_from_dict(
        {
            "machine_id": machine_id,
            "states": states,
            "inputs": inputs,
            "initial": initial,
            "key_states": key_states,
            "delta": delta,
        }
    )


@pytest.fixture
def four_state_machines() -> list[TwinMachine]:
    """Three fixed 4-state machines with different shapes of key-state sets."""
    ring = _machine(
        "ring4",
        states=[0, 1, 2, 3],
        inputs=[1, 2],
        initial=0,
        key_states=[0, 2],
        delta=[[s, 1, (s + 1) % 4] for s in range(4)]
        + [[s, 2, (s - 1) % 4] for s in range(4)],
    )
    ladder = _machine(
        "ladder4",
        states=[0, 1, 2, 3],
        inputs=[1, 2],
        initial=0,
        key_states=[0, 3],
        delta=[[s, 1, min(s + 1, 3)] for s in range(4)] + [[s, 2, 0] for s in range(4)],
    )
    stride = _machine(
        "stride4",
        states=[0, 1, 2, 3],
        inputs=[1, 2, 3],
        initial=0,
        key_states=[0, 1],
        delta=[[s, 1, (s + 1) % 4] for s in range(4)]
        + [[s, 2, (s + 2) % 4] for s in range(4)]
        + [[s, 3, s] for s in range(4)],
    )
    return [ring, ladder, stride]


def manual_hmac_sha256(key: bytes, msg: bytes) -> bytes:
    """RFC 2104 construction built by hand; the reference the encoder is diffed against."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hashlib.sha256(opad + hashlib.sha256(ipad + msg).digest()).digest()
