"""Shared fixtures: reference machines and an independent BLAKE2s oracle."""

from __future__ import annotations

import base64
import importlib
import json
import re
import struct
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


STATE_FIELDS = ("physical_key_state", "physical_state", "replica_key_state", "replica_synced_slot")


def v4_report(doc: dict) -> dict:
    """A `twinsync.report.v5` document as v4 wrote it: every row with all
    four state fields, each one a row leaves out carried from the row before."""
    slots, carried = [], {}
    for row in doc["slots"]:
        carried = {**carried, **{field: row[field] for field in STATE_FIELDS if field in row}}
        slots.append({**row, **carried})
    return {**doc, "schema": "twinsync.report.v4", "slots": slots}


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


def kettle_cool_machine() -> TwinMachine:
    """Kettle extended with a COOL input: 25 degrees down, floor at 0."""
    doc = load_fixture_json("kettle")
    doc["machine_id"] = "kettle_cool"
    doc["inputs"].append(COOL)
    doc["labels"]["inputs"][str(COOL)] = "COOL"
    for state in doc["states"]:
        doc["delta"].append([state, COOL, max(state - 25, 0)])
    return machine_from_dict(doc)


@pytest.fixture
def kettle_cool() -> TwinMachine:
    return kettle_cool_machine()


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


# RFC 7693 section 2.6: SHA-256's initial value.
BLAKE2S_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)
# RFC 7693 section 2.7: the message word schedule of each of the 10 rounds.
BLAKE2S_SIGMA = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3),
    (11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4),
    (7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8),
    (9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13),
    (2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9),
    (12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11),
    (13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10),
    (6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5),
    (10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0),
)
# RFC 7693 section 3.2: G mixes the work vector's four columns, then its four diagonals.
BLAKE2S_MIX = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)
MASK32 = 0xFFFF_FFFF


def _rotr(x: int, n: int) -> int:
    return (x >> n | x << (32 - n)) & MASK32


def _compress(h: list[int], block: bytes, t: int, last: bool) -> None:
    """RFC 7693 section 3.2, function F: mix one 64-byte block into `h`."""
    m = struct.unpack("<16I", block)
    v = h + list(BLAKE2S_IV)
    v[12] ^= t & MASK32
    v[13] ^= t >> 32
    if last:
        v[14] ^= MASK32
    for s in BLAKE2S_SIGMA:
        for i, (a, b, c, d) in enumerate(BLAKE2S_MIX):
            # Section 3.1, function G, with BLAKE2s's rotations 16, 12, 8 and 7.
            x, y = m[s[2 * i]], m[s[2 * i + 1]]
            v[a] = (v[a] + v[b] + x) & MASK32
            v[d] = _rotr(v[d] ^ v[a], 16)
            v[c] = (v[c] + v[d]) & MASK32
            v[b] = _rotr(v[b] ^ v[c], 12)
            v[a] = (v[a] + v[b] + y) & MASK32
            v[d] = _rotr(v[d] ^ v[a], 8)
            v[c] = (v[c] + v[d]) & MASK32
            v[b] = _rotr(v[b] ^ v[c], 7)
    for i in range(8):
        h[i] ^= v[i] ^ v[i + 8]


def manual_blake2s(data: bytes, key: bytes = b"", digest_size: int = 32) -> bytes:
    """BLAKE2s built by hand from RFC 7693 section 3.3, without hashlib: the
    reference the frame tag is diffed against."""
    assert 1 <= digest_size <= 32 and len(key) <= 32
    h = list(BLAKE2S_IV)
    h[0] ^= 0x0101_0000 ^ len(key) << 8 ^ digest_size
    # A key is padded to one block of its own, ahead of the data.
    message = (key.ljust(64, b"\x00") if key else b"") + data
    blocks = [message[i : i + 64] for i in range(0, len(message), 64)] or [b""]
    for i, block in enumerate(blocks[:-1]):
        _compress(h, block, 64 * (i + 1), last=False)
    _compress(h, blocks[-1].ljust(64, b"\x00"), len(message), last=True)
    return struct.pack("<8I", *h)[:digest_size]


def manual_tag(key: bytes, body: bytes) -> bytes:
    """A frame's tag by the reference: BLAKE2s-256 keyed with `key`, or with
    the key's unkeyed BLAKE2s-256 digest when it is longer than 32 bytes."""
    return manual_blake2s(body, key if len(key) <= 32 else manual_blake2s(key))
