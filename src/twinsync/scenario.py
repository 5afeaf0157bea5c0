"""Scenario documents: one JSON object describes a whole simulated run.

A scenario names the machine (inline or a bundled fixture), the channel
parameters and keys, the operator input schedules for both sides, the attack
schedule, and the run length.  schemas/scenario.schema.json is the one
statement of the document's keys, types and bounds; `_check` walks a
document against it, and the few rules it cannot state are checked after.
Validation collects every problem it can find.  A scenario that parses runs
to a report unless a delta record outgrows the u16 payload
(`PayloadTooLarge`): a machine cycling while no ACK arrives.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources

from .adversary import AttackAction, AttackKind
from .machine import (
    MachineFormatError,
    TwinMachine,
    machine_from_dict,
    machine_to_dict,
    validate_machine,
)
from .frames import MAX_RECORD_INPUTS
from .netsim import Direction
from .sync import command_inputs

DEFAULT_KEYS = {
    Direction.PHYS_TO_VIRT: bytes(range(32)),
    Direction.VIRT_TO_PHYS: bytes(range(32, 64)),
}
BUNDLED_FIXTURES = ("kettle", "fig4_walkthrough", "attack_matrix")
_SCHEMA = json.loads(
    resources.files("twinsync").joinpath("schemas", "scenario.schema.json").read_text("utf-8")
)
# Each JSON Schema type as the Python classes json.load gives it (a bool is
# never a number) and its name in problems.  1.0 is not an integer here.
_TYPES = {
    "object": (dict, "an object"),
    "array": (list, "a list"),
    "string": (str, "a string"),
    "integer": (int, "an integer"),
    "number": ((int, float), "a number"),
}
# The document's top-level values that ScenarioSpec takes as they are.
_SCALARS = ("name", "total_slots", "sync_period_slots", "session_id", "seed", "grace_slots")
_INPUTS = ("operator_inputs_physical", "operator_inputs_virtual")


class ScenarioInvalid(Exception):
    """Carries every field-level problem found in a scenario document."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ChannelConfig:
    latency_slots: int = 1
    drop_probability: float = 0.0


@dataclass
class ScenarioSpec:
    machine: TwinMachine
    total_slots: int
    name: str = ""
    sync_period_slots: int = 1
    channels: dict[Direction, ChannelConfig] = field(default_factory=dict)
    keys: dict[Direction, bytes] = field(default_factory=dict)
    session_id: int = 1
    operator_inputs_physical: list[tuple[int, int]] = field(default_factory=list)
    operator_inputs_virtual: list[tuple[int, int]] = field(default_factory=list)
    attacks: list[AttackAction] = field(default_factory=list)
    seed: int = 0
    grace_slots: int = 1

    def __post_init__(self) -> None:
        for direction in Direction:
            self.channels.setdefault(direction, ChannelConfig())
            self.keys.setdefault(direction, DEFAULT_KEYS[direction])

    def to_dict(self) -> dict:
        """Normalized echo with all defaults materialized."""
        return {
            "name": self.name,
            "machine": machine_to_dict(self.machine),
            "total_slots": self.total_slots,
            "sync_period_slots": self.sync_period_slots,
            "channels": {
                d._value_: {
                    "latency_slots": self.channels[d].latency_slots,
                    # A document may give 0 or 1; the echo is always a float.
                    "drop_probability": float(self.channels[d].drop_probability),
                }
                for d in Direction
            },
            "keys": {d._value_: self.keys[d].hex() for d in Direction},
            "session_id": self.session_id,
            "operator_inputs_physical": [list(p) for p in self.operator_inputs_physical],
            "operator_inputs_virtual": [list(p) for p in self.operator_inputs_virtual],
            "attacks": [a.to_dict() for a in self.attacks],
            "seed": self.seed,
            "grace_slots": self.grace_slots,
        }


def fixture_path(name: str):
    return resources.files("twinsync").joinpath("fixtures", name)


def load_fixture_json(name: str) -> dict:
    with fixture_path(name + ".json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def read_json_file(path: str) -> object:
    """The JSON document in the file at `path`, or ScenarioInvalid saying why not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioInvalid([f"cannot read {path}: {exc}"]) from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an over-long integer
        raise ScenarioInvalid([f"{path} is not valid JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ScenarioInvalid([f"{path} nests too deeply to parse"]) from exc


def resolve_machine(spec: object, problems: list[str]) -> TwinMachine | None:
    """A new machine from a fixture name or a definition, or None and its problems."""
    if isinstance(spec, str):
        if spec not in BUNDLED_FIXTURES:
            problems.append(f"machine: no bundled fixture named {spec!r}")
            return None
        doc = load_fixture_json(spec)  # a scenario fixture embeds or names its machine
        return resolve_machine(doc.get("machine", doc), problems)
    if not isinstance(spec, dict):
        problems.append("machine: must be a fixture name or an inline definition object")
        return None
    before = len(problems)
    _check(spec, _SCHEMA["$defs"]["machine"], "machine", problems)
    if len(problems) > before:
        return None
    try:
        machine = machine_from_dict(spec)
    except MachineFormatError as exc:
        problems.append(f"machine: {exc}")
        return None
    problems.extend(f"machine: {problem}" for problem in validate_machine(machine))
    return machine if len(problems) == before else None


def _check(value: object, schema: dict, where: object, problems: list[str]) -> None:
    """Append each way `value` breaks `schema` to `problems`, named by the path `where`.

    Handles the keywords scenario.schema.json uses, except the `oneOf` on
    `machine`, which `resolve_machine` decides.  As in JSON Schema, a
    keyword about one JSON type ignores values of the others.  `where` is a
    name or a (parent, key) pair, spelt out by `_path` only for a problem.
    """
    if "$ref" in schema:  # only "#/$defs/<name>" occurs
        _check(value, _SCHEMA["$defs"][schema["$ref"].rpartition("/")[2]], where, problems)
    if "type" in schema:
        cls, noun = _TYPES[schema["type"]]
        if not isinstance(value, cls) or isinstance(value, bool):
            problems.append(f"{_path(where)}: must be {noun}")
            return
    if "const" in schema and value != schema["const"]:
        problems.append(f"{_path(where)}: must be {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        problems.append(f"{_path(where)}: must be one of {schema['enum']}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        lo, hi = schema.get("minimum"), schema.get("maximum")
        # Written so that NaN, which json.load reads, fails any bound.
        if (lo is not None and not lo <= value) or (hi is not None and not value <= hi):
            bounds = [f"{op} {b}" for op, b in ((">=", lo), ("<=", hi)) if b is not None]
            problems.append(f"{_path(where)}: must be {' and '.join(bounds)}")
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                problems.append(f"{_path((where, key))}: required")
        known = schema.get("properties", {})
        for key, sub in known.items():
            if key in value:
                _check(value[key], sub, (where, key), problems)
        extra = schema.get("additionalProperties")
        if extra is False:
            unknown = sorted(key for key in value if key not in known)
            if unknown:
                problems.append(f"{_path(where) or 'document'}: unknown keys: {unknown}")
        elif extra is not None:
            for key in value.keys() - known.keys():
                _check(value[key], extra, (where, key), problems)
    elif isinstance(value, list):
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            problems.append(f"{_path(where)}: must have {lo if lo == hi else f'{lo} to {hi}'} items")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], (where, i), problems)
    elif isinstance(value, str):
        if "pattern" in schema and not re.fullmatch(schema["pattern"], value):
            problems.append(f"{_path(where)}: must be a string matching {schema['pattern']}")
        if len(value) > schema.get("maxLength", math.inf):
            problems.append(f"{_path(where)}: must be at most {schema['maxLength']} characters")
    for sub in schema.get("allOf", ()):
        _check(value, sub, where, problems)
    if "if" in schema:
        probe: list[str] = []
        _check(value, schema["if"], where, probe)
        if not probe:
            _check(value, schema.get("then", {}), where, problems)


def _path(where: object) -> str:
    """The name of a place in the document: `a.b[2].c`, or "" for the document."""
    if not isinstance(where, tuple):
        return where
    parent, key = where
    head = _path(parent)
    return f"{head}[{key}]" if isinstance(key, int) else f"{head}.{key}" if head else key


def scenario_from_dict(obj: dict) -> ScenarioSpec:
    """The scenario a document describes, or ScenarioInvalid with every problem found.

    The document is first checked against scenario.schema.json.  Only when it
    matches are the rules the schema cannot state checked: inputs and attacks
    inside the run and the machine, no more virtual inputs in one period than
    a COMMAND holds, a DELETE detectable before the run ends,
    a REPLAY capturing no later than it replays, a MODIFY that mutates, and
    one key per direction.
    """
    if not isinstance(obj, dict):
        raise ScenarioInvalid(["scenario document must be an object"])
    problems: list[str] = []
    _check(obj, _SCHEMA, "", problems)
    machine = resolve_machine(obj["machine"], problems) if "machine" in obj else None
    if problems:
        raise ScenarioInvalid(problems)
    inputs = {key: [(slot, sym) for slot, sym in obj.get(key, [])] for key in _INPUTS}
    spec = ScenarioSpec(
        machine=machine,
        **{key: obj[key] for key in _SCALARS if key in obj},
        **{key: sorted(pairs, key=lambda p: p[0]) for key, pairs in inputs.items()},
        channels={
            Direction(d): ChannelConfig(**cfg) for d, cfg in obj.get("channels", {}).items()
        },
        keys={Direction(d): bytes.fromhex(h) for d, h in obj.get("keys", {}).items()},
        attacks=[
            AttackAction(AttackKind(a["kind"]), a["slot"], Direction(a["direction"]),
                         a.get("params", {}))
            for a in obj.get("attacks", [])
        ],
    )
    total = spec.total_slots
    for key, pairs in inputs.items():
        for i, (slot, sym) in enumerate(pairs):
            if slot >= total:
                problems.append(f"{key}[{i}]: slot {slot} outside the run of {total} slots")
            if sym not in machine.inputs:
                problems.append(f"{key}[{i}]: input {sym} not defined by the machine")
    commands = command_inputs(spec.operator_inputs_virtual, spec.sync_period_slots)
    for boundary, carried in sorted(commands.items()):
        if boundary < total and len(carried) > MAX_RECORD_INPUTS:
            problems.append(
                f"operator_inputs_virtual: {len(carried)} inputs go out in the COMMAND at slot "
                f"{boundary}, which holds at most {MAX_RECORD_INPUTS}"
            )
    for i, attack in enumerate(spec.attacks):
        where, slot, params = f"attacks[{i}]", attack.slot, attack.params
        if slot >= total:
            problems.append(f"{where}.slot: {slot} outside the run of {total} slots")
        elif attack.kind is AttackKind.DELETE and slot + spec.grace_slots >= total:
            # Only MISSED_SYNC detects a deletion, grace_slots after the delivery.
            problems.append(
                f"{where}.slot: a DELETE at slot {slot} is detected at slot "
                f"{slot + spec.grace_slots}, after the run of {total} slots"
            )
        if attack.kind is AttackKind.REPLAY and params["capture_slot"] > slot:
            problems.append(f"{where}.params.capture_slot: cannot replay a frame "
                            "captured after the attack slot")
        if attack.kind is AttackKind.MODIFY and "payload_hex" not in params and (
            "byte_offset" not in params or "xor_mask" not in params
        ):
            problems.append(
                f"{where}.params: MODIFY needs byte_offset and xor_mask, or payload_hex"
            )
    # One key per direction (RFC 7296 §2.14, RFC 4303 §2.1): with equal keys a
    # frame reflected onto the other direction passes its tag check.
    if spec.keys[Direction.PHYS_TO_VIRT] == spec.keys[Direction.VIRT_TO_PHYS]:
        problems.append("keys: phys_to_virt and virt_to_phys must differ")
    if problems:
        raise ScenarioInvalid(problems)
    return spec


def load_scenario_file(path: str) -> ScenarioSpec:
    return scenario_from_dict(read_json_file(path))


def load_bundled_scenario(name: str) -> ScenarioSpec:
    return scenario_from_dict(load_fixture_json(name))
