"""Scenario documents: one JSON object describes a whole simulated run.

A scenario names the machine (inline or a bundled fixture), the channel
parameters and keys, the operator input schedules for both sides, the attack
schedule, and the run length.  Validation is strict and collects every
problem it can find; a scenario that parses is guaranteed to run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .adversary import AttackAction, AttackKind
from .frames import MAX_PAYLOAD_LEN, U8_MAX, U32_MAX, U64_MAX
from .machine import (
    MachineFormatError,
    TwinMachine,
    machine_from_dict,
    machine_to_dict,
    validate_machine,
)
from .netsim import Direction

DEFAULT_KEYS = {
    Direction.PHYS_TO_VIRT: bytes(range(32)),
    Direction.VIRT_TO_PHYS: bytes(range(32, 64)),
}
BUNDLED_FIXTURES = ("kettle", "fig4_walkthrough", "attack_matrix")
# The schema's hex pattern: whole bytes, no spaces (bytes.fromhex skips them).
_HEX = re.compile(r"(?:[0-9a-fA-F]{2})*")
# The keys each object of the schema allows; attack params depend on the kind.
_SCENARIO_KEYS = {
    "name", "machine", "total_slots", "sync_period_slots", "channels", "keys", "session_id",
    "operator_inputs_physical", "operator_inputs_virtual", "attacks", "seed", "grace_slots",
}
_MACHINE_KEYS = {"machine_id", "states", "inputs", "labels", "initial", "key_states", "delta"}
_DIRECTIONS = {d.value for d in Direction}
_CHANNEL_KEYS = {"latency_slots", "drop_probability"}
_ATTACK_KEYS = {"kind", "slot", "direction", "params"}


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
                d.value: {
                    "latency_slots": self.channels[d].latency_slots,
                    "drop_probability": self.channels[d].drop_probability,
                }
                for d in Direction
            },
            "keys": {d.value: self.keys[d].hex() for d in Direction},
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid([f"{path} is not valid JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ScenarioInvalid([f"{path} nests too deeply to parse"]) from exc


def resolve_machine(spec: object, problems: list[str]) -> TwinMachine | None:
    """The machine a fixture name or a definition gives, or None and its problems."""
    if isinstance(spec, str):
        if spec not in BUNDLED_FIXTURES:
            problems.append(f"machine: no bundled fixture named {spec!r}")
            return None
        doc = load_fixture_json(spec)
        if "machine" in doc:  # scenario fixtures embed or name their machine
            inner = doc["machine"]
            if isinstance(inner, str):
                return resolve_machine(inner, problems)
            doc = inner
        spec = doc
    if not isinstance(spec, dict):
        problems.append("machine: must be a fixture name or an inline definition object")
        return None
    before = len(problems)
    _object(spec, "machine", _MACHINE_KEYS, problems)
    try:
        machine = machine_from_dict(spec)
    except MachineFormatError as exc:
        problems.append(f"machine: {exc}")
        return None
    problems.extend(f"machine: {i.code}: {i.message}" for i in validate_machine(machine))
    wide = [n for n in ("states", "inputs") if max(getattr(machine, n), default=0) > U32_MAX]
    problems.extend(f"machine.{n}: must be <= {U32_MAX}, the wire's u32" for n in wide)
    return machine if len(problems) == before else None


def _object(value: object, where: str, keys: set[str], problems: list[str]) -> dict | None:
    """`value` if it is an object, or None; any key outside `keys` is a problem."""
    if not isinstance(value, dict):
        problems.append(f"{where}: must be an object")
        return None
    unknown = set(value) - keys
    if unknown:
        problems.append(f"{where}: unknown keys: {sorted(unknown)}")
    return value


def _hex(val: object) -> bytes | None:
    """val decoded as a hex string of whole bytes, or None when it is not one."""
    if not isinstance(val, str) or not _HEX.fullmatch(val):
        return None
    return bytes.fromhex(val)


def _uint(obj: dict, key: str, problems: list[str], default: int | None = None,
          minimum: int = 0, maximum: int | None = None, where: str = "") -> int | None:
    """obj[key] as a bounded integer; `where` prefixes the key in problems."""
    if key not in obj:
        if default is None:
            problems.append(f"{where}{key}: required")
            return None
        return default
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool):
        problems.append(f"{where}{key}: must be an integer")
        return default
    if val < minimum or (maximum is not None and val > maximum):
        hi = f" and <= {maximum}" if maximum is not None else ""
        problems.append(f"{where}{key}: must be >= {minimum}{hi}")
        return default
    return val


def _parse_channels(obj: dict, problems: list[str]) -> dict[Direction, ChannelConfig]:
    channels: dict[Direction, ChannelConfig] = {}
    raw = _object(obj.get("channels", {}), "channels", _DIRECTIONS, problems)
    if raw is None:
        return channels
    for direction in Direction:
        where = f"channels.{direction.value}"
        cfg = _object(raw.get(direction.value, {}), where, _CHANNEL_KEYS, problems)
        if cfg is None:
            continue
        latency = _uint(cfg, "latency_slots", problems, default=1, where=f"{where}.")
        drop = cfg.get("drop_probability", 0.0)
        if not isinstance(drop, (int, float)) or isinstance(drop, bool) or not 0 <= drop <= 1:
            problems.append(f"{where}.drop_probability: must be in [0, 1]")
            drop = 0.0
        channels[direction] = ChannelConfig(
            latency_slots=latency if latency is not None else 1,
            drop_probability=float(drop),
        )
    return channels


def _parse_keys(obj: dict, problems: list[str]) -> dict[Direction, bytes]:
    keys: dict[Direction, bytes] = {}
    raw = _object(obj.get("keys", {}), "keys", _DIRECTIONS, problems)
    if raw is None:
        return keys
    for direction in Direction:
        if direction.value not in raw:
            continue
        decoded = _hex(raw[direction.value])
        if decoded:
            keys[direction] = decoded
        else:
            problems.append(f"keys.{direction.value}: must be a nonempty hex string")
    # One key per direction (RFC 7296 §2.14, RFC 4303 §2.1): with equal keys a
    # frame reflected onto the other direction passes its tag check.
    p2v, v2p = (keys.get(d, DEFAULT_KEYS[d]) for d in Direction)
    if p2v == v2p:
        problems.append("keys: phys_to_virt and virt_to_phys must differ")
    return keys


def _parse_inputs(
    obj: dict, key: str, machine: TwinMachine | None, total_slots: int | None,
    problems: list[str],
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        problems.append(f"{key}: must be a list of [slot, input] pairs")
        return out
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in pair)
        ):
            problems.append(f"{key}[{i}]: must be a [slot, input] pair of unsigned integers")
            continue
        slot, sym = pair
        if total_slots is not None and slot >= total_slots:
            problems.append(f"{key}[{i}]: slot {slot} outside the run of {total_slots} slots")
        if machine is not None and sym not in machine.inputs:
            problems.append(f"{key}[{i}]: input {sym} not defined by the machine")
        out.append((slot, sym))
    out.sort(key=lambda p: p[0])
    return out


_ATTACK_PARAM_KEYS = {
    AttackKind.DELETE: {"index"},
    AttackKind.MODIFY: {"index", "byte_offset", "xor_mask", "payload_hex"},
    AttackKind.INSERT: {"raw_hex", "template"},
    AttackKind.REPLAY: {"capture_slot", "capture_index"},
}
# Bounds of every integer attack parameter and INSERT template field.  A
# template's integers are as wide as the header fields they fill.
_INT_BOUNDS = {
    "index": (0, None),
    "byte_offset": (0, None),
    "xor_mask": (1, U8_MAX),  # a zero mask flips nothing
    "capture_slot": (0, None),
    "capture_index": (0, None),
    "msg_type": (0, U8_MAX),
    "sender_id": (0, U32_MAX),
    "session_id": (0, U64_MAX),
    "seq": (0, U64_MAX),
    "slot": (0, U64_MAX),
}
_TEMPLATE_KEYS = {"msg_type", "sender_id", "session_id", "seq", "slot", "payload_hex"}


def _check_values(obj: dict, problems: list[str], where: str) -> dict[str, int | None]:
    """Check the hex and integer values of attack params or a template; return the integers."""
    for key in ("raw_hex", "payload_hex"):
        if key in obj:
            decoded = _hex(obj[key])
            if decoded is None:
                problems.append(f"{where}{key}: must be a hex string")
                continue
            if key == "payload_hex" and len(decoded) > MAX_PAYLOAD_LEN:
                problems.append(f"{where}{key}: must be at most {MAX_PAYLOAD_LEN} bytes")
    return {
        k: _uint(obj, k, problems, minimum=lo, maximum=hi, where=where)
        for k, (lo, hi) in _INT_BOUNDS.items()
        if k in obj
    }


def _parse_attacks(
    obj: dict, total_slots: int | None, grace_slots: int, problems: list[str]
) -> list[AttackAction]:
    out: list[AttackAction] = []
    raw = obj.get("attacks", [])
    if not isinstance(raw, list):
        problems.append("attacks: must be a list")
        return out
    for i, entry in enumerate(raw):
        where = f"attacks[{i}]"
        if _object(entry, where, _ATTACK_KEYS, problems) is None:
            continue
        try:
            kind = AttackKind(entry.get("kind"))
        except ValueError:
            problems.append(f"{where}.kind: must be one of {[k.value for k in AttackKind]}")
            continue
        try:
            direction = Direction(entry.get("direction"))
        except ValueError:
            problems.append(
                f"{where}.direction: must be one of {[d.value for d in Direction]}"
            )
            continue
        slot = _uint(entry, "slot", problems, where=f"{where}.")
        if slot is None:
            continue
        if total_slots is not None and slot >= total_slots:
            problems.append(f"{where}.slot: {slot} outside the run of {total_slots} slots")
        elif (
            kind is AttackKind.DELETE
            and total_slots is not None
            and slot + grace_slots >= total_slots
        ):
            # Only MISSED_SYNC detects a deletion, grace_slots after the delivery.
            problems.append(
                f"{where}.slot: a DELETE at slot {slot} is detected at slot "
                f"{slot + grace_slots}, after the run of {total_slots} slots"
            )
        params = _object(
            entry.get("params", {}), f"{where}.params", _ATTACK_PARAM_KEYS[kind], problems
        )
        if params is None:
            continue
        at = f"{where}.params."
        ints = _check_values(params, problems, at)
        template = _object(params.get("template", {}), f"{at}template", _TEMPLATE_KEYS, problems)
        if template is not None:
            _check_values(template, problems, f"{at}template.")
        if kind is AttackKind.REPLAY:
            if "capture_slot" not in params:
                problems.append(f"{at}capture_slot: required for REPLAY")
            elif ints["capture_slot"] is not None and ints["capture_slot"] > slot:
                problems.append(
                    f"{at}capture_slot: cannot replay a frame captured after the attack slot"
                )
        if kind is AttackKind.MODIFY:
            if "payload_hex" not in params and (
                "byte_offset" not in params or "xor_mask" not in params
            ):
                problems.append(
                    f"{where}.params: MODIFY needs byte_offset and xor_mask, "
                    f"or payload_hex"
                )
        out.append(AttackAction(kind=kind, slot=slot, direction=direction, params=params))
    return out


def scenario_from_dict(obj: dict) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ScenarioInvalid(["scenario document must be an object"])
    problems: list[str] = []
    _object(obj, "document", _SCENARIO_KEYS, problems)

    machine = None
    if "machine" not in obj:
        problems.append("machine: required")
    else:
        machine = resolve_machine(obj["machine"], problems)

    total_slots = _uint(obj, "total_slots", problems, minimum=1)
    sync_period = _uint(obj, "sync_period_slots", problems, default=1, minimum=1)
    session_id = _uint(obj, "session_id", problems, default=1, minimum=1, maximum=U64_MAX)
    grace = _uint(obj, "grace_slots", problems, default=1)
    seed = _uint(obj, "seed", problems, default=0, maximum=U64_MAX)
    channels = _parse_channels(obj, problems)
    keys = _parse_keys(obj, problems)
    phys_inputs = _parse_inputs(obj, "operator_inputs_physical", machine, total_slots, problems)
    virt_inputs = _parse_inputs(obj, "operator_inputs_virtual", machine, total_slots, problems)
    attacks = _parse_attacks(obj, total_slots, grace, problems)
    name = obj.get("name", "")
    if not isinstance(name, str):
        problems.append("name: must be a string")
        name = ""

    if problems or machine is None or total_slots is None:
        raise ScenarioInvalid(problems or ["scenario invalid"])
    return ScenarioSpec(
        machine=machine,
        total_slots=total_slots,
        name=name,
        sync_period_slots=sync_period,
        channels=channels,
        keys=keys,
        session_id=session_id,
        operator_inputs_physical=phys_inputs,
        operator_inputs_virtual=virt_inputs,
        attacks=attacks,
        seed=seed,
        grace_slots=grace,
    )


def load_scenario_file(path: str) -> ScenarioSpec:
    return scenario_from_dict(read_json_file(path))


def load_bundled_scenario(name: str) -> ScenarioSpec:
    return scenario_from_dict(load_fixture_json(name))
