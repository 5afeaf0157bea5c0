"""Finite state machines executed by the physical twin and mirrored by the digital twin.

A machine is a total deterministic transition table over small unsigned
integers.  A subset of the states is marked as *key states*: the states the
digital twin actually tracks.  Everything the sync protocol ships across the
wire is expressed in terms of key states; `oracle.expected_traces`, a plain
fold of this table, is the ground truth the rest of the package is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class UnknownInput(Exception):
    """An input the machine does not declare."""


class MachineFormatError(Exception):
    """Raised when a machine definition repeats a transition row."""


@dataclass(frozen=True)
class TwinMachine:
    """Deterministic FSM with a designated set of key states.

    `transitions` must be total over states x inputs for the machine to be
    usable; `validate_machine` reports gaps instead of the constructor so
    that broken definitions can still be loaded and diagnosed.
    """

    machine_id: str
    states: frozenset[int]
    inputs: frozenset[int]
    initial: int
    key_states: frozenset[int]
    transitions: dict[tuple[int, int], int]
    labels: dict[str, dict[str, str]] = field(default_factory=dict)


@dataclass(slots=True)
class LogEntry:
    slot: int
    input: int
    from_state: int
    to_state: int
    is_key_crossing: bool


@dataclass(slots=True)
class ExecutionLog:
    """Append-only record of every transition that changed the state, in order.

    `PhysicalTwin.apply_input`, its one writer, appends each entry from the
    state the previous one ended in, at a slot no earlier, so the log is
    contiguous by construction and no append checks it.  `PhysicalTwin.on_ack`
    finds its anchor in it by slot.
    """

    entries: list[LogEntry] = field(default_factory=list)


def step(machine: TwinMachine, state: int, sym: int) -> int:
    """Apply one input symbol to a state reached through the validated, total table.

    So only the input can be undeclared, from a key holder's record: UnknownInput.
    """
    try:
        return machine.transitions[(state, sym)]
    except KeyError:
        raise UnknownInput(f"machine {machine.machine_id!r} has no input {sym}") from None


def project_key_state(log: ExecutionLog, machine: TwinMachine) -> int:
    """Key state in force after the whole log: the last crossing, else initial."""
    for entry in reversed(log.entries):
        if entry.is_key_crossing:
            return entry.to_state
    return machine.initial


def validate_machine(machine: TwinMachine) -> list[str]:
    """The structural problems that make the machine unusable, each `"code: message"`."""
    errors: list[str] = []

    def err(code: str, message: str) -> None:
        errors.append(f"{code}: {message}")

    if machine.initial not in machine.states:
        err("unknown_initial", f"initial state {machine.initial} not declared")
    if machine.initial not in machine.key_states:
        err("initial_not_key_state", f"initial state {machine.initial} must be a key state")
    for k in sorted(machine.key_states):
        if k not in machine.states:
            err("key_state_unknown", f"key state {k} not declared")
    for (src, sym), dst in sorted(machine.transitions.items()):
        if src not in machine.states:
            err("transition_source_unknown", f"transition from undeclared state {src}")
        if sym not in machine.inputs:
            err("transition_input_unknown", f"transition on undeclared input {sym}")
        if dst not in machine.states:
            err("transition_target_unknown", f"transition to undeclared state {dst}")
    for src in sorted(machine.states):
        for sym in sorted(machine.inputs):
            if (src, sym) not in machine.transitions:
                err(
                    "non_total_transition",
                    f"no transition defined for state {src} on input {sym}",
                )
    return errors


def machine_from_dict(obj: dict) -> TwinMachine:
    """Build a machine from a definition that matches the scenario schema's `machine`.

    Only a repeated transition row is caught here; semantic gaps (missing
    transitions and the like) are left to `validate_machine`.
    """
    transitions: dict[tuple[int, int], int] = {}
    for src, sym, dst in obj["delta"]:
        if (src, sym) in transitions:
            raise MachineFormatError(f"duplicate transition for state {src} input {sym}")
        transitions[(src, sym)] = dst
    return TwinMachine(
        machine_id=obj["machine_id"],
        states=frozenset(obj["states"]),
        inputs=frozenset(obj["inputs"]),
        initial=obj["initial"],
        key_states=frozenset(obj["key_states"]),
        transitions=transitions,
        labels={k: dict(v) for k, v in obj.get("labels", {}).items()},
    )


def machine_to_dict(machine: TwinMachine) -> dict:
    out: dict = {
        "machine_id": machine.machine_id,
        "states": sorted(machine.states),
        "inputs": sorted(machine.inputs),
        "initial": machine.initial,
        "key_states": sorted(machine.key_states),
        "delta": [[src, sym, dst] for (src, sym), dst in sorted(machine.transitions.items())],
    }
    if machine.labels:
        out["labels"] = machine.labels
    return out
