"""Delta-based key-state replication between the physical twin and its replica.

The physical twin executes the machine and periodically emits a DeltaRecord:
the key state it started from, the inputs applied since, and the key state it
claims to have reached.  The replica never force-sets its state; it re-folds
the inputs through its own copy of the transition table and only accepts the
result if the fold confirms the claim.  The reverse path carries operator
inputs (CommandRecord), never states: the physical twin re-executes them
itself after a plausibility check.

Between key crossings a delta is cumulative (all inputs since the key state
in force was last established), so every record verifies from the replica's
current key even when the machine is partway between key states.  A slot with
no activity still produces an empty heartbeat record so the other side can
tell silence from a deleted message.

Neither side re-walks a cumulative record in Python.  The physical twin keeps
the inputs since its anchor as a plain list and copies it into each record.
The replica keeps the last fold it verified; a record with the same base
whose inputs extend that fold's inputs is checked by comparing the prefix
(in C) and folding only the new suffix from the kept state and last key.  A
left fold resumed from its own accumulator ends where the full fold ends, so
every accept, reject and mismatch is what the full fold would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .machine import (
    ExecutionLog,
    LogEntry,
    MachineError,
    TwinMachine,
    project_key_state,  # unused; kept because bench/probes.py traces sync.project_key_state
    step,
)


@dataclass(slots=True)
class DeltaRecord:
    base_state: int
    result_state: int
    applied_inputs: tuple[int, ...]
    slot: int


@dataclass(slots=True)
class CommandRecord:
    inputs: tuple[int, ...]
    issued_slot: int


# A fold already walked, from base over inputs to state, last visiting last_key:
# (machine, base, inputs, state, last_key).  A plain tuple: one is built per record.
_Fold = tuple[TwinMachine, int, tuple[int, ...], int, int | None]


@dataclass(slots=True)
class ReplicaState:
    """The digital twin's view: the last confirmed key state and its slot.

    `fold` is the last verified fold, kept so the next cumulative record
    folds only its new inputs; it takes no part in equality.
    """

    last_synced_key: int
    last_synced_slot: int = 0
    fold: _Fold | None = field(default=None, compare=False, repr=False)


class MismatchKind(str, Enum):
    BASE_MISMATCH = "base_mismatch"
    REPLAYED_BASE = "replayed_base"
    UNREACHABLE_RESULT = "unreachable_result"


@dataclass(frozen=True)
class MismatchError:
    """Verification failure, returned as a value for the detector to consume."""

    kind: MismatchKind
    expected: int
    got: int
    reason: str = ""


@dataclass(frozen=True)
class Reject:
    """Reconciliation refusal for an operator command."""

    reason: str
    detail: int | None = None


def fold_key_state(
    machine: TwinMachine, base: int, inputs: tuple[int, ...], last_key: int | None = None
) -> tuple[int, int | None]:
    """Walk the inputs from base; return (final state, last key state visited).

    The last key visited starts as base itself when base is a key state and
    is None otherwise, so a record based outside the key set can never claim
    a reachable result.  An earlier fold resumes from its final state as
    base and its last key visited as last_key.
    """
    state = base
    if base in machine.key_states:
        last_key = base
    for sym in inputs:
        state = step(machine, state, sym)
        if state in machine.key_states:
            last_key = state
    return state, last_key


def _verify(
    machine: TwinMachine, delta: DeltaRecord, expected_base: int, kept: _Fold | None
) -> MismatchError | _Fold:
    """Check a received delta against the replica's current key state.

    The record is consistent when the base matches and folding the inputs
    through the machine visits result_state as the last key state; the fold
    resumes `kept` when the record extends it.  A consistent record gives
    back the fold it was verified by.
    """
    if delta.base_state != expected_base:
        return MismatchError(
            kind=MismatchKind.BASE_MISMATCH,
            expected=expected_base,
            got=delta.base_state,
            reason="delta base does not match replica key state",
        )
    base, inputs = delta.base_state, delta.applied_inputs
    try:
        if (
            kept is not None
            and kept[0] is machine
            and kept[1] == base
            and inputs[: len(kept[2])] == kept[2]
        ):
            _, _, done, state, last_key = kept
            state, last_key = fold_key_state(machine, state, inputs[len(done) :], last_key)
        else:
            state, last_key = fold_key_state(machine, base, inputs)
    except MachineError as exc:
        return MismatchError(
            kind=MismatchKind.UNREACHABLE_RESULT,
            expected=delta.result_state,
            got=delta.result_state,
            reason=f"fold failed: {exc}",
        )
    if last_key != delta.result_state:
        return MismatchError(
            kind=MismatchKind.UNREACHABLE_RESULT,
            expected=last_key if last_key is not None else delta.base_state,
            got=delta.result_state,
            reason="claimed result not reached by folding the inputs",
        )
    return machine, base, inputs, state, last_key


def apply_delta(
    replica: ReplicaState, delta: DeltaRecord | None, machine: TwinMachine
) -> ReplicaState | MismatchError:
    """Advance the replica by a verified delta; on any error the replica is unchanged.

    A record carrying a slot older than the replica's sync point is rejected
    as replayed before its content is even looked at.
    """
    if delta is None:
        return replica
    if delta.slot < replica.last_synced_slot:
        return MismatchError(
            kind=MismatchKind.REPLAYED_BASE,
            expected=replica.last_synced_slot,
            got=delta.slot,
            reason="delta slot predates the replica's sync point",
        )
    fold = _verify(machine, delta, replica.last_synced_key, replica.fold)
    if isinstance(fold, MismatchError):
        return fold
    # A heartbeat keeps the fold it would otherwise replace with an empty one.
    kept = fold if delta.applied_inputs else replica.fold
    # Positional arguments: this runs once per record, and keywords cost more.
    return ReplicaState(delta.result_state, delta.slot, kept)


def reconcile(command: CommandRecord, machine: TwinMachine) -> tuple[int, ...] | Reject:
    """Vet an operator command before the physical twin executes it.

    Accepted commands come back as the input tuple to execute at the next slot.
    """
    if not command.inputs:
        return Reject(reason="empty_command")
    for sym in command.inputs:
        if sym not in machine.inputs:
            return Reject(reason="unknown_input", detail=sym)
    return command.inputs


class PhysicalTwin:
    """Stateful physical endpoint: executes inputs, emits one record per sync period.

    The emission anchor sits just after the last key crossing already
    shipped, so records stay verifiable from the replica's key state even
    while the machine sits between key states.
    """

    def __init__(self, machine: TwinMachine, sync_period: int = 1):
        if sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        self.machine = machine
        self.sync_period = sync_period
        self.state = machine.initial
        self.log = ExecutionLog()
        # Kept current on every input, so no tick reads the log.
        self._key = machine.initial  # key state after the whole log
        self._anchor_key = machine.initial  # key state in force at the anchor
        self._inputs: list[int] = []  # every input logged since the anchor
        self._crossed = 0  # len(_inputs) just after the last key crossing
        self._shipped = 0  # how many of _inputs the last record carried

    def current_key(self) -> int:
        return self._key

    def apply_input(self, slot: int, sym: int) -> LogEntry:
        nxt = step(self.machine, self.state, sym)
        entry = LogEntry(
            slot=slot,
            input=sym,
            from_state=self.state,
            to_state=nxt,
            is_key_crossing=nxt in self.machine.key_states,
        )
        self.log.append(entry)
        self.state = nxt
        self._inputs.append(sym)
        if entry.is_key_crossing:
            self._key = nxt
            self._crossed = len(self._inputs)
        return entry

    def tick(self, slot: int) -> DeltaRecord | None:
        """End-of-slot emission: a delta when the log moved, a heartbeat otherwise."""
        if slot % self.sync_period != 0:
            return None
        inputs = self._inputs
        if len(inputs) == self._shipped:
            key = self._key
            return DeltaRecord(base_state=key, result_state=key, applied_inputs=(), slot=slot)
        record = DeltaRecord(
            base_state=self._anchor_key,
            result_state=self._key,
            applied_inputs=tuple(inputs),
            slot=slot,
        )
        # Every crossing up to here is now shipped: the next record starts
        # just after the last one, from the key state it established.
        del inputs[: self._crossed]
        self._crossed = 0
        self._shipped = len(inputs)
        self._anchor_key = self._key
        return record


class VirtualTwin:
    """Stateful digital endpoint: applies verified deltas, queues operator commands."""

    def __init__(self, machine: TwinMachine, sync_period: int = 1):
        if sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        self.machine = machine
        self.sync_period = sync_period
        self.replica = ReplicaState(last_synced_key=machine.initial)
        self.last_sync_seq = 0
        self.pending_commands: list[CommandRecord] = []

    def queue_operator_inputs(self, slot: int, inputs: tuple[int, ...]) -> None:
        self.pending_commands.append(CommandRecord(inputs=inputs, issued_slot=slot))

    def tick(self, slot: int) -> list[CommandRecord] | None:
        """Flush queued commands at sync boundaries; None between them."""
        if slot % self.sync_period != 0:
            return None
        commands, self.pending_commands = self.pending_commands, []
        return commands

    def apply_sync(self, seq: int, delta: DeltaRecord) -> MismatchError | None:
        result = apply_delta(self.replica, delta, self.machine)
        if isinstance(result, MismatchError):
            return result
        self.replica = result
        self.last_sync_seq = seq
        return None
