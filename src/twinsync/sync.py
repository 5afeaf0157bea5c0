"""Delta-based key-state replication between the physical twin and its replica.

The physical twin executes the machine and once per sync period emits a
DeltaRecord: the state at its anchor, the inputs since then that changed
the state, and the key state it claims to be in.  A self-loop is never
shipped: it moves neither the fold's end state nor the last key state the
fold visits.  The replica never force-sets its state; it re-folds the inputs
through its own copy of the transition table and only accepts the result if
the fold confirms the claim.  The reverse path carries operator inputs
(CommandRecord), never states: the physical twin re-executes them itself
after a plausibility check.

The anchor is the newest emission the replica has acknowledged, as in the
delta intervals of delta-state CRDTs (Almeida, Shoker and Baquero, JPDC 2018)
and TCP's cumulative acknowledgement (RFC 9293 section 3.4): every down-link
record, a command or the idle ACK, carries the newest accepted emission
slot, plus one so that slot 0 differs from nothing accepted.  A record
lost or deleted in transit is re-covered by the next one, which starts from
the same anchor.  The anchor may be a state outside the key set.  The
replica is the VirtualTwin itself: its `held` map keeps every state it
reached at an accepted emission, with the key states in force there, and
`apply_sync` verifies a record from any of them.

The runner is the one sync clock: it ticks both twins once at each boundary,
every `period` slots, so a period with no activity still yields an empty
heartbeat record from each and the other side can tell silence from a
deleted message.  An operator input goes out in the COMMAND of the first
boundary at or after its slot (`command_inputs`), which validation bounds.

A check that refuses what arrived returns a `Refusal`: `apply_sync` and
`reconcile` here, and `frames.decode_frame`, which imports it from this
module.  The value carries the outcome the report's slot row writes and the
detail its event writes, and the detector maps the outcome to an event kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import (
    ExecutionLog,
    LogEntry,
    TwinMachine,
    UnknownInput,
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
    acked: int  # newest accepted emission slot + 1, 0 for none


@dataclass(frozen=True, slots=True)
class Refusal:
    """A refused frame or record: `outcome` is what its slot row writes, `detail`
    what its event writes."""

    outcome: str
    detail: dict


def _mismatch(mismatch: str, expected: int, got: int, reason: str) -> Refusal:
    """A delta record the replica refuses; `mismatch` names the check that failed."""
    detail = {"mismatch": mismatch, "expected": expected, "got": got, "reason": reason}
    return Refusal("state_mismatch", detail)


def fold_key_state(
    machine: TwinMachine, base: int, inputs: tuple[int, ...]
) -> tuple[int, int | None]:
    """Walk the inputs from base; return (final state, last key state visited).

    The last key visited starts as base itself when base is a key state and
    is None otherwise.
    """
    state, key_states = base, machine.key_states
    last_key = base if base in key_states else None
    for sym in inputs:
        state = step(machine, state, sym)
        if state in key_states:
            last_key = state
    return state, last_key


def reconcile(command: CommandRecord, machine: TwinMachine) -> Refusal | None:
    """Vet an operator command before the physical twin executes it.

    None means accepted: the physical twin executes its inputs at the next slot.
    """
    for sym in command.inputs:
        if sym not in machine.inputs:
            return Refusal("command_rejected", {"reason": "unknown_input", "input": sym})
    return None


def command_inputs(schedule: list[tuple[int, int]], period: int) -> dict[int, tuple[int, ...]]:
    """The operator's (slot, input) schedule grouped by the boundary whose COMMAND carries it.

    An input goes out at the first boundary at or after its slot, in
    schedule order.
    """
    groups: dict[int, list[int]] = {}
    for slot, sym in schedule:
        groups.setdefault(-(-slot // period) * period, []).append(sym)
    return {boundary: tuple(inputs) for boundary, inputs in groups.items()}


class PhysicalTwin:
    """Stateful physical endpoint: executes inputs, emits a record at each tick.

    A record goes out in the up-link frame of its emission slot.  It carries
    the state at the anchor, the current key state and every input since the
    anchor that changed the state, so a record stays a few inputs long
    however long the machine idles.  The anchor moves to the newest record
    the replica has acknowledged (`on_ack`).
    """

    def __init__(self, machine: TwinMachine):
        self.machine = machine
        self.state = machine.initial
        self.key_state = machine.initial  # key state after the whole log
        self.log = ExecutionLog()
        # Kept current on every input, so no tick reads the log.  Positions
        # count every state-changing input since the start.
        self._base = machine.initial  # state at the anchor
        self._anchor = 0  # position of the anchor
        self._inputs: list[int] = []  # every state-changing input since the anchor
        self._unacked: list[tuple[int, int, int]] = []  # (slot, position, state) after the anchor

    def apply_input(self, slot: int, sym: int) -> None:
        state = self.state
        nxt = step(self.machine, state, sym)
        crossing = nxt in self.machine.key_states
        self.log.entries.append(LogEntry(slot, sym, state, nxt, crossing))
        if nxt != state:
            self._inputs.append(sym)
            self.state = nxt
            if crossing:
                self.key_state = nxt

    def tick(self, slot: int) -> DeltaRecord:
        """The boundary's emission: the inputs since the anchor, a heartbeat when none."""
        inputs, unacked = self._inputs, self._unacked
        # Positional arguments: this runs once per record, and keywords cost more.
        record = DeltaRecord(self._base, self.key_state, tuple(inputs), slot)
        end = self._anchor + len(inputs)
        # Keep only records with inputs past the newest kept one: len(_unacked) <= len(_inputs).
        if end > (unacked[-1][1] if unacked else self._anchor):
            unacked.append((slot, end, self.state))
        return record

    def on_ack(self, acked: int) -> None:
        """Anchor at the newest unacknowledged record emitted before slot `acked`.

        `acked` is a CommandRecord's: the newest accepted emission slot + 1.
        An acknowledgement at or behind the anchor changes nothing.
        """
        unacked = self._unacked
        n = 0
        while n < len(unacked) and unacked[n][0] < acked:
            n += 1
        if n:
            _, position, self._base = unacked[n - 1]
            del unacked[:n]
            del self._inputs[: position - self._anchor]
            self._anchor = position


class VirtualTwin:
    """Stateful digital endpoint, the replica: verifies delta records, sends operator commands.

    `held` maps every state the replica reached at an accepted emission to
    the key states in force there; a record verifies from any of them.  It
    starts as the initial key state held with itself, and is bounded by the
    machine's size rather than the run's length.
    """

    def __init__(self, machine: TwinMachine):
        self.machine = machine
        self.last_synced_key = machine.initial
        self.last_synced_slot = 0
        self.acked = 0  # newest accepted emission slot + 1, 0 for none
        self.held: dict[int, set[int]] = {machine.initial: {machine.initial}}

    def tick(self, inputs: tuple[int, ...]) -> CommandRecord:
        """The boundary's record: the operator inputs it carries.

        It is empty when there are none: the idle heartbeat.  Either way it
        acknowledges the newest accepted sync.  Liveness counts on one frame
        per period each way: a second frame would hide the deletion of the
        first.
        """
        return CommandRecord(inputs, self.acked)

    def apply_sync(self, delta: DeltaRecord) -> Refusal | None:
        """Advance by a verified delta record; on a refusal nothing changes.

        Its base must be a state the replica holds, and the full fold of its
        inputs from there must confirm the claim: the last key state the
        fold visits, or, when it visits none, one of the key states held
        with the base.  Order is the decoder's: a record reaches here only
        from a frame stamped after the up link's newest accepted slot.
        """
        held = self.held
        base, claim = delta.base_state, delta.result_state
        if base not in held:
            return _mismatch(
                "base_mismatch",
                self.last_synced_key,
                base,
                "delta base is no state the replica has held",
            )
        try:
            state, last_key = fold_key_state(self.machine, base, delta.applied_inputs)
        except UnknownInput as exc:
            return _mismatch("unreachable_result", claim, claim, f"fold failed: {exc}")
        confirmed = claim == last_key if last_key is not None else claim in held[base]
        if not confirmed:
            return _mismatch(
                "unreachable_result",
                last_key if last_key is not None else base,
                claim,
                "claimed result not reached by folding the inputs",
            )
        if state not in held:
            held[state] = set()
        held[state].add(claim)
        self.last_synced_key = claim
        self.last_synced_slot = delta.slot
        self.acked = delta.slot + 1
        return None
