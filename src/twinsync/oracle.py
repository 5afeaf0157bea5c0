"""Closed-form oracle for the full replication stack.

The whole pipeline (log, delta records, framing, channel, replica) must be
observationally equivalent to simply folding the transition table over the
inputs and projecting key states, delayed by the channel latency.  This
module computes that closed form directly, with none of the protocol
machinery, and diffs full-stack runs against it over exhaustively enumerated
input schedules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product

from .machine import TwinMachine
from .runner import run_scenario
from .scenario import ScenarioSpec

MAX_STATES = 6  # exhaustive enumeration stays small only for small machines


@dataclass(frozen=True)
class Divergence:
    schedule: tuple[int, ...]
    slot: int
    expected: int
    got: int
    what: str


@dataclass
class OracleReport:
    machine_id: str
    max_schedule_len: int
    schedules_checked: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def expected_traces(
    machine: TwinMachine,
    inputs_by_slot: dict[int, list[int]],
    total_slots: int,
    latency_slots: int = 1,
    sync_period: int = 1,
) -> tuple[list[int], list[int], list[int]]:
    """Pure fold: per-slot (physical state, physical key, replica key).

    The replica's expected key at the end of slot t is the physical key at
    the newest sync emission old enough to have been delivered, the last
    multiple of the period at or before t - latency; before one, the initial.
    """
    state = machine.initial
    key = machine.initial
    phys_state, phys_key = [], []
    for slot in range(total_slots):
        for sym in inputs_by_slot.get(slot, []):
            state = machine.transitions[(state, sym)]
            if state in machine.key_states:
                key = state
        phys_state.append(state)
        phys_key.append(key)
    replica = []
    for slot in range(total_slots):
        horizon = slot - latency_slots
        emission = horizon - horizon % sync_period
        replica.append(machine.initial if emission < 0 else phys_key[emission])
    return phys_state, phys_key, replica


def build_schedule_scenario(
    machine: TwinMachine, schedule: tuple[int, ...], seed: int = 0
) -> ScenarioSpec:
    """Attack-free scenario applying one input per slot starting at slot 1."""
    total = len(schedule) + 2
    return ScenarioSpec(
        machine=machine,
        total_slots=total,
        name="oracle",
        operator_inputs_physical=[(slot + 1, sym) for slot, sym in enumerate(schedule)],
        seed=seed,
    )


def oracle_check(machine: TwinMachine, max_schedule_len: int) -> OracleReport:
    """Diff the full stack against the closed form on every schedule up to the cap.

    `machine` is one the scenario loader validated (`scenario.resolve_machine`)."""
    if not 0 <= max_schedule_len <= 8:
        raise ValueError("exhaustive enumeration takes schedule lengths 0 to 8")
    if len(machine.states) > MAX_STATES or len(machine.inputs) > 3:
        limits = f"<= {MAX_STATES} states, <= 3 inputs"
        raise ValueError(f"oracle_check is for small machines ({limits})")

    report = OracleReport(machine_id=machine.machine_id, max_schedule_len=max_schedule_len)
    symbols = sorted(machine.inputs)
    for length in range(max_schedule_len + 1):
        for schedule in product(symbols, repeat=length):
            report.schedules_checked += 1
            _check_one(machine, schedule, report)
    return report


def _check_one(
    machine: TwinMachine, schedule: tuple[int, ...], report: OracleReport
) -> None:
    spec = build_schedule_scenario(machine, schedule)
    inputs_by_slot = {slot: [sym] for slot, sym in spec.operator_inputs_physical}
    exp_state, exp_key, exp_replica = expected_traces(machine, inputs_by_slot, spec.total_slots)
    compared = (  # (row field, expected trace, divergence name)
        ("physical_state", exp_state, "physical_state"),
        ("physical_key_state", exp_key, "physical_key"),
        ("replica_key_state", exp_replica, "replica_key"),
    )
    run = run_scenario(spec)
    for row in run.slots:
        slot = row["slot"]
        for column, trace, what in compared:
            got = row[column]
            if got != trace[slot]:
                report.divergences.append(Divergence(schedule, slot, trace[slot], got, what))
    if run.detection_events:
        report.divergences.append(
            Divergence(schedule, -1, 0, len(run.detection_events), "unexpected_detection_events")
        )
