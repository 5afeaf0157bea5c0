"""Closed-form oracle: expected traces, exhaustive diffing, and self-efficacy."""

import dataclasses
import json

import pytest

from tests.conftest import HEAT, IDLE
from twinsync.oracle import (
    Divergence,
    build_schedule_scenario,
    expected_traces,
    oracle_check,
)
from twinsync.cli import EXIT_INVALID, main
from twinsync.machine import machine_from_dict
from twinsync.scenario import load_fixture_json


class TestExpectedTraces:
    def test_walkthrough_closed_form(self, kettle):
        inputs = {1: [HEAT], 2: [HEAT], 3: [HEAT], 4: [HEAT]}
        state, key, replica = expected_traces(kettle, inputs, total_slots=8)
        assert state == [0, 25, 50, 75, 100, 100, 100, 100]
        assert key == [0, 0, 0, 0, 100, 100, 100, 100]
        assert replica == [0, 0, 0, 0, 0, 100, 100, 100]

    def test_latency_shifts_the_replica(self, kettle):
        inputs = {1: [HEAT] * 4}
        _, _, replica = expected_traces(kettle, inputs, 6, latency_slots=2)
        assert replica == [0, 0, 0, 100, 100, 100]

    def test_period_quantizes_the_replica(self, kettle):
        inputs = {1: [HEAT] * 4}
        _, key, replica = expected_traces(kettle, inputs, 6, sync_period=2)
        assert key == [0, 100, 100, 100, 100, 100]
        # Emissions at 0, 2, 4; the slot-1 crossing first ships at the slot-2 boundary.
        assert replica == [0, 0, 0, 100, 100, 100]

    def test_multiple_inputs_per_slot(self, kettle):
        inputs = {2: [HEAT, HEAT, HEAT, HEAT, IDLE]}
        state, key, replica = expected_traces(kettle, inputs, 5)
        assert state == [0, 0, 100, 100, 100]
        assert key == [0, 0, 100, 100, 100]
        assert replica == [0, 0, 0, 100, 100]


class TestScenarioBuilder:
    def test_shape(self, kettle):
        spec = build_schedule_scenario(kettle, (HEAT, IDLE, HEAT))
        assert spec.total_slots == 5
        assert spec.operator_inputs_physical == [(1, HEAT), (2, IDLE), (3, HEAT)]
        assert spec.attacks == []

    def test_empty_schedule(self, kettle):
        spec = build_schedule_scenario(kettle, ())
        assert spec.total_slots == 2
        assert spec.operator_inputs_physical == []


class TestOracleCheck:
    def test_kettle_short_exhaustive(self, kettle):
        report = oracle_check(kettle, 4)
        assert report.ok
        assert report.schedules_checked == sum(2**n for n in range(5))
        assert report.to_dict()["ok"] is True

    def test_four_state_machines_short_exhaustive(self, four_state_machines):
        for machine in four_state_machines:
            report = oracle_check(machine, 3)
            assert report.ok, report.to_dict()
            arity = len(machine.inputs)
            assert report.schedules_checked == sum(arity**n for n in range(4))

    def test_schedule_length_is_capped(self, kettle):
        with pytest.raises(ValueError):
            oracle_check(kettle, 9)

    def test_large_state_spaces_are_refused(self):
        machine = machine_from_dict(
            {
                "machine_id": "wide",
                "states": list(range(7)),
                "inputs": [1],
                "initial": 0,
                "key_states": [0],
                "delta": [[s, 1, s] for s in range(7)],
            }
        )
        with pytest.raises(ValueError):
            oracle_check(machine, 3)

    def test_broken_machines_are_refused(self, tmp_path):
        """The oracle's machine loader refuses a machine file with a missing transition."""
        doc = load_fixture_json("kettle")
        doc["delta"] = doc["delta"][:-1]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--machine", str(path), "--max-len", "3"]) == EXIT_INVALID

    def test_refusal_names_each_issue(self, tmp_path, capsys):
        """The loader validates a machine file, so `oracle_check` only ever gets a total one."""
        doc = load_fixture_json("kettle")
        doc["delta"] = [row for row in doc["delta"] if row[0] != 100]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--machine", str(path), "--max-len", "3"]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "oracle: machine: non_total_transition: no transition defined for state 100 on input 1;"
            " machine: non_total_transition: no transition defined for state 100 on input 2\n"
        )

    def test_divergence_report_shape(self):
        d = Divergence(schedule=(1, 2), slot=3, expected=0, got=100, what="replica_key")
        assert d.schedule == (1, 2)


class TestOracleEfficacy:
    """The oracle must actually catch a stack that lies."""

    def test_replica_that_never_advances_is_caught(self, kettle, monkeypatch):
        from twinsync.sync import VirtualTwin

        real = VirtualTwin.apply_sync

        def lying_apply_sync(twin, delta):
            key = twin.last_synced_key
            err = real(twin, delta)
            twin.last_synced_key = key
            return err

        monkeypatch.setattr(VirtualTwin, "apply_sync", lying_apply_sync)
        report = oracle_check(kettle, 4)
        assert not report.ok
        assert any(d.what == "replica_key" for d in report.divergences)
        bad = next(d for d in report.divergences if d.what == "replica_key")
        assert bad.schedule == (HEAT, HEAT, HEAT, HEAT)
        assert (bad.expected, bad.got) == (100, 0)

    def test_a_detection_event_on_an_honest_run_is_caught(self, kettle, monkeypatch):
        import twinsync.oracle as oracle_mod

        real_run = oracle_mod.run_scenario

        def run_with_one_event(spec):
            return dataclasses.replace(real_run(spec), detection_events=[{"kind": "TAMPER"}])

        monkeypatch.setattr(oracle_mod, "run_scenario", run_with_one_event)
        report = oracle_check(kettle, 1)
        assert not report.ok
        assert report.divergences == [
            Divergence(schedule, -1, 0, 1, "unexpected_detection_events")
            for schedule in [(), *((sym,) for sym in sorted(kettle.inputs))]
        ]

    def test_physical_trace_corruption_is_caught(self, kettle, monkeypatch):
        from twinsync.machine import TwinMachine

        skewed = {k: v for k, v in kettle.transitions.items()}
        skewed[(75, HEAT)] = 75  # quietly refuse to boil
        broken = TwinMachine(
            machine_id=kettle.machine_id,
            states=kettle.states,
            inputs=kettle.inputs,
            initial=kettle.initial,
            key_states=kettle.key_states,
            transitions=skewed,
            labels=kettle.labels,
        )
        import twinsync.oracle as oracle_mod

        real_build = oracle_mod.build_schedule_scenario

        def build_with_broken_machine(machine, schedule, seed=0):
            spec = real_build(broken, schedule, seed)
            return spec

        monkeypatch.setattr(oracle_mod, "build_schedule_scenario", build_with_broken_machine)
        report = oracle_check(kettle, 4)
        assert not report.ok
        assert any(d.what == "physical_state" for d in report.divergences)
