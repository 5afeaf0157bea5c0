"""Acceptance gate.

Six criteria, each printed as one PASS/FAIL line:

    1  one-slot-lag consistency over 200 randomized machines and schedules
    2  oracle equivalence, exhaustive schedules up to length 6
    3  attack matrix: all eight kind x direction cells detected exactly
    4  exhaustive bit-flip and duplicate-delivery completeness
    5  forgery fuzzing: 10,000 unauthenticated frames, zero accepted
    6  byte-identical reports across processes, golden vectors vs an
       independent BLAKE2s
"""

import functools
import random
import subprocess
import sys
import time

import pytest

from tests.conftest import manual_tag
from twinsync.adversary import forge_frame_bytes
from twinsync.frames import (
    Frame,
    MsgType,
    U64_MAX,
    decode_frame,
    encode_frame,
)
from twinsync.machine import machine_from_dict, validate_machine
from twinsync.netsim import Direction, SplitMix64
from twinsync.oracle import oracle_check
from twinsync.runner import PHYSICAL_SENDER_ID, run_scenario
from twinsync.scenario import (
    ScenarioSpec,
    fixture_path,
    load_bundled_scenario,
    load_fixture_json,
    scenario_from_dict,
)
from twinsync.sync import Refusal
from twinsync.vectors import GOLDEN_VECTORS, golden_frame_bytes, verify_golden_vectors


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _remember_capture_manager(request):
    """Stash pytest's capture manager so PASS/FAIL lines reach the terminal."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def criterion(num: int, name: str):
    """Print exactly one ACCEPTANCE line per criterion, pass or fail.

    Capture is suspended around the print so the lines appear even without
    `-s`.
    """

    def emit(line: str) -> None:
        if _CAPTURE_MANAGER is not None:
            with _CAPTURE_MANAGER.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                emit(f"\nACCEPTANCE {num} {name}: FAIL ({exc})")
                raise
            suffix = f" ({detail})" if detail else ""
            emit(f"\nACCEPTANCE {num} {name}: PASS{suffix}")

        return wrapper

    return decorate


def _random_machine(rng: random.Random, index: int):
    n_states = rng.randint(2, 6)
    n_inputs = rng.randint(1, 3)
    states = list(range(n_states))
    inputs = list(range(1, n_inputs + 1))
    key_states = sorted({0} | {s for s in states if rng.random() < 0.4})
    delta = [[s, i, rng.randrange(n_states)] for s in states for i in inputs]
    machine = machine_from_dict(
        {
            "machine_id": f"random_{index}",
            "states": states,
            "inputs": inputs,
            "initial": 0,
            "key_states": key_states,
            "delta": delta,
        }
    )
    assert validate_machine(machine) == []
    return machine


@criterion(1, "one-slot-lag consistency")
def test_acceptance_1_one_slot_lag():
    """Attack-free, latency 1, period 1: the replica's key state at the end of
    slot t equals the physical key state at the end of slot t-1, for every t >= 1,
    across 200 randomized machines and schedules of up to 20 input slots."""
    started = time.perf_counter()
    rng = random.Random(20260814)
    checked_slots = 0
    for index in range(200):
        machine = _random_machine(rng, index)
        symbols = sorted(machine.inputs)
        total = rng.randint(3, 22)
        physical = []
        for slot in range(1, total):
            if rng.random() < 0.6:
                physical.append((slot, rng.choice(symbols)))
            if rng.random() < 0.15:
                physical.append((slot, rng.choice(symbols)))
        virtual = []
        if index % 4 == 0:
            virtual = [
                (rng.randrange(1, total), rng.choice(symbols))
                for _ in range(rng.randint(1, 2))
            ]
        spec = ScenarioSpec(
            machine=machine,
            total_slots=total,
            name=f"lag_{index}",
            operator_inputs_physical=physical,
            operator_inputs_virtual=sorted(virtual),
            seed=rng.getrandbits(64),
        )
        report = run_scenario(spec)
        rows = report.slots
        for t in range(1, len(rows)):
            assert rows[t]["replica_key_state"] == rows[t - 1]["physical_key_state"], (
                f"machine {machine.machine_id}, slot {t}: replica "
                f"{rows[t]['replica_key_state']} != previous physical key "
                f"{rows[t - 1]['physical_key_state']}"
            )
            checked_slots += 1
        assert report.summary["event_count"] == 0, (
            f"machine {machine.machine_id}: unexpected detection events "
            f"{report.detection_events}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    return f"200 runs, {checked_slots} slot comparisons, {elapsed:.2f}s"


@criterion(2, "oracle equivalence, exhaustive to length 6")
def test_acceptance_2_oracle_equivalence(kettle, four_state_machines):
    started = time.perf_counter()
    total_schedules = 0
    for machine in [kettle, *four_state_machines]:
        report = oracle_check(machine, max_schedule_len=6)
        assert report.ok, (
            f"{machine.machine_id}: {len(report.divergences)} divergences, "
            f"first: {report.divergences[:1]}"
        )
        arity = len(machine.inputs)
        assert report.schedules_checked == sum(arity**n for n in range(7))
        total_schedules += report.schedules_checked
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget is 60s"
    return f"4 machines, {total_schedules} schedules, 0 divergences, {elapsed:.2f}s"


@criterion(3, "attack matrix detected exactly")
def test_acceptance_3_attack_matrix():
    report = run_scenario(load_bundled_scenario("attack_matrix"))
    rows = report.summary["attacks"]
    assert len(rows) == 8
    for row in rows:
        assert row["event_count"] >= 1, f"no event within the window: {row}"
        assert row["matched"], (
            f"{row['kind']} on {row['direction']}: expected "
            f"{row['expected_requirements']}, detected {row['detected_requirements']}"
        )
    assert all(e["attack_scheduled"] for e in report.detection_events)
    assert report.summary["matrix"] == report.summary["expected_matrix"]
    assert report.summary["spurious_event_count"] == 0
    assert report.summary["verdict"] == "pass"

    control_doc = load_fixture_json("attack_matrix")
    control_doc["attacks"] = []
    control = run_scenario(scenario_from_dict(control_doc))
    assert control.summary["event_count"] == 0, (
        f"control run raised events: {control.detection_events}"
    )
    return "8/8 matched within grace+1, control run silent"


@criterion(4, "bit-flip and duplicate completeness")
def test_acceptance_4_tamper_and_replay_completeness():
    started = time.perf_counter()

    flips = 0
    auth_fails = 0
    for vector, data in zip(GOLDEN_VECTORS, golden_frame_bytes()):
        for offset in range(len(data)):
            for bit in range(8):
                corrupted = bytearray(data)
                corrupted[offset] ^= 1 << bit
                link = (vector.frame.session_id, -1, vector.frame.sender_id)
                out = decode_frame(
                    bytes(corrupted), vector.key, *link, (vector.frame.msg_type,), U64_MAX, 0
                )
                flips += 1
                if isinstance(out, Refusal) and out.outcome == "auth_fail":
                    auth_fails += 1
    assert auth_fails == flips, f"{flips - auth_fails} of {flips} flips not AUTH_FAIL"

    key = b"\x42" * 32
    duplicates = 0
    replays = 0
    candidates = [
        (v.key, v.frame, data) for v, data in zip(GOLDEN_VECTORS[1:], golden_frame_bytes()[1:])
    ]
    for slot in range(1, 21):
        frame = Frame(
            msg_type=(slot % 3) + 1,
            sender_id=slot % 4,
            session_id=1,
            slot=slot,
            payload=bytes(slot % 9),
        )
        candidates.append((key, frame, encode_frame(frame, key)))
    for frame_key, frame, data in candidates:
        link = (frame.sender_id, (frame.msg_type,), frame.slot, frame.slot)
        first = decode_frame(data, frame_key, frame.session_id, -1, *link)
        assert isinstance(first, Frame), f"vector did not decode cleanly: {first}"
        # The link has now accepted the frame's slot.
        second = decode_frame(data, frame_key, frame.session_id, first.slot, *link)
        duplicates += 1
        if isinstance(second, Refusal) and second.outcome == "replay":
            replays += 1
    assert replays == duplicates, f"{duplicates - replays} duplicates not flagged"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    return (
        f"{flips} bit flips all AUTH_FAIL, {duplicates} duplicates all REPLAY, "
        f"{elapsed:.2f}s"
    )


@criterion(5, "forgery fuzzing, zero accepted")
def test_acceptance_5_forgery_resistance():
    rng = random.Random(0xF00D)
    forge_rng = SplitMix64(0xF00D)
    key = bytes(range(32))
    accepted = 0
    outcomes = {"malformed": 0, "auth_fail": 0, "replay": 0}
    for index in range(10_000):
        if index % 2 == 0:
            data = rng.randbytes(rng.randint(0, 200))
            link = (PHYSICAL_SENDER_ID, (MsgType.STATE_SYNC,))
        else:
            template = {
                "msg_type": rng.randint(1, 3),
                "sender_id": rng.randrange(2**32),
                "session_id": rng.randrange(2**64),
                "slot": rng.randrange(2**16),
                "payload_hex": rng.randbytes(rng.randint(0, 40)).hex(),
            }
            data = forge_frame_bytes(template, forge_rng)
            link = (template["sender_id"], (template["msg_type"],))
        out = decode_frame(data, key, 1, -1, *link, U64_MAX, 0)
        if isinstance(out, Frame):
            accepted += 1
        else:
            outcomes[out.outcome] += 1
    assert accepted == 0, f"{accepted} forged frames were accepted"
    assert outcomes["replay"] == 0  # a fresh session-1 link, nothing accepted
    assert outcomes["auth_fail"] >= 5000  # every template forgery
    return (
        f"10000 frames rejected ({outcomes['malformed']} malformed, "
        f"{outcomes['auth_fail']} auth failures)"
    )


@criterion(6, "deterministic reports and golden vectors")
def test_acceptance_6_determinism_and_golden_vectors(tmp_path):
    for name in ("fig4_walkthrough", "attack_matrix"):
        scenario = str(fixture_path(name + ".json"))
        payloads = []
        for attempt in (1, 2):
            out = tmp_path / f"{name}.{attempt}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "twinsync", "run",
                 "--scenario", scenario, "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"{name}: reports differ between processes"

    for vector, data in zip(GOLDEN_VECTORS, golden_frame_bytes()):
        body, tag = data[:-32], data[-32:]
        assert tag == manual_tag(vector.key, body), vector.description
    assert verify_golden_vectors(str(fixture_path("golden_frames.hex"))) == 3
    assert len(GOLDEN_VECTORS) == 3
    return "2 scenarios byte-identical across processes, 3 golden frames re-derived"
