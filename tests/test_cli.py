"""Command line behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinsync
from twinsync.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from twinsync.machine import machine_to_dict
from twinsync.scenario import fixture_path, load_fixture_json

# A machine whose second key state does not fit the wire's u32.
WIDE_MACHINE = {
    "machine_id": "wide",
    "states": [0, 2**32],
    "inputs": [1],
    "initial": 0,
    "key_states": [0, 2**32],
    "delta": [[0, 1, 2**32], [2**32, 1, 0]],
}


@pytest.fixture
def walkthrough_path() -> str:
    return str(fixture_path("fig4_walkthrough.json"))


def write_json(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_clean_scenario_exits_zero(self, walkthrough_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["run", "--scenario", walkthrough_path, "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["schema"] == "twinsync.report.v5"
        assert report["summary"]["verdict"] == "pass"
        assert "verdict: pass" in capsys.readouterr().err

    def test_report_goes_to_stdout_by_default(self, walkthrough_path, capsysbinary):
        rc = main(["run", "--scenario", walkthrough_path])
        assert rc == EXIT_OK
        report = json.loads(capsysbinary.readouterr().out)
        assert report["summary"]["verdict"] == "pass"

    def test_detection_mismatch_exits_one(self, tmp_path):
        """The INSERT's forged frame lands in the DELETE's window, so the DELETE
        is credited R1 and R2 where R1 alone is expected."""
        doc = {
            "machine": "kettle",
            "total_slots": 8,
            "operator_inputs_physical": [[1, 1], [2, 1], [3, 1], [4, 1]],
            "attacks": [
                {"kind": "DELETE", "slot": 5, "direction": "phys_to_virt", "params": {}},
                {"kind": "INSERT", "slot": 6, "direction": "phys_to_virt",
                 "params": {"raw_hex": "deadbeef" * 5}},
            ],
        }
        path = write_json(tmp_path, "diverge.json", doc)
        out = tmp_path / "report.json"
        rc = main(["run", "--scenario", path, "--out", str(out)])
        assert rc == EXIT_MISMATCH
        report = json.loads(out.read_text())
        assert report["summary"]["verdict"] == "detection_mismatch"
        assert [a["matched"] for a in report["summary"]["attacks"]] == [False, True]

    def test_invalid_scenario_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"machine": "kettle"})
        rc = main(["run", "--scenario", path])
        assert rc == EXIT_INVALID
        assert "total_slots: required" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        rc = main(["run", "--scenario", str(tmp_path / "absent.json")])
        assert rc == EXIT_INVALID

    def test_attack_without_target_runs_and_exits_zero(self, tmp_path):
        doc = {
            "machine": "kettle",
            "total_slots": 6,
            "attacks": [
                {"kind": "REPLAY", "slot": 3, "direction": "phys_to_virt",
                 "params": {"capture_slot": 3, "capture_index": 7}}
            ],
        }
        path = write_json(tmp_path, "authoring.json", doc)
        out = tmp_path / "report.json"
        rc = main(["run", "--scenario", path, "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["slots"][3]["adversary_actions"][0]["no_target"] is True
        (row,) = report["summary"]["attacks"]
        assert row["no_target"] is True
        assert report["summary"]["matrix"] == report["summary"]["expected_matrix"] == {}
        assert report["summary"]["verdict"] == "pass"

    def test_record_too_big_for_a_frame_exits_two(self, tmp_path):
        """Valid, yet one record would carry 16,383 inputs: exit 2, no traceback.

        Every input of a toggle changes its state, so each one ships."""
        toggle = {
            "machine_id": "toggle",
            "states": [0, 1],
            "inputs": [1],
            "initial": 0,
            "key_states": [0],
            "delta": [[0, 1, 1], [1, 1, 0]],
        }
        doc = {
            "machine": toggle,
            "total_slots": 4,
            "operator_inputs_physical": [[1, 1]] * 16383,
        }
        path = write_json(tmp_path, "burst.json", doc)
        assert main(["validate", "--scenario", path]) == EXIT_OK
        proc = subprocess.run(
            [sys.executable, "-m", "twinsync", "run", "--scenario", path,
             "--out", str(tmp_path / "report.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INVALID
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("scenario: ")
        assert proc.stderr.count("\n") == 1


class TestValidate:
    def test_bundled_scenario_is_valid(self, walkthrough_path, capsys):
        rc = main(["validate", "--scenario", walkthrough_path])
        assert rc == EXIT_OK
        assert "scenario ok" in capsys.readouterr().out

    def test_problems_are_listed(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "bad.json", {"machine": "nope", "total_slots": 0, "seed": -1}
        )
        rc = main(["validate", "--scenario", path])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.count("scenario:") == 3


    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_drop_probability_exits_two(self, tmp_path, capsys, number):
        """json.load reads these non-JSON numbers; each fails the [0, 1] bound."""
        path = tmp_path / "lossy.json"
        path.write_text(
            '{"machine": "kettle", "total_slots": 5,'
            f' "channels": {{"phys_to_virt": {{"drop_probability": {number}}}}}}}'
        )
        assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "scenario: channels.phys_to_virt.drop_probability: must be >= 0 and <= 1\n"
        )

    def test_non_integer_capture_slot_exits_two(self, tmp_path):
        doc = json.loads(fixture_path("attack_matrix.json").read_text())
        doc["attacks"][3]["params"]["capture_slot"] = "x"
        path = write_json(tmp_path, "replay.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "twinsync", "validate", "--scenario", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INVALID
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "scenario: attacks[3].params.capture_slot: must be an integer\n"


class TestOracle:
    def test_bundled_machine(self, capsys):
        rc = main(["oracle", "--machine", "kettle", "--max-len", "3"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["schedules_checked"] == 15

    def test_machine_from_file(self, tmp_path, kettle):
        path = write_json(tmp_path, "machine.json", machine_to_dict(kettle))
        rc = main(["oracle", "--machine", path, "--max-len", "2"])
        assert rc == EXIT_OK

    def test_negative_max_len_exits_two(self, capsys):
        rc = main(["oracle", "--machine", "kettle", "--max-len", "-1"])
        assert rc == EXIT_INVALID
        assert capsys.readouterr().err.startswith("oracle: ")

    def test_missing_machine_file_exits_two(self, tmp_path):
        rc = main(["oracle", "--machine", str(tmp_path / "absent.json")])
        assert rc == EXIT_INVALID

    def test_oversized_machine_exits_two(self, tmp_path, capsys):
        doc = {
            "machine_id": "wide",
            "states": list(range(9)),
            "inputs": [1],
            "initial": 0,
            "key_states": [0],
            "delta": [[s, 1, s] for s in range(9)],
        }
        path = write_json(tmp_path, "wide.json", doc)
        rc = main(["oracle", "--machine", path, "--max-len", "3"])
        assert rc == EXIT_INVALID
        assert "oracle:" in capsys.readouterr().err

    def test_machine_file_gets_the_inline_checks(self, tmp_path, capsys):
        path = write_json(tmp_path, "wide.json", WIDE_MACHINE)
        assert main(["oracle", "--machine", path]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "oracle: machine.states[1]: must be >= 0 and <= 4294967295\n"
        )


class TestVectors:
    def test_emit_then_verify(self, tmp_path, capsys):
        path = str(tmp_path / "frames.hex")
        assert main(["vectors", "emit", "--path", path]) == EXIT_OK
        assert main(["vectors", "verify", "--path", path]) == EXIT_OK
        assert "verified 3 frames" in capsys.readouterr().out

    def test_corrupted_vector_exits_one(self, tmp_path, capsys):
        path = tmp_path / "frames.hex"
        main(["vectors", "emit", "--path", str(path)])
        lines = path.read_text().splitlines()
        first = lines[0]
        lines[0] = first[:-1] + ("0" if first[-1] != "0" else "1")
        path.write_text("\n".join(lines) + "\n")
        rc = main(["vectors", "verify", "--path", str(path)])
        assert rc == EXIT_MISMATCH
        assert "differs from the canonical encoding" in capsys.readouterr().err

    def test_mismatch_names_the_file_line(self, tmp_path, capsys):
        path = tmp_path / "frames.hex"
        main(["vectors", "emit", "--path", str(path)])
        first, _, third = path.read_text().splitlines()
        path.write_text(f"\n\n{first}\nzz\n{third}\n")
        rc = main(["vectors", "verify", "--path", str(path)])
        assert rc == EXIT_MISMATCH
        assert capsys.readouterr().err.startswith("vectors: line 4: not valid hex")

    def test_missing_vector_file_exits_two(self, tmp_path):
        rc = main(["vectors", "verify", "--path", str(tmp_path / "absent.hex")])
        assert rc == EXIT_INVALID


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["run", "--scenario", "{walkthrough}", "--out", "{tmp}/absent/r.json"],
         EXIT_INVALID, "report: "),
        (["validate", "--scenario", "{tmp}/latin1.json"], EXIT_INVALID, "scenario: "),
        (["run", "--scenario", "{tmp}/latin1.json"], EXIT_INVALID, "scenario: "),
        (["vectors", "verify", "--path", "{tmp}/latin1.hex"], EXIT_MISMATCH, "vectors: "),
        (["validate", "--scenario", "{tmp}/deep.json"], EXIT_INVALID, "scenario: "),
        (["oracle", "--machine", "{tmp}/deep.json"], EXIT_INVALID, "oracle: "),
        (["oracle", "--machine", "{tmp}/wide.json"], EXIT_INVALID, "oracle: "),
        (["validate", "--scenario", "{tmp}/labels_scenario.json"], EXIT_INVALID, "scenario: "),
        (["oracle", "--machine", "{tmp}/labels_machine.json"], EXIT_INVALID, "oracle: "),
        (["validate", "--scenario", "{tmp}/long_int.json"], EXIT_INVALID, "scenario: "),
        (["run", "--scenario", "{tmp}/long_int.json"], EXIT_INVALID, "scenario: "),
        (["oracle", "--machine", "{tmp}/long_int.json"], EXIT_INVALID, "oracle: "),
    ],
    ids=[
        "run_out_dir_missing", "validate_not_utf8", "run_not_utf8", "vectors_not_ascii",
        "validate_too_deep", "oracle_too_deep", "oracle_wider_than_u32", "validate_bad_labels",
        "oracle_bad_labels", "validate_long_integer", "run_long_integer", "oracle_long_integer",
    ],
)
def test_bad_file_gives_one_line_not_a_traceback(argv, code, prefix, walkthrough_path, tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # Longer than the 4,300 digits Python converts from a string by default.
    (tmp_path / "long_int.json").write_text('{"total_slots": ' + "1" * 4301 + "}")
    write_json(tmp_path, "wide.json", WIDE_MACHINE)
    bad_labels = {**load_fixture_json("kettle"), "labels": {"states": 5}}
    write_json(tmp_path, "labels_machine.json", bad_labels)
    write_json(tmp_path, "labels_scenario.json", {"machine": bad_labels, "total_slots": 4})
    vectors = tmp_path / "latin1.hex"
    main(["vectors", "emit", "--path", str(vectors)])
    vectors.write_bytes(b"\xe9" + vectors.read_bytes()[1:])
    args = [a.format(walkthrough=walkthrough_path, tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "twinsync", *args], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, walkthrough_path):
        proc = subprocess.run(
            [sys.executable, "-m", "twinsync", "validate", "--scenario", walkthrough_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "scenario ok" in proc.stdout


def test_every_module_imports_first_in_a_fresh_interpreter():
    """The package root imports nothing, so each entry point loads the modules
    in its own order, and an import cycle must not fail whichever comes first.
    `__init__` loads with each of them, and importing `__main__` runs the CLI."""
    modules = sorted(
        path.stem
        for path in Path(twinsync.__file__).parent.glob("*.py")
        if not path.stem.startswith("__")
    )
    script = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    for loaded in [m for m in sys.modules if m.partition('.')[0] == 'twinsync']:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module('twinsync.' + name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *modules], capture_output=True, text=True
    )
    assert "cli" in modules
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "{walkthrough}"],
        ["run", "--scenario", "{short}"],
        ["oracle", "--machine", "kettle", "--max-len", "1"],
        ["validate", "--scenario", "{walkthrough}"],
        ["vectors", "verify", "--path", "{vectors}"],
    ],
    ids=["run", "run_short", "oracle", "validate", "vectors"],
)
def test_closed_stdout_exits_two_with_one_line(argv, unbuffered, walkthrough_path, tmp_path):
    """Started on a pipe whose read end is already closed, so every write to
    stdout fails however soon it comes.  Buffered, `print` fails only when
    stdout is flushed; unbuffered, at once.  A 3-slot run's report fits in
    the buffer of a stdout on a pipe, so only a flush can fail it, and the
    `verdict` line must not come first."""
    vectors = str(fixture_path("golden_frames.hex"))
    short = write_json(tmp_path, "short.json", {"machine": "kettle", "total_slots": 3})
    args = [a.format(walkthrough=walkthrough_path, vectors=vectors, short=short) for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twinsync", *args],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(w)
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr == "twinsync: stdout closed before the output was written\n"
