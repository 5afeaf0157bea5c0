"""A reach map of `src/twinsync`: every function-body statement is reached
through an entry point a user has, or is named in `UNREACHED` with why not.

`test_every_unreached_statement_is_listed` traces the package's function
bodies with `sys.settrace` while it drives only what a user can drive:

- `run_scenario` and the report writer on the bundled scenarios, on the
  seed-0 documents of the four bench workloads (`bench/workloads.py`,
  imported, never changed) and on a fixed adversarial corpus: frames tagged
  with a link's own key that break each check in turn, reflections, and
  actions with no target;
- `scenario_from_dict` on fixed invalid documents;
- `cli.main` on every subcommand, with good and bad arguments, a burst of
  16,383 toggles in one slot among them;
- `oracle_check`, and the golden vectors.

Nothing is drawn at random.  Module-level lines run at import whatever the
entry point, so only function bodies count.  A statement counts once, under
the first line of its text, and is reached when any of its lines runs.  A
row is `("module:qualname", "the statement's first line, stripped")`, so a
row survives edits elsewhere in its file.

A statement no entry point reaches fails the test until it is deleted or
listed, and a listed statement that became reachable fails it until its
row goes.  To update the table, run this file and read the failure: it
prints each module's counts and every row to add or drop.
"""

from __future__ import annotations

import ast
import hashlib
import json
import struct
import sys
from collections import Counter
from pathlib import Path
from types import CodeType

import pytest

import twinsync
from tests.conftest import import_bench_module
from twinsync import frames
from twinsync.cli import main
from twinsync.frames import HEADER_STRUCT, MAGIC, VERSION, MsgType
from twinsync.netsim import Direction
from twinsync.oracle import oracle_check
from twinsync.runner import PHYSICAL_SENDER_ID, VIRTUAL_SENDER_ID, run_scenario
from twinsync.scenario import (
    DEFAULT_KEYS,
    ScenarioInvalid,
    fixture_path,
    load_bundled_scenario,
    load_fixture_json,
    resolve_machine,
    scenario_from_dict,
)

SRC = Path(twinsync.__file__).parent

CLOSED_STDOUT = (
    "entry point `twinsync` writing to a closed stdout only, "
    "which tests/test_cli.py drives in a subprocess"
)
FAULT_ONLY = "a fault of the program only: unit tests call it directly or monkeypatch the stack"
BENCH_15 = "bench-held: ROADMAP item 15 deletes it, with bench/probes.py's probe"
BENCH_17 = "bench-held: ROADMAP item 17 deletes it, with the ACK and its probes"

# Every function-body statement no entry point reaches, as (row, reason) pairs.
UNREACHED: tuple[tuple[tuple[str, str], str], ...] = (
    (("cli:main", "except BrokenPipeError:"), CLOSED_STDOUT),
    (
        ("cli:main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
        CLOSED_STDOUT,
    ),
    (
        (
            "cli:main",
            'print("twinsync: stdout closed before the output was written", file=sys.stderr)',
        ),
        CLOSED_STDOUT,
    ),
    (("cli:main", "return EXIT_INVALID"), CLOSED_STDOUT),
    # A MISSED_SYNC that neither a channel drop nor an attack in its window
    # explains: an honest frame lost with no cause.
    (("detector:Detector.summarize", "spurious += 1"), FAULT_ONLY),
    (
        (
            "frames:encode_command_payload",
            'raise ValueError("command must carry at least one input")',
        ),
        BENCH_17,
    ),
    (("machine:project_key_state", "for entry in reversed(log.entries):"), BENCH_15),
    (("machine:project_key_state", "if entry.is_key_crossing:"), BENCH_15),
    (("machine:project_key_state", "return entry.to_state"), BENCH_15),
    (("machine:project_key_state", "return machine.initial"), BENCH_15),
    # The full stack leaving the closed form, as tests/test_oracle.py's efficacy cases make it.
    (("oracle:_check_one", "report.divergences.append("), FAULT_ONLY),
    (
        (
            "oracle:_check_one",
            "report.divergences.append(Divergence(schedule, slot, trace[slot], got, what))",
        ),
        FAULT_ONLY,
    ),
)


# The statements of each module's function bodies.


def _statements(path: Path) -> tuple[dict[int, int], dict[int, tuple[str, str]]]:
    """Each line of a function body of the module at `path`, mapped to the first
    line of the innermost statement (or `except` clause) it belongs to, and each
    such first line to its row."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    owner: dict[int, int] = {}
    rows: dict[int, tuple[str, str]] = {}

    def visit(node: ast.AST, qualname: str, prefix: str, in_body: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                visit(child, name, f"{name}.<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name
                visit(child, name, f"{name}.", in_body)
            else:
                if in_body and isinstance(child, (ast.stmt, ast.excepthandler)):
                    # Inner statements come later and overwrite their lines.
                    for line in range(child.lineno, child.end_lineno + 1):
                        owner[line] = child.lineno
                    row = (f"{path.stem}:{qualname}", text[child.lineno - 1].strip())
                    rows[child.lineno] = row
                visit(child, qualname, prefix, in_body)

    visit(ast.parse(source), "", "", False)
    # Only statements that compile to code: not a docstring, `pass` or `else:`.
    compiled = _code_lines(compile(source, str(path), "exec"))
    runs = {owner[line] for line in compiled if line in owner}
    return owner, {first: row for first, row in rows.items() if first in runs}


def _code_lines(code: CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


class _Reach:
    """A `sys.settrace` tracer that records the lines run in the given files.

    A code object stops being line-traced once every line it holds has run."""

    def __init__(self, files: set[str]):
        self.files = files
        self.reached: dict[str, set[int]] = {name: set() for name in files}
        self._todo: dict[CodeType, set[int]] = {}

    def call(self, frame, event, arg):
        code = frame.f_code
        todo = self._todo.get(code)
        if todo is None:
            mine = code.co_filename in self.files
            todo = self._todo[code] = _code_lines(code) if mine else set()
        return self.line if todo else None

    def line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            todo = self._todo[code]
            if frame.f_lineno in todo:
                todo.discard(frame.f_lineno)
                self.reached[code.co_filename].add(frame.f_lineno)
        return self.line


# The adversarial corpus, built before tracing starts.

HEAT = 1
P2V, V2P = "phys_to_virt", "virt_to_phys"
SENDER = {P2V: PHYSICAL_SENDER_ID, V2P: VIRTUAL_SENDER_ID}
STATE_SYNC, COMMAND, ACK = MsgType.STATE_SYNC, MsgType.COMMAND, MsgType.ACK


def key_holder_frame(
    link: str,
    msg_type: int,
    slot: int,
    payload: bytes,
    *,
    magic: bytes = MAGIC,
    version: int = VERSION,
    sender: int | None = None,
    session: int = 1,
    payload_len: int | None = None,
) -> str:
    """A frame's hex, tagged here with the link's default key, so every
    header field is the test's to choose."""
    length = len(payload) if payload_len is None else payload_len
    sender = SENDER[link] if sender is None else sender
    body = HEADER_STRUCT.pack(magic, version, msg_type, sender, session, slot, length) + payload
    key = DEFAULT_KEYS[Direction(link)]
    return (body + hashlib.blake2s(body, key=key).digest()).hex()


def insert(slot: int, link: str, raw_hex: str) -> dict:
    return {"kind": "INSERT", "slot": slot, "direction": link, "params": {"raw_hex": raw_hex}}


def delete(slot: int, link: str, **params) -> dict:
    return {"kind": "DELETE", "slot": slot, "direction": link, "params": params}


def u32s(*values: int) -> bytes:
    return struct.pack(f">{len(values)}I", *values)


def kettle_run(attacks: list[dict], total_slots: int = 24) -> dict:
    """The kettle boiled by slot 4, under `attacks`."""
    return {
        "machine": "kettle",
        "total_slots": total_slots,
        "operator_inputs_physical": [[slot, HEAT] for slot in range(1, 5)],
        "operator_inputs_virtual": [[6, HEAT]],
        "attacks": attacks,
    }


def on_time(slot: int, link: str, msg_type: int, payload: bytes) -> list[dict]:
    """A key holder's frame stamped `slot - 1` in place of the honest one it
    deletes: it passes every header check, so only its payload can be refused."""
    forged = key_holder_frame(link, msg_type, slot - 1, payload)
    return [delete(slot, link), insert(slot, link, forged)]


def adversarial_corpus() -> list[dict]:
    # Refused on the header, in `decode_frame`'s order: magic, version, type,
    # length, direction (sender and type), future slot and session, replay,
    # then a frame too short to hold a tag.
    header_lies = [
        insert(6, P2V, key_holder_frame(P2V, STATE_SYNC, 5, u32s(0, 0), magic=b"XX")),
        insert(6, P2V, key_holder_frame(P2V, STATE_SYNC, 5, u32s(0, 0), version=3)),
        insert(6, P2V, key_holder_frame(P2V, 9, 5, u32s(0, 0))),
        insert(6, P2V, key_holder_frame(P2V, STATE_SYNC, 5, u32s(0, 0), payload_len=4)),
        insert(6, P2V, key_holder_frame(P2V, STATE_SYNC, 5, u32s(0, 0), sender=2)),
        insert(6, V2P, key_holder_frame(V2P, STATE_SYNC, 5, bytes(8))),
        insert(7, P2V, key_holder_frame(P2V, STATE_SYNC, 40, u32s(100, 100))),
        insert(7, P2V, key_holder_frame(P2V, STATE_SYNC, 6, u32s(100, 100), session=2)),
        insert(7, P2V, key_holder_frame(P2V, STATE_SYNC, 3, u32s(100, 100))),
        insert(8, P2V, "00" * 20),
    ]
    crossing_lost = [delete(5, P2V)]  # the replica lags: the audit fails
    # Slot 9's ACK, after the honest frames of slots 9 and 10 are deleted, is late at 11.
    late_ack = key_holder_frame(V2P, ACK, 9, bytes(8))
    late = [delete(10, V2P), delete(11, V2P), insert(11, V2P, late_ack)]
    # Refused after the header: too short, base not held, an undeclared input
    # in the fold, a claim the fold denies; a COMMAND with no or an undeclared
    # input; a short ACK.
    payload_lies = [
        *on_time(12, P2V, STATE_SYNC, bytes(7)),
        *on_time(13, P2V, STATE_SYNC, u32s(60, 100)),
        *on_time(14, P2V, STATE_SYNC, u32s(100, 100, 99)),
        *on_time(15, P2V, STATE_SYNC, u32s(100, 0)),
        *on_time(12, V2P, COMMAND, bytes(8)),
        *on_time(13, V2P, COMMAND, struct.pack(">QI", 0, 99)),
        *on_time(14, V2P, ACK, bytes(7)),
    ]
    no_target = [
        delete(17, P2V, index=3),
        insert(17, V2P, "00" * 10),
        {"kind": "MODIFY", "slot": 17, "direction": V2P,
         "params": {"index": 1, "payload_hex": "00"}},
        {"kind": "MODIFY", "slot": 18, "direction": P2V,
         "params": {"byte_offset": 500, "xor_mask": 1}},
        {"kind": "REPLAY", "slot": 18, "direction": V2P,
         "params": {"capture_slot": 18, "capture_index": 4}},
    ]
    reflection = [{"kind": "INSERT", "slot": 19, "direction": V2P, "params": {"template": {}}}]
    return [
        kettle_run(crossing_lost + header_lies + late + payload_lies + no_target + reflection),
        {**kettle_run([]), "sync_period_slots": 3, "operator_inputs_virtual": [[1, 1], [2, 2]]},
        # An ACK acknowledging what the replica never got anchors the physical
        # twin at a record then deleted: every later record fails its base check.
        {
            "machine": "kettle",
            "total_slots": 12,
            "sync_period_slots": 3,
            "channels": {P2V: {"latency_slots": 2}},
            "operator_inputs_physical": [[1, HEAT], [2, HEAT], [4, HEAT], [5, HEAT]],
            "attacks": [
                delete(4, V2P),
                insert(4, V2P, key_holder_frame(V2P, ACK, 3, struct.pack(">Q", 1000))),
                delete(5, P2V),
            ],
        },
    ]


TOGGLE = {
    "machine_id": "toggle",
    "states": [0, 1],
    "inputs": [1],
    "initial": 0,
    "key_states": [0],
    "delta": [[0, 1, 1], [1, 1, 0]],
}


def invalid_documents() -> list[object]:
    kettle = load_fixture_json("kettle")
    machines = [
        {**kettle, "initial": 7},
        {**kettle, "initial": 25},
        {**kettle, "key_states": [0, 100, 9]},
        {**kettle, "delta": [[9, 1, 0], [0, 9, 0], [0, 1, 9]] + kettle["delta"][1:]},
        {**kettle, "delta": kettle["delta"][:-1]},
        {**kettle, "delta": kettle["delta"] + [kettle["delta"][0]]},
        {**kettle, "machine_id": 5, "colour": "red"},
    ]
    documents: list[object] = [
        [],
        {"machine": "nope", "total_slots": 0, "seed": -1, "name": 7, "extra": 1},
        {"machine": 5, "total_slots": 4},
        {"machine": "kettle", "total_slots": 4, "keys": {P2V: "zz"}, "channels": {P2V: []}},
        {"machine": "kettle", "total_slots": 4, "operator_inputs_physical": [[1]]},
        {"machine": "kettle", "total_slots": 4,
         "attacks": [{"kind": "MODIFY", "slot": 1, "direction": P2V,
                      "params": {"payload_hex": "00" * 70_000, "extra": 1}}]},
        {"machine": "kettle", "total_slots": 4,
         "attacks": [{"kind": "EXPLODE", "slot": 1, "direction": "up"}]},
        {
            "machine": "kettle",
            "total_slots": 4,
            "operator_inputs_physical": [[9, 1], [1, 7]],
            "operator_inputs_virtual": [[1, 2]] * 16_382,
            "keys": {P2V: "00" * 32, V2P: "00" * 32},
            "attacks": [
                {"kind": "DELETE", "slot": 9, "direction": P2V},
                {"kind": "DELETE", "slot": 3, "direction": P2V},
                {"kind": "REPLAY", "slot": 1, "direction": P2V, "params": {"capture_slot": 2}},
                {"kind": "MODIFY", "slot": 1, "direction": P2V, "params": {}},
            ],
        },
    ]
    return documents + [{"machine": machine, "total_slots": 4} for machine in machines]


def cli_calls(tmp: Path) -> list[list[str]]:
    """Every subcommand with good and bad arguments, on files written to `tmp`."""
    walkthrough = str(fixture_path("fig4_walkthrough.json"))
    kettle = load_fixture_json("kettle")
    golden = fixture_path("golden_frames.hex").read_text().splitlines()
    seven_states = {**TOGGLE, "states": list(range(7)), "delta": [[s, 1, 0] for s in range(7)]}
    files = {
        "burst.json": json.dumps(
            {"machine": TOGGLE, "total_slots": 4, "operator_inputs_physical": [[1, 1]] * 16_383}
        ),
        "bad.json": json.dumps({"machine": "kettle"}),
        "broken.json": json.dumps({**kettle, "delta": kettle["delta"][:-1]}),
        "kettle.json": json.dumps(kettle),
        "seven.json": json.dumps(seven_states),
        "text.json": "{not json",
        "deep.json": "[" * 100_000 + "]" * 100_000,
        "odd.hex": "\n".join([golden[0], "zz", golden[2]]),
        "short.hex": "00\n",
        "flipped.hex": "\n".join([golden[0][:-2] + "ff", golden[1], golden[2]]),
        "longer.hex": "\n".join([golden[0], golden[1], golden[2] + "00"]),
    }
    for name, content in files.items():
        (tmp / name).write_text(content)
    at = {name: str(tmp / name) for name in files}
    vectors = str(tmp / "golden.hex")
    return [
        ["run", "--scenario", walkthrough, "--out", str(tmp / "report.json")],
        ["run", "--scenario", walkthrough],
        ["run", "--scenario", walkthrough, "--out", str(tmp / "absent" / "report.json")],
        ["run", "--scenario", at["bad.json"]],
        ["run", "--scenario", at["burst.json"]],
        ["run", "--scenario", str(fixture_path("attack_matrix.json")),
         "--out", str(tmp / "matrix.json")],
        ["validate", "--scenario", walkthrough],
        ["validate", "--scenario", at["burst.json"]],
        ["validate", "--scenario", at["bad.json"]],
        ["validate", "--scenario", at["text.json"]],
        ["validate", "--scenario", at["deep.json"]],
        ["validate", "--scenario", str(tmp / "absent.json")],
        ["oracle", "--machine", "kettle", "--max-len", "2"],
        ["oracle", "--machine", "fig4_walkthrough", "--max-len", "1"],
        ["oracle", "--machine", at["kettle.json"], "--max-len", "1"],
        ["oracle", "--machine", at["broken.json"]],
        ["oracle", "--machine", at["seven.json"]],
        ["oracle", "--machine", "kettle", "--max-len", "9"],
        ["vectors", "emit", "--path", vectors],
        ["vectors", "verify", "--path", vectors],
        ["vectors", "verify", "--path", at["odd.hex"]],
        ["vectors", "verify", "--path", at["short.hex"]],
        ["vectors", "verify", "--path", at["flipped.hex"]],
        ["vectors", "verify", "--path", at["longer.hex"]],
        ["vectors", "verify", "--path", str(tmp / "absent.hex")],
        ["vectors", "emit", "--path", str(tmp / "absent" / "golden.hex")],
        ["explode"],
        ["run"],
        ["oracle", "--machine", "kettle", "--max-len", "many"],
    ]


def use_every_entry_point(runs: list[dict], invalid: list[object], calls: list[list[str]]) -> None:
    for name in ("fig4_walkthrough", "attack_matrix"):
        run_scenario(load_bundled_scenario(name)).to_json_bytes()
    for doc in runs:
        run_scenario(scenario_from_dict(doc)).to_json_bytes()
    for doc in invalid:
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(doc)
    oracle_check(resolve_machine("kettle", []), 3)
    for argv in calls:
        try:
            main(argv)
        except SystemExit:  # argparse refuses the arguments
            pass


def unreached_rows(
    reach: _Reach, maps: dict[str, tuple]
) -> tuple[Counter, dict[str, tuple[int, int]]]:
    """The rows of the statements `reach` did not see, and each module's
    (reached, unreached) counts."""
    unreached: Counter = Counter()
    counts = {}
    for filename, (owner, rows) in maps.items():
        reached = {owner[line] for line in reach.reached[filename] if line in owner}
        missed = [row for first, row in rows.items() if first not in reached]
        unreached.update(missed)
        counts[Path(filename).stem] = (len(rows) - len(missed), len(missed))
    return unreached, counts


def test_every_unreached_statement_is_listed(tmp_path, capsys):
    """`capsys` keeps the CLI's reports and messages off the terminal."""
    maps = {str(path): _statements(path) for path in sorted(SRC.glob("*.py"))}
    workloads = import_bench_module("workloads").WORKLOADS
    runs = [doc for workload in workloads.values() for doc in workload.generate(0)]
    runs += adversarial_corpus()
    invalid = invalid_documents()
    calls = cli_calls(tmp_path)
    reach = _Reach(set(maps))
    # Earlier tests may have cached every key this run uses; the cache's fill runs here.
    frames._keyed.cache_clear()
    previous = sys.gettrace()
    sys.settrace(reach.call)
    try:
        use_every_entry_point(runs, invalid, calls)
    finally:
        sys.settrace(previous)
    unreached, counts = unreached_rows(reach, maps)
    listed = Counter(row for row, _ in UNREACHED)
    if unreached != listed:
        lines = ["module: reached, unreached, listed"]
        for module, (hit, missed) in counts.items():
            in_table = sum(n for (row, _), n in listed.items() if row.partition(":")[0] == module)
            if hit or missed or in_table:
                lines.append(f"  {module}: {hit}, {missed}, {in_table}")
        lines.append("unreached but not listed:")
        lines += [f"  {row!r}," for row in sorted((unreached - listed).elements())]
        lines.append("listed but reached:")
        lines += [f"  {row!r}," for row in sorted((listed - unreached).elements())]
        pytest.fail("\n".join(lines))
