"""A scenario that parses runs, and the CLI answers every input with an exit code.

Three hypothesis fuzzers over the bundled scenarios:

- single-field edits with values inside and just outside the schema's bounds
  (or of the wrong type) end in `ScenarioInvalid` or a report;
- `twinsync run` and `validate` on such documents, and on truncated JSON,
  exit 0, 1 or 2 with no traceback;
- every seed and a loss rate up to 0.3 on both channels give a report.

Runs are capped at 64 slots so the examples stay cheap.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.cli import main
from twinsync.frames import U8_MAX, U32_MAX, U64_MAX
from twinsync.runner import run_scenario
from twinsync.scenario import ScenarioInvalid, load_fixture_json, scenario_from_dict

FIXTURES = ("fig4_walkthrough", "attack_matrix")
MAX_SLOTS = 64
VERDICTS = {"pass", "detection_mismatch"}

# Integer fields as (path, minimum, maximum); a maximum of None is unbounded.
COMMON_FIELDS = [
    (("total_slots",), 1, MAX_SLOTS),
    (("sync_period_slots",), 1, None),
    (("session_id",), 1, U64_MAX),
    (("grace_slots",), 0, None),
    (("seed",), 0, U64_MAX),
    (("channels", "phys_to_virt", "latency_slots"), 0, None),
    (("channels", "virt_to_phys", "latency_slots"), 0, None),
    (("operator_inputs_physical", 0, 0), 0, None),
    (("operator_inputs_physical", 0, 1), 0, U32_MAX),
]
# attack_matrix's attacks: 0 and 4 DELETE, 1 and 5 INSERT, 2 and 6 MODIFY,
# 3 and 7 REPLAY.
MATRIX_FIELDS = [
    *((("attacks", i, "slot"), 0, None) for i in range(8)),
    (("attacks", 0, "params", "index"), 0, None),
    (("attacks", 4, "params", "index"), 0, None),
    (("attacks", 2, "params", "index"), 0, None),
    (("attacks", 2, "params", "byte_offset"), 0, None),
    (("attacks", 6, "params", "byte_offset"), 0, None),
    (("attacks", 6, "params", "xor_mask"), 1, U8_MAX),
    (("attacks", 3, "params", "capture_slot"), 0, None),
    (("attacks", 3, "params", "capture_index"), 0, None),
    (("attacks", 7, "params", "capture_slot"), 0, None),
    (("attacks", 7, "params", "capture_index"), 0, None),
    (("attacks", 5, "params", "template", "msg_type"), 0, U8_MAX),
    (("attacks", 5, "params", "template", "sender_id"), 0, U32_MAX),
    (("attacks", 5, "params", "template", "seq"), 0, U64_MAX),
    (("attacks", 5, "params", "template", "slot"), 0, U64_MAX),
]
DROP_PATHS = [("channels", d, "drop_probability") for d in ("phys_to_virt", "virt_to_phys")]
WRONG_TYPES = st.sampled_from([None, "1", 1.5, True, [], {}])


def int_values(lo: int, hi: int | None) -> st.SearchStrategy:
    top = hi if hi is not None else 2**70
    edges = [lo - 1, lo, lo + 1, top - 1, top] + ([hi + 1] if hi is not None else [])
    return st.sampled_from(edges) | st.integers(lo, min(top, lo + 100)) | WRONG_TYPES


def set_path(doc: dict, path: tuple, value) -> None:
    target = doc
    for key in path[:-1]:
        target = target[key] if isinstance(target, list) else target.setdefault(key, {})
    target[path[-1]] = value
    if "template" in path:
        # A template is forged only when the INSERT carries no raw frame.
        target = doc["attacks"][path[1]]["params"]
        target.pop("raw_hex", None)


@st.composite
def edits(draw, fields: list) -> tuple:
    if draw(st.booleans()):
        path, lo, hi = draw(st.sampled_from(fields))
        return path, draw(int_values(lo, hi))
    drop = st.sampled_from([-0.001, 0.0, 1.0, 1.001]) | st.floats(0, 1) | WRONG_TYPES
    return draw(st.sampled_from(DROP_PATHS)), draw(drop)


@st.composite
def documents(draw) -> dict:
    name = draw(st.sampled_from(FIXTURES))
    doc = load_fixture_json(name)
    fields = COMMON_FIELDS + (MATRIX_FIELDS if name == "attack_matrix" else [])
    for path, value in draw(st.lists(edits(fields), min_size=1, max_size=3)):
        set_path(doc, path, value)
    # Keep the run short whatever the edits did to the attack and input slots.
    if isinstance(doc["total_slots"], int) and doc["total_slots"] > MAX_SLOTS:
        doc["total_slots"] = MAX_SLOTS
    return doc


@settings(max_examples=150, deadline=None)
@given(documents())
def test_edited_scenarios_are_invalid_or_run(doc):
    try:
        spec = scenario_from_dict(doc)
    except ScenarioInvalid as exc:
        assert exc.problems
        return
    report = run_scenario(spec)
    assert report.summary["verdict"] in VERDICTS
    assert len(report.slots) == spec.total_slots


@st.composite
def scenario_texts(draw) -> str:
    text = json.dumps(draw(documents()))
    if draw(st.booleans()):
        return text
    return text[: draw(st.integers(0, len(text) - 1))]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["run", "validate"]), text=scenario_texts())
def test_cli_exits_zero_one_or_two_without_traceback(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        argv = [command, "--scenario", str(path)]
        if command == "run":
            argv += ["--out", str(Path(tmp) / "report.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(FIXTURES),
    seed=st.integers(0, U64_MAX),
    drop=st.floats(0, 0.3),
)
def test_every_seed_and_loss_rate_runs(name, seed, drop):
    doc = load_fixture_json(name)
    doc["seed"] = seed
    for cfg in doc["channels"].values():
        cfg["drop_probability"] = drop
    report = run_scenario(scenario_from_dict(doc))
    assert report.summary["verdict"] in VERDICTS
    assert len(report.summary["attacks"]) == len(doc["attacks"])
