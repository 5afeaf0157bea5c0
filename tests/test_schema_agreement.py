"""The validator and scenario.schema.json accept the same documents.

Documents are drawn as the property suite and the robustness fuzzers draw
them, then one field is set to another value, deleted, or added.
`scenario_from_dict` must reject a document exactly when jsonschema (Draft
2020-12) does, apart from two listed exceptions:

- the rules the schema cannot state, which only the validator checks: their
  problems match CODE_ONLY and are left out of the comparison;
- numbers and patterns: JSON Schema counts 1.0 as an integer and lets NaN
  (which `json.load` reads) pass any bound, and the validator accepts
  neither; jsonschema matches a pattern with `re.search`, whose `$` also
  matches before a final newline (ECMA-262's does not), and the validator
  matches it whole.  The reference validator below follows the validator
  on these three points.
"""

import copy
import json
import math
import re
from importlib import resources

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import whole_pattern
from tests.test_properties import scenarios
from tests.test_robustness import documents
from twinsync.scenario import ScenarioInvalid, load_fixture_json, scenario_from_dict

CODE_ONLY = re.compile(
    r"no bundled fixture named|machine: duplicate transition|machine: [a-z_]+: "
    r"|not defined by the machine|outside the run of|after the run of"
    r"|cannot replay a frame captured after|MODIFY needs|must differ|go out in the COMMAND"
)


_draft = jsonschema.Draft202012Validator
REFERENCE = jsonschema.validators.extend(
    _draft,
    validators={"pattern": whole_pattern},
    type_checker=_draft.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda _, v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and not (isinstance(v, float) and math.isnan(v)),
    }),
)(json.loads(
    resources.files("twinsync").joinpath("schemas", "scenario.schema.json").read_text("utf-8")
))

# Values a field is set to: each type, the edges of every bound, and the
# names and kinds the schema enumerates.
VALUES = [
    None, True, False, -1, 0, 1, 2, 255, 256, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
    1.0, 0.5, 1.5, -0.001, math.nan, math.inf, -math.inf,
    "", "0", "00", "00\n", "zz", "de ad", "ABab", "kettle", "nope",
    "DELETE", "INSERT", "MODIFY", "REPLAY", "phys_to_virt", "virt_to_phys",
    [], [0], [0, 1], [0, 1, 2], {}, {"index": 0}, {"capture_slot": 0}, {"seq": 1},
]
KEYS = ["bogus", "index", "capture_slot", "byte_offset", "xor_mask", "template", "params",
        "labels", "seed", "0"]


def nodes(value, path=()):
    """(path, value) for the document and every value inside it."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from nodes(sub, (*path, key))


@st.composite
def mutated_documents(draw) -> dict:
    doc = copy.deepcopy(draw(st.one_of(scenarios(), documents())))
    path, node = draw(st.sampled_from(list(nodes(doc))))
    how = draw(st.sampled_from(["set", "delete", "add"]))
    if how == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(VALUES))
    elif path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(VALUES))
    return doc


def _with(name: str, path: tuple, value) -> dict:
    doc = load_fixture_json(name)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@settings(max_examples=500, deadline=None)
@given(mutated_documents())
# Rare draws pinned: NaN, a payload one byte too long, a trailing newline, 5.0.
@example(_with("fig4_walkthrough", ("channels", "phys_to_virt", "drop_probability"), math.nan))
@example(_with("attack_matrix", ("attacks", 2, "params"), {"payload_hex": "00" * 65536}))
@example(_with("attack_matrix", ("attacks", 1, "params"), {"raw_hex": "00\n"}))
@example(_with("fig4_walkthrough", ("total_slots",), 5.0))
def test_the_validator_rejects_exactly_what_the_schema_rejects(doc):
    try:
        scenario_from_dict(doc)
        problems = []
    except ScenarioInvalid as exc:
        problems = [p for p in exc.problems if not CODE_ONLY.search(p)]
    errors = [e.message for e in REFERENCE.iter_errors(doc)]
    assert bool(problems) == bool(errors), (problems, errors)
