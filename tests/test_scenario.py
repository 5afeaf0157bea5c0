"""Scenario parsing, strict validation, and the bundled fixtures."""

import dataclasses
import json

import jsonschema
import pytest

from twinsync.adversary import AttackAction, AttackKind
from twinsync.frames import (
    MAX_PAYLOAD_LEN,
    U8_MAX,
    U32_MAX,
    U64_MAX,
    Frame,
    MsgType,
    PayloadTooLarge,
    encode_command_payload,
    encode_frame,
)
from twinsync.netsim import Direction
from twinsync import scenario as scenario_mod
from twinsync.runner import run_scenario
from twinsync.sync import CommandRecord
from twinsync.scenario import (
    BUNDLED_FIXTURES,
    DEFAULT_KEYS,
    ChannelConfig,
    ScenarioInvalid,
    ScenarioSpec,
    fixture_path,
    load_bundled_scenario,
    load_fixture_json,
    load_scenario_file,
    resolve_machine,
    scenario_from_dict,
)

P2V = Direction.PHYS_TO_VIRT
V2P = Direction.VIRT_TO_PHYS
# The problems the schema's two hex patterns give.
HEX = "must be a string matching ^([0-9a-fA-F]{2})*$"
KEY_HEX = "must be a string matching ^([0-9a-fA-F]{2})+$"


def scenario_schema() -> dict:
    from importlib import resources

    path = resources.files("twinsync").joinpath("schemas", "scenario.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def schema_rejects(doc) -> bool:
    validator = jsonschema.Draft202012Validator(scenario_schema())
    return next(validator.iter_errors(doc), None) is not None


def kind_params(schema: dict, kind: str) -> dict:
    """The `params` properties the schema allows for one attack kind."""
    (rule,) = [r for r in schema["$defs"]["attack"]["allOf"]
               if r["if"]["properties"]["kind"]["const"] == kind]
    return rule["then"]["properties"]["params"]["properties"]


def minimal_doc(**overrides) -> dict:
    doc = {"machine": "kettle", "total_slots": 5}
    doc.update(overrides)
    return doc


def problems_of(doc) -> list[str]:
    with pytest.raises(ScenarioInvalid) as exc_info:
        scenario_from_dict(doc)
    return exc_info.value.problems


class TestBundledFixtures:
    def test_walkthrough_loads(self):
        spec = load_bundled_scenario("fig4_walkthrough")
        assert spec.name == "fig4_walkthrough"
        assert spec.total_slots == 8
        assert spec.operator_inputs_physical == [(1, 1), (2, 1), (3, 1)]
        assert spec.operator_inputs_virtual == [(2, 1)]
        assert spec.attacks == []
        assert spec.seed == 42

    def test_attack_matrix_loads(self):
        spec = load_bundled_scenario("attack_matrix")
        assert spec.total_slots == 40
        assert len(spec.attacks) == 8
        combos = {(a.kind, a.direction) for a in spec.attacks}
        assert combos == {(k, d) for k in AttackKind for d in Direction}

    def test_machine_fixture_resolves(self, kettle):
        problems: list[str] = []
        assert resolve_machine("kettle", problems) == kettle
        assert problems == []

    def test_scenario_fixture_resolves_to_its_machine(self, kettle):
        problems: list[str] = []
        assert resolve_machine("attack_matrix", problems) == kettle
        assert problems == []

    def test_specs_naming_one_fixture_share_no_machine_dicts(self):
        """Each spec that names a fixture gets a machine of its own."""
        doc = {"machine": "kettle", "total_slots": 5}
        first, second = scenario_from_dict(doc).machine, scenario_from_dict(doc).machine
        assert first == second
        assert first.transitions is not second.transitions
        assert first.labels is not second.labels
        assert first.labels["states"] is not second.labels["states"]
        first.transitions[(0, 1)] = 0
        assert resolve_machine("kettle", []).transitions[(0, 1)] == 25

    def test_unknown_fixture_name(self):
        problems: list[str] = []
        assert resolve_machine("nope", problems) is None
        assert problems == ["machine: no bundled fixture named 'nope'"]

    @pytest.mark.parametrize("name", ["fig4_walkthrough", "attack_matrix"])
    def test_scenario_fixtures_validate_against_the_schema(self, name):
        jsonschema.validate(
            load_fixture_json(name),
            scenario_schema(),
            cls=jsonschema.Draft202012Validator,
        )

    def test_schema_maxima_are_the_wire_widths(self):
        schema = scenario_schema()
        defs = schema["$defs"]
        machine = defs["machine"]["properties"]
        params = kind_params(schema, "MODIFY")
        template = defs["template"]["properties"]
        maxima = {
            "seed": schema["properties"]["seed"]["maximum"],
            "session_id": schema["properties"]["session_id"]["maximum"],
            "machine.states": machine["states"]["items"]["maximum"],
            "machine.inputs": machine["inputs"]["items"]["maximum"],
            "params.xor_mask": params["xor_mask"]["maximum"],
            "payload_hex bytes": defs["payloadHex"]["maxLength"] // 2,
        }
        for key in ("msg_type", "sender_id", "session_id", "seq", "slot"):
            maxima[f"template.{key}"] = template[key]["maximum"]
        assert maxima == {
            "seed": U64_MAX,
            "session_id": U64_MAX,
            "machine.states": U32_MAX,
            "machine.inputs": U32_MAX,
            "params.xor_mask": U8_MAX,
            "payload_hex bytes": MAX_PAYLOAD_LEN,
            "template.msg_type": U8_MAX,
            "template.sender_id": U32_MAX,
            "template.session_id": U64_MAX,
            "template.seq": U64_MAX,
            "template.slot": U64_MAX,
        }

    def test_machine_fixture_validates_against_the_schema(self):
        doc = {"machine": load_fixture_json("kettle"), "total_slots": 1}
        jsonschema.validate(doc, scenario_schema(), cls=jsonschema.Draft202012Validator)

    def test_fixture_listing_is_accurate(self):
        for name in BUNDLED_FIXTURES:
            assert fixture_path(name + ".json").is_file()


class TestDefaults:
    def test_minimal_document(self):
        spec = scenario_from_dict(minimal_doc())
        assert spec.total_slots == 5
        assert spec.sync_period_slots == 1
        assert spec.session_id == 1
        assert spec.grace_slots == 1
        assert spec.seed == 0
        assert spec.channels[P2V] == ChannelConfig(latency_slots=1, drop_probability=0.0)
        assert spec.channels[V2P] == ChannelConfig(latency_slots=1, drop_probability=0.0)
        assert spec.keys == DEFAULT_KEYS
        assert spec.machine.machine_id == "kettle"

    def test_normalized_echo_materializes_defaults(self):
        echo = scenario_from_dict(minimal_doc()).to_dict()
        assert echo["channels"]["phys_to_virt"] == {
            "latency_slots": 1,
            "drop_probability": 0.0,
        }
        assert echo["keys"]["phys_to_virt"] == DEFAULT_KEYS[P2V].hex()
        assert echo["machine"]["machine_id"] == "kettle"
        assert echo["attacks"] == []

    def test_partial_channel_config(self):
        doc = minimal_doc(channels={"phys_to_virt": {"latency_slots": 3}})
        spec = scenario_from_dict(doc)
        assert spec.channels[P2V] == ChannelConfig(latency_slots=3, drop_probability=0.0)
        assert spec.channels[V2P] == ChannelConfig()

    def test_partial_keys(self):
        spec = scenario_from_dict(minimal_doc(keys={"virt_to_phys": "ab"}))
        assert spec.keys == {P2V: DEFAULT_KEYS[P2V], V2P: b"\xab"}

    def test_inputs_are_sorted_by_slot(self):
        doc = minimal_doc(operator_inputs_physical=[[3, 1], [1, 2], [2, 1]])
        spec = scenario_from_dict(doc)
        assert spec.operator_inputs_physical == [(1, 2), (2, 1), (3, 1)]


class TestProblems:
    def test_missing_required_fields(self):
        problems = problems_of({})
        assert "machine: required" in problems
        assert "total_slots: required" in problems

    def test_not_an_object(self):
        assert problems_of([1, 2]) == ["scenario document must be an object"]

    def test_invalid_inline_machine_reports_validation_codes(self):
        machine = {
            "machine_id": "gap",
            "states": [0, 1],
            "inputs": [1],
            "initial": 0,
            "key_states": [0],
            "delta": [[0, 1, 1]],
        }
        problems = problems_of(minimal_doc(machine=machine))
        assert any(p.startswith("machine: non_total_transition") for p in problems)

    def test_unknown_input_symbol(self):
        problems = problems_of(minimal_doc(operator_inputs_physical=[[1, 9]]))
        assert problems == [
            "operator_inputs_physical[0]: input 9 not defined by the machine"
        ]

    def test_input_slot_out_of_range(self):
        problems = problems_of(minimal_doc(operator_inputs_virtual=[[5, 1]]))
        assert problems == [
            "operator_inputs_virtual[0]: slot 5 outside the run of 5 slots"
        ]

    def test_malformed_input_pair(self):
        problems = problems_of(minimal_doc(operator_inputs_physical=[[1]]))
        assert "operator_inputs_physical[0]" in problems[0]

    def test_bad_latency_names_its_channel(self):
        problems = problems_of(minimal_doc(channels={"virt_to_phys": {"latency_slots": -1}}))
        assert problems == ["channels.virt_to_phys.latency_slots: must be >= 0"]

    def test_bad_drop_probability(self):
        doc = minimal_doc(channels={"phys_to_virt": {"drop_probability": 1.5}})
        problems = problems_of(doc)
        assert problems == ["channels.phys_to_virt.drop_probability: must be >= 0 and <= 1"]

    def test_unknown_channel_direction(self):
        problems = problems_of(minimal_doc(channels={"sideways": {}}))
        assert problems == ["channels: unknown keys: ['sideways']"]

    def test_bad_key_hex(self):
        problems = problems_of(minimal_doc(keys={"phys_to_virt": "zz"}))
        assert problems == [f"keys.phys_to_virt: {KEY_HEX}"]

    def test_empty_key_rejected(self):
        problems = problems_of(minimal_doc(keys={"virt_to_phys": ""}))
        assert problems == [f"keys.virt_to_phys: {KEY_HEX}"]

    @pytest.mark.parametrize(
        "keys",
        [
            {"phys_to_virt": "11" * 32, "virt_to_phys": "11" * 32},
            {"phys_to_virt": DEFAULT_KEYS[V2P].hex()},
            {"virt_to_phys": DEFAULT_KEYS[P2V].hex().upper()},
        ],
        ids=["both_given", "p2v_equals_default_v2p", "v2p_equals_default_p2v"],
    )
    def test_equal_direction_keys_rejected(self, keys):
        """Checked after the defaults are merged; the schema cannot express it."""
        assert problems_of(minimal_doc(keys=keys)) == [
            "keys: phys_to_virt and virt_to_phys must differ"
        ]

    def test_bad_attack_kind(self):
        doc = minimal_doc(attacks=[{"kind": "EXFILTRATE", "slot": 1, "direction": "phys_to_virt"}])
        assert "attacks[0].kind" in problems_of(doc)[0]

    def test_bad_attack_direction(self):
        doc = minimal_doc(attacks=[{"kind": "DELETE", "slot": 1, "direction": "up"}])
        assert "attacks[0].direction" in problems_of(doc)[0]

    def test_attack_slot_out_of_range(self):
        doc = minimal_doc(attacks=[{"kind": "DELETE", "slot": 9, "direction": "phys_to_virt"}])
        assert problems_of(doc) == ["attacks[0].slot: 9 outside the run of 5 slots"]

    @pytest.mark.parametrize("direction", [P2V, V2P])
    @pytest.mark.parametrize(
        "grace, slot, ok",
        [(1, 8, True), (1, 9, False), (2, 7, True), (2, 8, False), (2, 9, False)],
    )
    def test_delete_must_be_detectable_within_the_run(self, direction, grace, slot, ok):
        """MISSED_SYNC fires grace_slots after the deleted delivery, so it must fit the run."""
        doc = minimal_doc(total_slots=10, grace_slots=grace)
        spec = scenario_from_dict(doc)
        spec.attacks.append(AttackAction(AttackKind.DELETE, slot, direction, {}))
        verdict = run_scenario(spec).summary["verdict"]
        doc["attacks"] = [{"kind": "DELETE", "slot": slot, "direction": direction.value}]
        if ok:
            assert verdict == "pass"
            assert scenario_from_dict(doc).attacks == spec.attacks
        else:
            assert verdict == "detection_mismatch"
            assert problems_of(doc) == [
                f"attacks[0].slot: a DELETE at slot {slot} is detected at slot "
                f"{slot + grace}, after the run of 10 slots"
            ]

    def test_unknown_attack_params(self):
        doc = minimal_doc(
            attacks=[{"kind": "DELETE", "slot": 1, "direction": "phys_to_virt",
                      "params": {"capture_slot": 0}}]
        )
        assert problems_of(doc) == ["attacks[0].params: unknown keys: ['capture_slot']"]
        assert schema_rejects(doc)

    def test_replay_requires_capture_slot(self):
        doc = minimal_doc(attacks=[{"kind": "REPLAY", "slot": 2, "direction": "phys_to_virt"}])
        assert problems_of(doc) == ["attacks[0].params: required"]
        assert schema_rejects(doc)
        doc["attacks"][0]["params"] = {"capture_index": 0}
        assert problems_of(doc) == ["attacks[0].params.capture_slot: required"]
        assert schema_rejects(doc)

    def test_replay_cannot_capture_the_future(self):
        doc = minimal_doc(
            attacks=[{"kind": "REPLAY", "slot": 2, "direction": "phys_to_virt",
                      "params": {"capture_slot": 3}}]
        )
        assert "cannot replay a frame captured after" in problems_of(doc)[0]

    def test_modify_requires_a_mutation(self):
        doc = minimal_doc(attacks=[{"kind": "MODIFY", "slot": 1, "direction": "phys_to_virt"}])
        assert "MODIFY needs byte_offset and xor_mask" in problems_of(doc)[0]

    def test_insert_raw_hex_must_be_hex(self):
        doc = minimal_doc(
            attacks=[{"kind": "INSERT", "slot": 1, "direction": "phys_to_virt",
                      "params": {"raw_hex": "xyz"}}]
        )
        assert problems_of(doc) == [f"attacks[0].params.raw_hex: {HEX}"]

    @pytest.mark.parametrize(
        "index,params,problem",
        [
            (3, {"capture_slot": "x"}, "capture_slot: must be an integer"),
            (3, {"capture_slot": 6, "capture_index": "a"}, "capture_index: must be an integer"),
            (0, {"index": "a"}, "index: must be an integer"),
            (0, {"index": -1}, "index: must be >= 0"),
            (0, {"index": True}, "index: must be an integer"),
            (2, {"byte_offset": 24, "xor_mask": "s"}, "xor_mask: must be an integer"),
            (2, {"byte_offset": -1, "xor_mask": 1}, "byte_offset: must be >= 0"),
            (2, {"payload_hex": "zz"}, f"payload_hex: {HEX}"),
            (1, {"template": "deadbeef"}, "template: must be an object"),
            (1, {"template": {"seq": "a"}}, "template.seq: must be an integer"),
            (1, {"template": {"payload_hex": "zz"}}, f"template.payload_hex: {HEX}"),
            (1, {"template": {"msg_type": 256}}, "template.msg_type: must be >= 0 and <= 255"),
            (1, {"template": {"slot": 2**64}}, f"template.slot: must be >= 0 and <= {U64_MAX}"),
            (
                1,
                {"template": {"payload_hex": "00" * 70_000}},
                "template.payload_hex: must be at most 131070 characters",
            ),
            (1, {"template": {"nonce": 1}}, "template: unknown keys: ['nonce']"),
            (2, {"payload_hex": "00" * 70_000}, "payload_hex: must be at most 131070 characters"),
            (2, {"byte_offset": 24, "xor_mask": 0}, "xor_mask: must be >= 1 and <= 255"),
            (2, {"byte_offset": 24, "xor_mask": 256}, "xor_mask: must be >= 1 and <= 255"),
        ],
    )
    def test_attack_param_values_are_checked(self, index, params, problem):
        """Each of these used to pass validation and then crash or misbehave mid-run."""
        doc = load_fixture_json("attack_matrix")
        doc["attacks"][index]["params"] = params
        assert problems_of(doc) == [f"attacks[{index}].params.{problem}"]
        assert schema_rejects(doc)

    @pytest.mark.parametrize(
        "index, params, problem",
        [
            (1, {"raw_hex": "de ad"}, f"raw_hex: {HEX}"),
            (2, {"payload_hex": "de ad"}, f"payload_hex: {HEX}"),
            (1, {"template": {"payload_hex": "de ad"}}, f"template.payload_hex: {HEX}"),
        ],
    )
    def test_spaced_attack_hex_fails_both_checks(self, index, params, problem):
        """bytes.fromhex skips spaces; the validator follows the schema's pattern instead."""
        doc = load_fixture_json("attack_matrix")
        doc["attacks"][index]["params"] = params
        assert problems_of(doc) == [f"attacks[{index}].params.{problem}"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, scenario_schema(), cls=jsonschema.Draft202012Validator)

    def test_spaced_key_fails_both_checks(self):
        doc = minimal_doc(keys={"phys_to_virt": "00 01"})
        assert problems_of(doc) == [f"keys.phys_to_virt: {KEY_HEX}"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, scenario_schema(), cls=jsonschema.Draft202012Validator)

    def test_widest_values_run(self):
        """The largest value of each bounded field parses and runs to a pass."""
        doc = load_fixture_json("attack_matrix")
        doc["session_id"] = U64_MAX
        doc["attacks"][1]["params"] = {
            "template": {
                "msg_type": U8_MAX,
                "sender_id": U32_MAX,
                "session_id": U64_MAX,
                "seq": U64_MAX,
                "slot": U64_MAX,
                "payload_hex": "00" * MAX_PAYLOAD_LEN,
            }
        }
        doc["attacks"][2]["params"] = {"byte_offset": 24, "xor_mask": 255}
        jsonschema.validate(doc, scenario_schema(), cls=jsonschema.Draft202012Validator)
        assert run_scenario(scenario_from_dict(doc)).summary["verdict"] == "pass"

    def test_session_id_is_bounded_by_its_u64(self):
        assert problems_of(minimal_doc(session_id=2**70)) == [
            f"session_id: must be >= 1 and <= {U64_MAX}"
        ]

    @pytest.mark.parametrize("field", ["states", "inputs"])
    @pytest.mark.parametrize("value, ok", [(2**32, False), (U32_MAX, True)])
    def test_machine_is_bounded_by_the_wire_u32(self, field, value, ok):
        """A walkthrough whose key state 100 (or input HEAT) is renamed to value."""
        doc = load_fixture_json("fig4_walkthrough")
        machine = load_fixture_json("kettle")
        old = 100 if field == "states" else 1
        rename = lambda v: value if v == old else v  # noqa: E731
        machine["labels"] = {}
        machine[field] = [rename(v) for v in machine[field]]
        if field == "states":
            machine["key_states"] = [rename(v) for v in machine["key_states"]]
            machine["delta"] = [[rename(a), b, rename(c)] for a, b, c in machine["delta"]]
        else:
            machine["delta"] = [[a, rename(b), c] for a, b, c in machine["delta"]]
            for key in ("operator_inputs_physical", "operator_inputs_virtual"):
                doc[key] = [[slot, rename(sym)] for slot, sym in doc[key]]
        doc["machine"] = machine
        if ok:
            assert run_scenario(scenario_from_dict(doc)).summary["verdict"] == "pass"
        else:
            at = machine[field].index(value)
            assert problems_of(doc) == [f"machine.{field}[{at}]: must be >= 0 and <= {U32_MAX}"]

    def test_every_problem_is_collected(self):
        doc = {
            "machine": "nope",
            "total_slots": 0,
            "seed": -1,
            "name": 7,
            "keys": {"phys_to_virt": "zz"},
        }
        problems = problems_of(doc)
        assert len(problems) == 5

    def test_zero_total_slots(self):
        assert problems_of(minimal_doc(total_slots=0)) == ["total_slots: must be >= 1"]


IDLE = 2


def queued_in_one_period(count: int, total_slots: int = 5) -> dict:
    """`count` virtual IDLE commands over slots 1-4, sent together at slot 4."""
    inputs = [[1 + i % 4, IDLE] for i in range(count)]
    return minimal_doc(
        total_slots=total_slots, sync_period_slots=4, operator_inputs_virtual=inputs
    )


class TestCommandCapacity:
    """The inputs queued over one period share one COMMAND, whose u16 payload
    holds a u64 acknowledgement and a u32 per input."""

    def test_limit_is_what_the_command_codec_encodes(self):
        limit = scenario_mod.MAX_RECORD_INPUTS
        assert limit == 16381
        for count in (limit, limit + 1):
            payload = encode_command_payload(CommandRecord((IDLE,) * count, 0))
            frame = Frame(MsgType.COMMAND, 2, 1, 4, payload)
            if count == limit:
                encode_frame(frame, bytes(32))
            else:
                with pytest.raises(PayloadTooLarge):
                    encode_frame(frame, bytes(32))

    def test_a_full_command_validates_and_runs(self):
        report = run_scenario(scenario_from_dict(queued_in_one_period(16381)))
        assert report.summary["verdict"] == "pass"

    def test_one_input_more_is_rejected_naming_its_boundary(self):
        assert problems_of(queued_in_one_period(16382)) == [
            "operator_inputs_virtual: 16382 inputs go out in the COMMAND at slot 4, "
            "which holds at most 16381"
        ]

    def test_inputs_split_across_two_periods_are_accepted(self):
        doc = queued_in_one_period(16381, total_slots=9)
        doc["operator_inputs_virtual"] += [[5, IDLE]] * 16381
        report = run_scenario(scenario_from_dict(doc))
        assert report.summary["verdict"] == "pass"

    def test_inputs_sent_after_the_run_are_not_counted(self):
        """Queued at slot 5 of 6, they would go out at slot 8: never sent."""
        doc = minimal_doc(
            total_slots=6, sync_period_slots=4, operator_inputs_virtual=[[5, IDLE]] * 16382
        )
        assert scenario_from_dict(doc).total_slots == 6


class TestFileLoading:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc(name="from file")))
        spec = load_scenario_file(str(path))
        assert spec.name == "from file"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioInvalid) as exc_info:
            load_scenario_file(str(tmp_path / "absent.json"))
        assert "cannot read" in exc_info.value.problems[0]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioInvalid) as exc_info:
            load_scenario_file(str(path))
        assert "not valid JSON" in exc_info.value.problems[0]


# Each object the schema closes with additionalProperties: false, by its path
# in the schema.  Attack params are closed per kind, in the attack's allOf.
KEY_SETS = [
    ("document", ()),
    ("machine", ("$defs", "machine")),
    ("channels", ("properties", "channels")),
    ("keys", ("properties", "keys")),
    ("channel", ("$defs", "channel")),
    ("attack", ("$defs", "attack")),
    ("template", ("$defs", "template")),
]

# Every object level of strict_fixture(), by the path its problems name.
UNKNOWN_KEY_SITES = [
    ("document", ()),
    ("machine", ("machine",)),
    ("channels", ("channels",)),
    ("channels.phys_to_virt", ("channels", "phys_to_virt")),
    ("keys", ("keys",)),
    ("attacks[1]", ("attacks", 1)),
    ("attacks[1].params.template", ("attacks", 1, "params", "template")),
]


def strict_fixture() -> dict:
    """attack_matrix with its machine inline and one INSERT forged from a template."""
    doc = load_fixture_json("attack_matrix")
    doc["machine"] = load_fixture_json("kettle")
    doc["attacks"][1]["params"] = {"template": {"seq": 1}}
    return doc


class TestUnknownKeys:
    """The validator and the schema reject an unknown key at the same places."""

    @pytest.mark.parametrize("name, path", KEY_SETS, ids=[name for name, _ in KEY_SETS])
    def test_allowed_keys_are_the_schema_properties(self, name, path):
        """The walker allows exactly the keys the closed object lists."""
        obj = scenario_schema()
        for key in path:
            obj = obj[key]
        assert obj["additionalProperties"] is False
        problems: list[str] = []
        scenario_mod._check(dict.fromkeys(obj["properties"]), obj, name, problems)
        assert not [p for p in problems if "unknown keys" in p]
        scenario_mod._check({**dict.fromkeys(obj["properties"]), "bogus": 1}, obj, name, problems)
        assert f"{name}: unknown keys: ['bogus']" in problems

    def test_every_key_set_is_compared(self):
        """Every closed object outside the per-kind attack params is in KEY_SETS."""
        def closed(schema, path=()):
            if isinstance(schema, dict):
                if schema.get("additionalProperties") is False:
                    yield path
                for key, sub in schema.items():
                    yield from closed(sub, (*path, key))
            elif isinstance(schema, list):
                for i, sub in enumerate(schema):
                    yield from closed(sub, (*path, i))

        paths = set(closed(scenario_schema()))
        per_kind = {p for p in paths if "allOf" in p}
        assert len(per_kind) == 4
        assert paths - per_kind == {path for _, path in KEY_SETS}

    def test_the_fixture_passes_both_checks(self):
        doc = strict_fixture()
        jsonschema.validate(doc, scenario_schema(), cls=jsonschema.Draft202012Validator)
        assert run_scenario(scenario_from_dict(doc)).summary["verdict"] == "pass"

    @pytest.mark.parametrize(
        "where, path", UNKNOWN_KEY_SITES, ids=[where for where, _ in UNKNOWN_KEY_SITES]
    )
    def test_unknown_key_fails_both_checks(self, where, path):
        doc = strict_fixture()
        target = doc
        for key in path:
            target = target[key]
        target["bogus"] = 1
        assert problems_of(doc) == [f"{where}: unknown keys: ['bogus']"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, scenario_schema(), cls=jsonschema.Draft202012Validator)


# The keywords `_check` handles, and the annotations it may ignore.
WALKED = {
    "$ref", "type", "const", "enum", "minimum", "maximum", "pattern", "maxLength",
    "items", "minItems", "maxItems", "properties", "required", "additionalProperties",
    "allOf", "if", "then",
}
ANNOTATIONS = {"$schema", "$id", "title", "default", "$defs"}


def schema_keywords(schema: dict, path: tuple = ()):
    """(keyword, value, path of its schema) for every keyword of `schema` and its subschemas."""
    for key, val in schema.items():
        yield key, val, path
        if key in ("properties", "$defs"):
            for name, sub in val.items():
                yield from schema_keywords(sub, (*path, key, name))
        elif key in ("items", "if", "then", "additionalProperties") and isinstance(val, dict):
            yield from schema_keywords(val, (*path, key))
        elif key in ("allOf", "oneOf"):
            for i, sub in enumerate(val):
                yield from schema_keywords(sub, (*path, key, i))


class TestSchemaWalk:
    def test_every_schema_keyword_is_walked(self):
        """A keyword `_check` does not handle would be ignored, so none may appear."""
        seen = list(schema_keywords(scenario_schema()))
        assert {key for key, _, _ in seen} - WALKED - ANNOTATIONS == {"oneOf"}
        # resolve_machine decides the one oneOf: a fixture name or a definition.
        assert [path for key, _, path in seen if key == "oneOf"] == [("properties", "machine")]
        assert {val for key, val, _ in seen if key == "type"} <= set(scenario_mod._TYPES)

    def test_each_document_key_is_a_spec_field(self):
        fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
        assert set(scenario_schema()["properties"]) == fields
        channel = scenario_schema()["$defs"]["channel"]["properties"]
        assert set(channel) == {f.name for f in dataclasses.fields(ChannelConfig)}

    def test_schema_defaults_are_the_dataclass_defaults(self):
        schema = scenario_schema()
        owners = [
            (schema["properties"], ScenarioSpec),
            (schema["$defs"]["channel"]["properties"], ChannelConfig),
        ]
        compared = 0
        for properties, cls in owners:
            fields = {f.name: f.default for f in dataclasses.fields(cls)}
            for key, sub in properties.items():
                if "default" in sub:
                    assert sub["default"] == fields[key], key
                    compared += 1
        assert compared == 6
