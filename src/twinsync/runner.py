"""Scenario execution: both twins, both channels, adversary, and detector.

Every slot runs the same four phases:

    1. the slot's physical inputs are applied: the operator's, then the
       vetted inputs of each COMMAND accepted in the previous slot
    2. at a sync boundary, both twins tick and send their frames
    3. each channel delivers its due frames through the adversary, and the
       receiving endpoint decodes, verifies, and applies them; a frame that
       any check refuses writes its `Refusal`'s outcome to the row and
       raises the detector's event for it
    4. the detector checks liveness and the consistency audit compares the
       replica against the physical history; the row is written as its text

After the last slot, the detector judges the run.  The report is compact
ASCII JSON with sorted keys, the bytes of the stdlib's `json.dumps` written
in bounded pieces, with no wall-clock or environment dependence, so
identical (scenario, seed) pairs produce byte identical reports.  `frames`
holds each distinct frame once, in the order first seen, as canonical
padded base64 (RFC 4648 section 4), and slot rows
name frames by their index there: the bytes of frame `id` are
`base64.b64decode(report.frames[id])`.  A row states only what happened:
`sent`, `delivered` and `dropped` hold only the links with frames, an
accepted frame is its bare id, and `adversary_actions` and failed audits
appear only when there are any.  Slot 0's row writes the four `STATE_FIELDS`,
a later row each only when it changed, and `RunReport.slots` carries them on.
"""

from __future__ import annotations

import json
from binascii import b2a_base64
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .adversary import Adversary
from .detector import Detector, consistency_audit
from .frames import (
    Frame,
    MalformedPayload,
    MsgType,
    decode_ack_payload,
    decode_command_payload,
    decode_delta_payload,
    decode_frame,
    encode_ack_payload,
    encode_command_payload,
    encode_delta_payload,
    encode_frame,
)
from .netsim import Channel, Direction, SplitMix64
from .scenario import ScenarioSpec
from .sync import PhysicalTwin, Refusal, VirtualTwin, command_inputs, reconcile

PHYSICAL_SENDER_ID = 1
VIRTUAL_SENDER_ID = 2

REPORT_SCHEMA = "twinsync.report.v5"
# A row writes each of these only when it differs from the row before's.
STATE_FIELDS = ("physical_key_state", "physical_state", "replica_key_state", "replica_synced_slot")

# Module aliases: an enum member lookup costs several times a global one.
STATE_SYNC, COMMAND, ACK = MsgType.STATE_SYNC, MsgType.COMMAND, MsgType.ACK

# A report list longer than CHUNK is encoded CHUNK elements at a time.  The
# C encoder keeps every token of one call as its own str until it joins them,
# so a call's transient grows with what it encodes.  A report is a tree built
# afresh by `run_scenario`, so no cycle check is needed.
CHUNK = 64
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _long(value) -> bool:
    return isinstance(value, list) and len(value) > CHUNK


def _pieces(doc: dict, encode, frames: list[str], rows: list[str]) -> Iterator[bytes]:
    """`doc`'s text in pieces, as `RunReport.json_pieces` says; `frames` and `rows` are joined."""
    run: dict = {}  # values since the last one written in pieces, encoded together
    sep = b"{"
    for key in sorted(doc):
        value = doc[key]
        nested = isinstance(value, dict) and any(map(_long, value.values()))
        if not (nested or _long(value) or value is frames or value is rows):
            run[key] = value
            continue
        if run:
            yield sep + encode(run)[1:-1].encode()
            run, sep = {}, b","
        yield sep + encode(key).encode() + b":"
        sep = b","
        if nested:
            yield from _pieces(value, encode, frames, rows)
            continue
        for start in range(0, len(value), CHUNK):
            part = value[start : start + CHUNK]
            # A row is its JSON text, and canonical padded base64 (RFC 4648 section 4),
            # the one frame spelling the schema allows, holds no character JSON
            # escapes, so each join is the text `encode(part)` writes.
            if value is rows:
                text = ",".join(part)
            else:
                text = '"' + '","'.join(part) + '"' if value is frames else encode(part)[1:-1]
            yield (b"," if start else b"[") + text.encode()
        yield b"]" if value else b"[]"
    last = encode(run).encode()  # with nothing written in pieces, the whole dict
    yield last if sep == b"{" else sep + last[1:] if run else b"}"


@dataclass
class RunReport:
    scenario: dict
    rows: list[str]  # each slot's row as its compact sorted-key JSON text
    frames: list[str]
    detection_events: list[dict]
    audits: list[dict]
    summary: dict

    @cached_property
    def slots(self) -> list[dict]:
        """The rows of `to_json_dict`, parsed once and made full for readers of
        their fields: each state field a row leaves out is the row before's."""
        slots = self.to_json_dict()["slots"]
        carried: dict = {}
        for row in slots:
            for field in STATE_FIELDS:
                carried[field] = row.setdefault(field, carried.get(field))
        return slots

    def to_json_dict(self) -> dict:
        """The document as written: a row holds only the state fields it writes."""
        return self._doc(json.loads(f"[{','.join(self.rows)}]"))

    def _doc(self, slots: list) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "slots": slots,
            "frames": self.frames,
            "detection_events": self.detection_events,
            "consistency_audit": self.audits,
            "summary": self.summary,
        }

    def json_pieces(self) -> Iterator[bytes]:
        """The report as byte pieces that join to `json.dumps(self.to_json_dict(),
        sort_keys=True, separators=(",", ":"))` plus one newline.

        The slot rows and the frame table are joined as they are, a chunk of
        CHUNK at a time.  Any other list longer than CHUNK is encoded a chunk
        at a time, and a dict holding one, such as the scenario echo, key by
        key; the other values are encoded one call per run of them between
        those.
        """
        yield from _pieces(self._doc(self.rows), _ENCODER.encode, self.frames, self.rows)
        yield b"\n"

    def to_json_bytes(self) -> bytes:
        """Compact ASCII JSON with sorted keys, then one newline: `json_pieces`
        joined, with no copy of the whole beyond the one join."""
        return b"".join(self.json_pieces())


class _Link:
    """One direction of the session, sender and receiver ends together.

    The sender stamps each record with its emission slot, encodes and tags it
    and enqueues it on the channel; the receiver accepts only frames of this
    direction's key, sender id, message types and session, neither from the
    future nor late nor at or before `highest`, the newest slot it accepted,
    which only `run_scenario`'s accept branch moves.  `sent` and `dropped`
    hold the ids, as row text, of the frames sent and dropped since the last
    report row took them: their index in `ids`, the run's distinct frames,
    which both links share.
    """

    def __init__(
        self,
        direction: Direction,
        sender_id: int,
        msg_types: tuple[MsgType, ...],
        spec: ScenarioSpec,
        seeds: SplitMix64,
        ids: dict[bytes, int],
    ):
        self.direction = direction
        self.name = direction._value_
        self.sender_id = sender_id
        self.msg_types = msg_types
        self.session_id = spec.session_id
        self.key = spec.keys[direction]
        cfg = spec.channels[direction]
        self.channel = Channel(
            SplitMix64(seeds.next_u64()), cfg.latency_slots, cfg.drop_probability
        )
        self.highest = -1  # below slot 0, the first emission
        self.ids = ids
        self.sent: list[str] = []
        self.dropped: list[str] = []

    def send(self, msg_type: MsgType, slot: int, payload: bytes) -> None:
        frame = Frame(msg_type, self.sender_id, self.session_id, slot, payload)
        data = encode_frame(frame, self.key)
        frame_id = f"{self.ids.setdefault(data, len(self.ids))}"
        self.sent.append(frame_id)
        if not self.channel.send(data, slot):
            self.dropped.append(frame_id)


def run_scenario(spec: ScenarioSpec) -> RunReport:
    machine = spec.machine
    period = spec.sync_period_slots
    physical = PhysicalTwin(machine)
    virtual = VirtualTwin(machine)

    ids: dict[bytes, int] = {}  # each distinct frame's bytes to its index in `frames`
    seed_stream = SplitMix64(spec.seed)  # seed order: phys_to_virt, virt_to_phys, adversary
    up = _Link(
        Direction.PHYS_TO_VIRT, PHYSICAL_SENDER_ID, (STATE_SYNC,), spec, seed_stream, ids
    )
    down = _Link(
        Direction.VIRT_TO_PHYS, VIRTUAL_SENDER_ID, (COMMAND, ACK), spec, seed_stream, ids
    )
    links = (up, down)  # deliveries go physical-to-virtual first
    adversary = Adversary(spec.attacks, SplitMix64(seed_stream.next_u64()))
    detector = Detector(
        {link.direction: link.channel.latency_slots for link in links}, period, spec.grace_slots
    )

    phys_inputs: dict[int, list[int]] = {}  # the physical twin's inputs, by slot
    for slot, sym in spec.operator_inputs_physical:
        phys_inputs.setdefault(slot, []).append(sym)
    commands = command_inputs(spec.operator_inputs_virtual, period)

    events: list[dict] = []
    audits: list[dict] = []
    rows: list[str] = []
    physical_keys: list[int] = []  # physical key state at the end of each slot
    last_key = last_state = last_replica = last_synced = -1  # below any value: slot 0 writes all
    applied = adversary.applied

    for slot in range(spec.total_slots):
        # Attacks are only ever logged at the current slot, so this slot's
        # are whatever the log gains from here on.
        applied_from = len(applied)

        # Phase 1: the slot's schedule, COMMAND inputs vetted last slot behind the operator's.
        for sym in phys_inputs.get(slot, ()):
            physical.apply_input(slot, sym)

        # Phase 2: at a sync boundary, both twins tick and send.
        if slot % period == 0:
            up.send(STATE_SYNC, slot, encode_delta_payload(physical.tick(slot)))
            command = virtual.tick(commands.get(slot, ()))
            # Both acknowledge the newest accepted sync, the physical twin's
            # next anchor; the ACK is the idle heartbeat on this channel.
            if command.inputs:
                down.send(COMMAND, slot, encode_command_payload(command))
            else:
                down.send(ACK, slot, encode_ack_payload(command.acked))

        # Phase 3: deliveries, physical-to-virtual first.  The adversary sees
        # every batch, so it can insert where nothing is due.  Each frame gets
        # at most one event and one outcome.  The row's maps take each link's
        # non-empty lists of this slot's frames; an accepted frame is its id.
        sent, dropped, delivered = [], [], []
        for link in links:
            if link.sent:
                sent.append(f'"{link.name}":[{",".join(link.sent)}]')
                link.sent = []
            if link.dropped:
                dropped.append(f'"{link.name}":[{",".join(link.dropped)}]')
                link.dropped = []
            received = []
            direction = link.direction
            # An honest frame arriving now was sent at `horizon`; on the up link
            # `newest`, the boundary at or before it, is the emission the audit expects.
            horizon = slot - link.channel.latency_slots
            newest = horizon - horizon % period
            if link is up:
                emission = newest
            for data in adversary.intercept(slot, direction, link.channel.deliver_due(slot)):
                frame = decode_frame(
                    data, link.key, link.session_id, link.highest, link.sender_id,
                    link.msg_types, newest, horizon,
                )
                if isinstance(frame, Refusal):
                    refusal = frame
                else:
                    refusal = None
                    link.highest = frame.slot
                    detector.on_frame_accepted(direction, frame.slot)
                    try:
                        if frame.msg_type == STATE_SYNC:
                            refusal = virtual.apply_sync(
                                decode_delta_payload(frame.payload, frame.slot)
                            )
                        else:
                            command = None
                            if frame.msg_type == COMMAND:
                                command = decode_command_payload(frame.payload)
                            acked = command.acked if command else decode_ack_payload(frame.payload)
                            # The replica ticks first: an honest `acked` is 0 or a boundary
                            # plus one, never past its own slot.
                            if acked > frame.slot or acked and (acked - 1) % period:
                                raise MalformedPayload(f"acked {acked} names no emission")
                            physical.on_ack(acked)
                            if command:
                                refusal = reconcile(command, machine)
                                if refusal is None:
                                    phys_inputs.setdefault(slot + 1, []).extend(command.inputs)
                    except MalformedPayload as exc:
                        # Authenticated frames with broken payloads cannot come from
                        # the honest peer; classify like any other forgery.
                        detail = {"reason": str(exc), "claimed_slot": frame.slot}
                        refusal = Refusal("malformed_payload", detail)
                # A replayed or reflected frame keeps its id; one the adversary made gets the next.
                frame_id = ids.setdefault(data, len(ids))
                if refusal is None:
                    received.append(f"{frame_id}")
                else:
                    events.append(detector.on_channel_error(refusal, slot, direction))
                    received.append(f'[{frame_id},"{refusal.outcome}"]')
            if received:
                delivered.append(f'"{link.name}":[{",".join(received)}]')

        # Phase 4: liveness expectations and the consistency audit.
        events.extend(detector.on_slot_boundary(slot))
        key = physical.key_state
        physical_keys.append(key)
        replica_key = virtual.last_synced_key
        expected = consistency_audit(physical_keys, machine, replica_key, emission)
        if expected is not None:
            audits.append({"slot": slot, "replica_key_state": replica_key, "expected": expected})

        # The row's text, keys sorted; only the actions, with the user's params, are encoded.
        actions = ""
        if len(applied) > applied_from:
            actions = _ENCODER.encode([
                action.to_dict() if found else {**action.to_dict(), "no_target": True}
                for action, found in applied[applied_from:]
            ])
            actions = f'"adversary_actions":{actions},'
        delivered = f'"delivered":{{{",".join(delivered)}}},' if delivered else ""
        dropped = f'"dropped":{{{",".join(dropped)}}},' if dropped else ""
        sent = f'"sent":{{{",".join(sent)}}},' if sent else ""
        state, synced = physical.state, virtual.last_synced_slot
        row = actions + delivered + dropped
        if key != last_key:
            row += f'"physical_key_state":{key},'
        if state != last_state:
            row += f'"physical_state":{state},'
        if replica_key != last_replica:
            row += f'"replica_key_state":{replica_key},'
        if synced != last_synced:
            row += f'"replica_synced_slot":{synced},'
        rows.append(f'{{{row}{sent}"slot":{slot}}}')
        last_key, last_state, last_replica, last_synced = key, state, replica_key, synced

    lost = {(link.direction, f.sent_at_slot) for link in links for f in link.channel.drop_log}
    summary = detector.summarize(spec.attacks, events, lost, applied)
    return RunReport(
        scenario=spec.to_dict(),
        rows=rows,
        frames=[b2a_base64(data, newline=False).decode() for data in ids],
        detection_events=events,
        audits=audits,
        summary=summary,
    )
