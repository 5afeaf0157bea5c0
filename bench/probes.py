"""Which twinsync names the traced run rebinds, and the per-layer metrics.

Span names are "<layer>.<operation>" with the layer named after the module
that defines the code.  Functions are rebound where `run_scenario` looks
them up: the names imported into `twinsync.runner` and `twinsync.sync`, and
`twinsync.frames._tag`, which both frame codecs call for the HMAC.  Methods
are rebound on their classes.  `machine.step` is left alone: it runs once
per folded input, and a wrapper there would cost more than the call.  The
runner's `_receive` and `_summarize` are left alone too, so their time is
runner self time.
"""

from __future__ import annotations

import weakref
from types import SimpleNamespace

from spans import Profile, Target, Tracer

LAYERS = (
    "scenario",
    "machine",
    "sync",
    "frames",
    "netsim",
    "adversary",
    "detector",
    "runner",
    "oracle",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_slots(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.count("runner.slots", _arg(args, kwargs, 0, "spec").total_slots)


def _count_folded(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.count("sync.fold.inputs", len(_arg(args, kwargs, 2, "inputs")))


def _first_time_shipped():
    # Every record a tick returns covers the log up to its end, so the
    # inputs shipped for the first time are the entries logged since the
    # previous record.  Only the public `log` is read.
    last = {"twin": lambda: None, "logged": 0}

    def probe(tracer: Tracer, args: tuple, kwargs: dict):
        twin = args[0]
        if last["twin"]() is not twin:
            last["twin"], last["logged"] = weakref.ref(twin), 0
        logged = len(twin.log.entries)

        def after(record) -> None:
            if record is not None:
                tracer.count("sync.shipped_first_time", logged - last["logged"])
                last["logged"] = logged

        return after

    return probe


def _count_payload_bytes(tracer: Tracer, args: tuple, kwargs: dict):
    def after(payload: bytes) -> None:
        tracer.count("frames.delta_payload_bytes", len(payload))

    return after


def _count_drop(tracer: Tracer, args: tuple, kwargs: dict):
    channel, data = args[0], _arg(args, kwargs, 1, "data")

    def after(_result) -> None:
        if channel.drop_log and channel.drop_log[-1].data is data:
            tracer.count("netsim.drops")

    return after


def _count_queue(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.count("netsim.queued_at_delivery", len(args[0].queue))


def _count_actions(tracer: Tracer, args: tuple, kwargs: dict):
    adversary = args[0]
    applied = len(adversary.applied)
    tracer.count("adversary.actions_scanned", len(adversary.actions))

    def after(_result) -> None:
        tracer.count("adversary.actions_applied", len(adversary.applied) - applied)

    return after


def _count_events(tracer: Tracer, args: tuple, kwargs: dict):
    def after(result) -> None:
        tracer.count("detector.events", len(result) if isinstance(result, list) else 1)

    return after


def targets(ts: SimpleNamespace) -> list[Target]:
    """Rebinding targets over the imported twinsync modules in `ts`."""
    runner, sync, frames = ts.runner, ts.sync, ts.frames
    return [
        Target(runner, "run_scenario", "runner.run_scenario", _count_slots),
        Target(runner.RunReport, "to_json_bytes", "runner.to_json_bytes"),
        Target(ts.oracle, "expected_traces", "oracle.expected_traces"),
        Target(ts.scenario.ScenarioSpec, "to_dict", "scenario.to_dict"),
        Target(runner, "consistency_audit", "detector.consistency_audit"),
        Target(ts.detector.Detector, "on_slot_boundary", "detector.on_slot_boundary", _count_events),
        Target(ts.detector.Detector, "on_channel_error", "detector.on_channel_error", _count_events),
        Target(ts.detector.Detector, "on_semantic_mismatch", "detector.on_semantic_mismatch", _count_events),
        Target(ts.detector.Detector, "on_frame_accepted", "detector.on_frame_accepted"),
        Target(runner, "encode_frame", "frames.encode_frame"),
        Target(runner, "decode_frame", "frames.decode_frame"),
        Target(frames, "_tag", "frames.hmac"),
        Target(runner, "encode_delta_payload", "frames.encode_delta_payload", _count_payload_bytes),
        Target(runner, "decode_delta_payload", "frames.decode_delta_payload"),
        Target(runner, "encode_command_payload", "frames.encode_command_payload"),
        Target(runner, "decode_command_payload", "frames.decode_command_payload"),
        Target(runner, "encode_ack_payload", "frames.encode_ack_payload"),
        Target(runner, "decode_ack_payload", "frames.decode_ack_payload"),
        Target(runner, "reconcile", "sync.reconcile"),
        Target(sync.PhysicalTwin, "tick", "sync.tick", _first_time_shipped()),
        Target(sync.PhysicalTwin, "apply_input", "sync.apply_input"),
        Target(sync.VirtualTwin, "tick", "sync.virtual_tick"),
        Target(sync.VirtualTwin, "apply_sync", "sync.apply_sync"),
        Target(sync, "fold_key_state", "sync.fold_key_state", _count_folded),
        Target(sync, "project_key_state", "machine.project_key_state"),
        Target(ts.netsim.Channel, "send", "netsim.send", _count_drop),
        Target(ts.netsim.Channel, "deliver_due", "netsim.deliver_due", _count_queue),
        Target(ts.adversary.Adversary, "intercept", "adversary.intercept", _count_actions),
    ]


def setup_targets(ts: SimpleNamespace) -> list[Target]:
    return [Target(ts.scenario, "scenario_from_dict", "scenario.scenario_from_dict")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Profile, setup: Profile, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from the traced passes (`run`) and the traced set-up.

    Times are per call and inclusive of children unless the name says
    `self`; `netsim.deliver_due.us` is self time, so it excludes the
    adversary's interceptor.  A metric of a layer the workload never calls
    reads 0.  Shares divide a layer's self time by the traced total of the
    timed region: run_scenario plus to_json_bytes, plus expected_traces on
    the oracle sweep.
    """
    c = run.counters
    slots = c.get("runner.slots", 0)
    per_slot = lambda value: _ratio(value, slots)  # noqa: E731
    delta_calls = run.calls.get("frames.encode_delta_payload", 0) + run.calls.get(
        "frames.decode_delta_payload", 0
    )
    delta_ns = run.total_ns.get("frames.encode_delta_payload", 0) + run.total_ns.get(
        "frames.decode_delta_payload", 0
    )
    out = {
        "detector.consistency_audit.us": run.mean_us("detector.consistency_audit"),
        "detector.on_slot_boundary.us": run.mean_us("detector.on_slot_boundary"),
        "detector.events_per_kslot": 1000 * per_slot(c.get("detector.events", 0)),
        "runner.run_scenario.self_us_per_slot": per_slot(run.self_ns.get("runner.run_scenario", 0)) / 1e3,
        "runner.to_json_bytes.us_per_slot": per_slot(run.total_ns.get("runner.to_json_bytes", 0)) / 1e3,
        "sync.tick.us": run.mean_us("sync.tick"),
        "sync.apply_sync.us": run.mean_us("sync.apply_sync"),
        "sync.apply_input.us": run.mean_us("sync.apply_input"),
        "machine.project_key_state.us": run.mean_us("machine.project_key_state"),
        "sync.fold.inputs_per_slot": per_slot(c.get("sync.fold.inputs", 0)),
        "sync.fold.useful_ratio": _ratio(c.get("sync.shipped_first_time", 0), c.get("sync.fold.inputs", 0)),
        "frames.encode_frame.us": run.mean_us("frames.encode_frame"),
        "frames.decode_frame.us": run.mean_us("frames.decode_frame"),
        "frames.hmac.us": run.mean_us("frames.hmac"),
        "frames.delta_codec.us": _ratio(delta_ns, delta_calls) / 1e3,
        "frames.delta_payload_bytes": _ratio(
            c.get("frames.delta_payload_bytes", 0), run.calls.get("frames.encode_delta_payload", 0)
        ),
        "frames.frames_per_slot": per_slot(run.calls.get("frames.encode_frame", 0)),
        "netsim.send.us": run.mean_us("netsim.send"),
        "netsim.deliver_due.us": run.mean_us("netsim.deliver_due", own=True),
        "netsim.queue_depth": _ratio(
            c.get("netsim.queued_at_delivery", 0), run.calls.get("netsim.deliver_due", 0)
        ),
        "netsim.drop_ratio": _ratio(c.get("netsim.drops", 0), run.calls.get("netsim.send", 0)),
        "adversary.intercept.us": run.mean_us("adversary.intercept"),
        "adversary.action_hit_ratio": _ratio(
            c.get("adversary.actions_applied", 0), c.get("adversary.actions_scanned", 0)
        ),
        "scenario.scenario_from_dict.ms": setup.mean_us("scenario.scenario_from_dict") / 1e3,
        "oracle.expected_traces.us": run.mean_us("oracle.expected_traces"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(run.layer_self_ns(layer), run.top_level_ns)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


# Units and direction of every per-layer metric, in the order printed.
PER_LAYER_UNITS: dict[str, tuple[str, str]] = {
    "detector.consistency_audit.us": ("us", "lower"),
    "detector.on_slot_boundary.us": ("us", "lower"),
    "detector.events_per_kslot": ("events/kslot", "lower"),
    "runner.run_scenario.self_us_per_slot": ("us/slot", "lower"),
    "runner.to_json_bytes.us_per_slot": ("us/slot", "lower"),
    "sync.tick.us": ("us", "lower"),
    "sync.apply_sync.us": ("us", "lower"),
    "sync.apply_input.us": ("us", "lower"),
    "machine.project_key_state.us": ("us", "lower"),
    "sync.fold.inputs_per_slot": ("inputs/slot", "lower"),
    "sync.fold.useful_ratio": ("ratio", "higher"),
    "frames.encode_frame.us": ("us", "lower"),
    "frames.decode_frame.us": ("us", "lower"),
    "frames.hmac.us": ("us", "lower"),
    "frames.delta_codec.us": ("us", "lower"),
    "frames.delta_payload_bytes": ("B", "lower"),
    "frames.frames_per_slot": ("frames/slot", "lower"),
    "netsim.send.us": ("us", "lower"),
    "netsim.deliver_due.us": ("us", "lower"),
    "netsim.queue_depth": ("frames", "lower"),
    "netsim.drop_ratio": ("ratio", "lower"),
    "adversary.intercept.us": ("us", "lower"),
    "adversary.action_hit_ratio": ("ratio", "higher"),
    "scenario.scenario_from_dict.ms": ("ms", "lower"),
    "oracle.expected_traces.us": ("us", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
}
