"""Digital-twin key-state replication over an authenticated slotted link.

A physical twin executes a finite state machine; a digital twin mirrors its
key states through verified delta records.  The package simulates the pair,
the network between them, a channel-controlling adversary, and a rule-based
detector that attributes every anomaly to the security requirement whose
enforcement caught it.
"""

from .machine import (
    TwinMachine,
    machine_from_dict,
    machine_to_dict,
    step,
    validate_machine,
)
from .sync import (
    CommandRecord,
    DeltaRecord,
    MismatchError,
    PhysicalTwin,
    VirtualTwin,
    reconcile,
)
from .frames import (
    ChannelError,
    Frame,
    MsgType,
    SequenceTracker,
    decode_frame,
    encode_frame,
)
from .netsim import Channel, Direction, SplitMix64
from .adversary import Adversary, AttackAction, AttackKind
from .detector import (
    DetectionEvent,
    Detector,
    EventKind,
    Requirement,
    consistency_audit,
)
from .scenario import ScenarioInvalid, ScenarioSpec, scenario_from_dict
from .runner import RunReport, run_scenario
from .oracle import oracle_check

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AttackAction",
    "AttackKind",
    "Channel",
    "ChannelError",
    "CommandRecord",
    "DeltaRecord",
    "DetectionEvent",
    "Detector",
    "Direction",
    "EventKind",
    "Frame",
    "MismatchError",
    "MsgType",
    "PhysicalTwin",
    "Requirement",
    "RunReport",
    "ScenarioInvalid",
    "ScenarioSpec",
    "SequenceTracker",
    "SplitMix64",
    "TwinMachine",
    "VirtualTwin",
    "consistency_audit",
    "decode_frame",
    "encode_frame",
    "machine_from_dict",
    "machine_to_dict",
    "oracle_check",
    "reconcile",
    "run_scenario",
    "scenario_from_dict",
    "step",
    "validate_machine",
]
