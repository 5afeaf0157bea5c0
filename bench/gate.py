"""Correctness gate: what every benchmarked run must satisfy.

The checks are semantic, not a pinned digest of the report, so a change
that legitimately alters delta bytes still passes.  Byte-for-byte
determinism is checked separately, by comparing two runs of one scenario.
"""

from __future__ import annotations


def check_report(report, spec, expected=None) -> list[str]:
    """Problems with one run's report; an empty list means it passed.

    `expected` is `oracle.expected_traces` for the scenario, given when the
    replica must follow the closed-form fold slot by slot: no attacks, no
    operator commands, and no loss on the phys_to_virt channel.
    """
    problems = []
    summary = report.summary
    if summary["verdict"] != "pass":
        problems.append(f"verdict {summary['verdict']!r}")
    unmatched = [a for a in summary["attacks"] if not a["matched"]]
    if unmatched:
        problems.append(f"{len(unmatched)} attack(s) not matched, first {unmatched[0]}")
    if summary["spurious_event_count"]:
        problems.append(f"{summary['spurious_event_count']} spurious event(s)")
    for event in report.detection_events:
        if spec.attacks and event["attack_scheduled"]:
            continue
        if event["kind"] != "MISSED_SYNC" or not event.get("explained_by_benign_loss"):
            problems.append(f"event not explained by an attack or benign loss: {event}")
            break
    if expected is not None:
        phys_state, phys_key, replica = expected
        fields = (
            ("physical_state", phys_state),
            ("physical_key_state", phys_key),
            ("replica_key_state", replica),
        )
        for row in report.slots:
            slot = row["slot"]
            wrong = [f for f, want in fields if row[f] != want[slot]]
            if wrong:
                problems.append(f"slot {slot}: {', '.join(wrong)} differ from the oracle fold")
                break
        if len(report.slots) != spec.total_slots:
            problems.append(f"{len(report.slots)} slot rows for {spec.total_slots} slots")
    return problems
