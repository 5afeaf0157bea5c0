"""The benchmark's tracer finds every name it rebinds.

`python3 bench/run.py --trace 1` rebinds twinsync names where the runner
looks them up (bench/probes.py).  A rename or deletion in `src/` that
leaves a target behind would only show up there, so it is checked here.
The probes also read instance attributes (`twin.log.entries`,
`channel.drop_log`, `adversary.applied`), which only a traced run reaches.
"""

import importlib
from types import SimpleNamespace

import pytest

from tests.conftest import import_bench_module
from twinsync.scenario import load_bundled_scenario

MODULES = ("scenario", "runner", "oracle", "sync", "frames", "netsim", "adversary", "detector")


def twinsync_modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"twinsync.{m}") for m in MODULES})


def tracer_targets() -> list:
    probes = import_bench_module("probes")
    ts = twinsync_modules()
    return probes.targets(ts) + probes.setup_targets(ts)


@pytest.mark.parametrize("target", tracer_targets(), ids=lambda t: t.span)
def test_tracer_target_is_defined_on_its_owner(target):
    assert target.attr in vars(target.owner)


@pytest.mark.parametrize("name", ["fig4_walkthrough", "attack_matrix"])
def test_traced_run_gives_the_untraced_report(name):
    probes = import_bench_module("probes")
    spans = import_bench_module("spans")
    ts = twinsync_modules()
    untraced = ts.runner.run_scenario(load_bundled_scenario(name)).to_json_bytes()
    with spans.Tracer(probes.targets(ts)) as tracer:
        traced = ts.runner.run_scenario(load_bundled_scenario(name)).to_json_bytes()
    assert tracer.counters["runner.slots"] > 0
    assert traced == untraced


# Spans the bundled fixtures' traced runs do not reach, each with its reason.
UNREACHED_SPANS = {
    "machine.project_key_state": "sync.py imports it unused, only so that this probe finds it",
    "oracle.expected_traces": "the oracle's fold, which run_scenario does not call",
    "detector.on_semantic_mismatch": "an alias of on_channel_error that the runner never calls",
}


def test_traced_fixture_runs_reach_every_span():
    """A name reached through an alias the tracer does not rebind escapes it and reads 0."""
    probes = import_bench_module("probes")
    spans = import_bench_module("spans")
    ts = twinsync_modules()
    targets = probes.targets(ts)
    with spans.Tracer(targets) as tracer:
        for name in ("fig4_walkthrough", "attack_matrix"):
            ts.runner.run_scenario(load_bundled_scenario(name)).to_json_bytes()
    reached = {span.name for span in tracer.spans}
    assert {t.span for t in targets} - reached == set(UNREACHED_SPANS)


def test_traced_fixture_runs_count_every_event():
    """Every event reaches the detector through a traced method, each once:
    refusals through `on_channel_error`, liveness gaps through
    `on_slot_boundary`, so `detector.events_per_kslot` counts them all."""
    probes = import_bench_module("probes")
    spans = import_bench_module("spans")
    ts = twinsync_modules()
    with spans.Tracer(probes.targets(ts)) as tracer:
        reports = [
            ts.runner.run_scenario(load_bundled_scenario(name))
            for name in ("fig4_walkthrough", "attack_matrix")
        ]
    events = sum(report.summary["event_count"] for report in reports)
    assert events > 0
    assert tracer.counters["detector.events"] == events


def test_fold_work_is_linear_and_traced():
    """Between key states each record carries the state-changing inputs
    since the newest acknowledged record, none once the state has stopped
    changing, and the replica folds each record in full: at most two folded
    inputs per slot."""
    probes = import_bench_module("probes")
    spans = import_bench_module("spans")
    (doc,) = import_bench_module("workloads").idle_between_keys(0)
    ts = twinsync_modules()
    untraced = ts.runner.run_scenario(ts.scenario.scenario_from_dict(doc)).to_json_bytes()
    spec = ts.scenario.scenario_from_dict(doc)
    with spans.Tracer(probes.targets(ts)) as tracer:
        traced = ts.runner.run_scenario(spec).to_json_bytes()
    assert tracer.counters["sync.fold.inputs"] <= 2 * spec.total_slots
    assert traced == untraced


@pytest.mark.parametrize("workload", ["idle_at_key", "idle_between_keys", "attack_dense"])
def test_shipped_inputs_are_a_share_of_the_folded_ones(workload):
    """`sync.fold.useful_ratio` is the inputs shipped for the first time, the
    log entries added since the previous record, over the inputs the
    replica folds.  The log keeps state changes only, as the records ship
    them, so every new entry is folded at least once: the ratio is above 0
    and at most 1.  It read 58.6 on `idle_at_key` while the log kept every
    self-loop."""
    probes = import_bench_module("probes")
    spans = import_bench_module("spans")
    (doc,) = getattr(import_bench_module("workloads"), workload)(0)
    ts = twinsync_modules()
    spec = ts.scenario.scenario_from_dict(doc)
    with spans.Tracer(probes.targets(ts)) as tracer:
        ts.runner.run_scenario(spec)
    ratio = tracer.counters["sync.shipped_first_time"] / tracer.counters["sync.fold.inputs"]
    assert 0 < ratio <= 1
