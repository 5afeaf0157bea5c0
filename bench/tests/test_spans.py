import importlib
from types import SimpleNamespace

import pytest

import probes
import run
from spans import Profile, Span, Target, Tracer, self_times


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("runner.a", 0, 100, -1, 0),
        Span("sync.b", 10, 30, 0, 0),
        Span("sync.c", 40, 90, 0, 0),
        Span("frames.d", 50, 60, 2, 0),
        Span("runner.a", 200, 210, -1, 1),
    ]
    assert self_times(spans) == [30, 20, 40, 10, 10]


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i * 2


def test_nested_calls_are_recorded_with_parents_and_consistent_self_times():
    tracer = Tracer([Target(Toy, "outer", "toy.outer"), Target(Toy, "inner", "toy.inner")])
    with tracer:
        assert Toy().outer(3) == 6
    spans = tracer.spans
    assert [s.name for s in spans] == ["toy.outer"] + ["toy.inner"] * 3
    assert [s.parent for s in spans] == [-1, 0, 0, 0]
    own = self_times(spans)
    children = sum(s.end_ns - s.start_ns for s in spans[1:])
    assert own[0] == spans[0].end_ns - spans[0].start_ns - children >= 0
    profile = Profile()
    profile.add(tracer)
    assert profile.layer_self_ns("toy") == profile.top_level_ns


def test_probes_see_arguments_and_results():
    def probe(tracer, args, kwargs):
        tracer.count("calls")
        return lambda result: tracer.count("sum", result)

    tracer = Tracer([Target(Toy, "inner", "toy.inner", probe)])
    with tracer:
        Toy().outer(4)
    assert tracer.counters == {"calls": 4, "sum": 12}


def _twinsync_modules():
    return SimpleNamespace(**{n: importlib.import_module(f"twinsync.{n}") for n in run.MODULES})


def _snapshot(targets):
    return [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets]


def test_every_rebound_name_is_restored_even_after_an_exception():
    ts = _twinsync_modules()
    targets = probes.targets(ts) + probes.setup_targets(ts)
    before = _snapshot(targets)
    with pytest.raises(ZeroDivisionError):
        with Tracer(targets):
            assert all(vars(o)[a] is not f for o, a, f in before)
            1 / 0
    assert all(vars(o)[a] is f for o, a, f in before)


def test_a_missing_target_undoes_the_names_already_rebound():
    original = Toy.inner
    tracer = Tracer([Target(Toy, "inner", "toy.inner"), Target(Toy, "absent", "toy.absent")])
    with pytest.raises(KeyError):
        with tracer:
            pass
    assert vars(Toy)["inner"] is original


def test_traced_report_is_byte_identical_and_counted():
    ts = _twinsync_modules()
    spec = ts.scenario.load_bundled_scenario("attack_matrix")
    plain = ts.runner.run_scenario(spec).to_json_bytes()
    tracer = Tracer(probes.targets(ts))
    with tracer:
        traced = ts.runner.run_scenario(spec).to_json_bytes()
    assert traced == plain
    profile = Profile()
    profile.add(tracer)
    metrics = probes.layer_metrics(profile, Profile(), 1.0)
    assert set(metrics) == set(probes.PER_LAYER_UNITS)
    assert metrics["frames.frames_per_slot"] >= 2
    assert metrics["adversary.action_hit_ratio"] == pytest.approx(8 / (8 * 80))
    shares = sum(metrics[f"{layer}.self_share"] for layer in probes.LAYERS)
    assert shares == pytest.approx(1.0)
