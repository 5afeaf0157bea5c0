"""The benchmark's tracer finds every name it rebinds, and every export resolves.

`python3 bench/run.py --trace 1` rebinds twinsync names where the runner
looks them up (bench/probes.py).  A rename or deletion in `src/` that
leaves a target behind would only show up there, so it is checked here.
"""

import importlib
from types import SimpleNamespace

import pytest

import twinsync
from conftest import import_bench_module

MODULES = ("scenario", "runner", "oracle", "sync", "frames", "netsim", "adversary", "detector")


def tracer_targets() -> list:
    probes = import_bench_module("probes")
    ts = SimpleNamespace(**{m: importlib.import_module(f"twinsync.{m}") for m in MODULES})
    return probes.targets(ts) + probes.setup_targets(ts)


@pytest.mark.parametrize("target", tracer_targets(), ids=lambda t: t.span)
def test_tracer_target_is_defined_on_its_owner(target):
    assert target.attr in vars(target.owner)


def test_every_export_resolves():
    assert [name for name in twinsync.__all__ if not hasattr(twinsync, name)] == []
