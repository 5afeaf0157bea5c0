#!/usr/bin/env python3
"""The twinsync benchmark: seeded workloads through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere in a source tree: it imports `twinsync` from the
tree's own `src/` and refuses to run without it.  One process and one thread
run a workload's scenarios back to back (a closed loop).  Each scenario is
`scenario_from_dict` (in set-up), then `run_scenario` and
`RunReport.to_json_bytes` (timed); on the oracle sweep the timed work also
includes `oracle.expected_traces`.

The host is shared with other tenants, whose load slows the same code by
up to 2x for seconds or minutes at a time.  Other load only ever adds
time, so each scenario runs on every pass and keeps its best time.  Each
pass runs the scenarios in a new order, so that a garbage collection does
not land on the same scenario every time.  Where a workload has many
scenarios, each pass is followed by as long again re-timing the slowest
few, whose best times set the 99th percentile.  A
fixed loop (host_loop_ns) is timed the same way every 0.1 s, and
the best scenario times are scaled by QUIET_LOOP_NS over the loop's best
time: when no moment of the run was quiet, both bests are slow together.
The end-to-end times are medians and percentiles over scenarios of the
scaled best times, and throughput is slots over their sum.  Set-up is
repeated through the run and its median reported, unscaled.  The record
file keeps the unscaled figures and the loop's times.

With `--trace 0` the end-to-end metrics are measured with nothing rebound.
With `--trace 1` the first half of the time is untraced and the second half
traced; the traced passes give the per-layer metrics (see probes.py).
Either way every report is checked (gate.py), every repeat must reproduce
the first run's bytes, and the last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record, with the environment and sample counts, goes to
bench/out/<workload>-seed<N>-trace<T>.json; the traced run also writes its
first traced pass's spans to bench/out/<workload>-seed<N>-spans.jsonl.gz.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gate
import probes
from spans import Profile, Tracer, write_spans
from workloads import HELD_OUT_SEED, WORKLOADS, sweep_schedules

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
TAIL_SHARE = 0.025  # of a workload's scenarios re-timed after each pass
MODULES = ("scenario", "runner", "oracle", "sync", "frames", "netsim", "adversary", "detector")

END_TO_END_UNITS = {
    "slots_per_s": "slots/s",
    "scenario_ms_p50": "ms",
    "scenario_ms_p99": "ms",
    "report_bytes_per_slot": "B/slot",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}


class SetupError(Exception):
    """The tree cannot be benchmarked: no sources, or the wrong package imported."""


@dataclass
class Case:
    spec: object  # twinsync.scenario.ScenarioSpec
    inputs_by_slot: dict[int, list[int]]
    oracle_timed: bool  # the oracle fold is part of the timed work
    oracle_exact: bool  # the replica must follow the oracle fold slot by slot


def import_twinsync() -> SimpleNamespace:
    """Import twinsync afresh from this tree's src/, dropping any earlier import."""
    if not (SRC / "twinsync" / "__init__.py").is_file():
        raise SetupError(f"no twinsync sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "twinsync" or n.startswith("twinsync.")]:
        del sys.modules[name]
    ts = SimpleNamespace(**{m: importlib.import_module(f"twinsync.{m}") for m in MODULES})
    if SRC.resolve() not in Path(ts.runner.__file__).resolve().parents:
        raise SetupError(f"imported twinsync from {ts.runner.__file__}, not from {SRC}")
    return ts


def _inputs_by_slot(spec) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for slot, sym in spec.operator_inputs_physical:
        out.setdefault(slot, []).append(sym)
    return out


def build_cases(ts: SimpleNamespace, workload, docs: list[dict]) -> list[Case]:
    p2v = ts.netsim.Direction.PHYS_TO_VIRT
    cases = []
    for doc in docs:
        spec = ts.scenario.scenario_from_dict(doc)
        if workload.sweep_schedules_up_to:
            for schedule in sweep_schedules(doc["machine"], workload.sweep_schedules_up_to):
                one = ts.oracle.build_schedule_scenario(spec.machine, schedule, seed=spec.seed)
                cases.append(Case(one, _inputs_by_slot(one), True, True))
            continue
        exact = (
            not spec.attacks
            and not spec.operator_inputs_virtual
            and spec.channels[p2v].drop_probability == 0
        )
        cases.append(Case(spec, _inputs_by_slot(spec), False, exact))
    return cases


# The loop's best time on a quiet host of the 2-vCPU machine the benchmark
# was built on; under load its best over a whole run reached 0.80 ms.
QUIET_LOOP_NS = 700_000
HOST_SAMPLE_EVERY_S = 0.1


def host_loop_ns(loop: int = 20_000, repeats: int = 5) -> int:
    """Best of `repeats` timings of a fixed pure-Python loop that uses no twinsync code.

    It gauges the load other tenants put on the host.  Its best over a run
    scales that run's best scenario times (see the module docstring).
    """
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter_ns()
        x = 0
        for j in range(loop):
            x += j
        best = min(best, time.perf_counter_ns() - start)
    return best


def set_up(workload, seed: int, times: list[float]) -> tuple[SimpleNamespace, list[Case]]:
    """Import, generate and validate; append the time it took to `times`."""
    gc.collect()
    start = time.perf_counter()
    ts = import_twinsync()
    cases = build_cases(ts, workload, workload.generate(seed))
    times.append(time.perf_counter() - start)
    return ts, cases


def _expected(ts: SimpleNamespace, case: Case):
    spec = case.spec
    return ts.oracle.expected_traces(
        spec.machine,
        case.inputs_by_slot,
        spec.total_slots,
        latency_slots=spec.channels[ts.netsim.Direction.PHYS_TO_VIRT].latency_slots,
        sync_period=spec.sync_period_slots,
    )


def run_case(ts: SimpleNamespace, case: Case):
    """The timed unit of work: (elapsed ns, report, report bytes, oracle fold or None)."""
    start = time.perf_counter_ns()
    expected = _expected(ts, case) if case.oracle_timed else None
    report = ts.runner.run_scenario(case.spec)
    data = report.to_json_bytes()
    return time.perf_counter_ns() - start, report, data, expected


class Bench:
    """Runs passes over a workload's cases and keeps the correctness tally.

    `best[i]` is case i's best time in seconds over the passes since the
    last `clear`; `host_ns` gauges the host's load, sampled at the start of
    each pass and then every HOST_SAMPLE_EVERY_S.
    """

    def __init__(self, ts: SimpleNamespace, cases: list[Case]):
        self.ts = ts
        self.cases = cases
        self.best = [math.inf] * len(cases)
        self.host_ns: list[int] = []
        self.sampled = 0.0  # when host_ns was last sampled
        self.digests: list[bytes | None] = [None] * len(cases)
        self.report_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def slots(self) -> int:
        return sum(c.spec.total_slots for c in self.cases)

    def clear(self) -> None:
        self.best = [math.inf] * len(self.cases)

    def run_pass(
        self, order: list[int] | None = None, tracer: Tracer | None = None, first: bool = False
    ) -> None:
        """Run every case once, in `order` if given, and record the times of those that passed.

        The first pass checks each report against the gate and records its
        digest; later passes must reproduce those bytes exactly.
        """
        gc.collect()
        self.host_ns.append(host_loop_ns())
        self.sampled = time.perf_counter()
        self.run_cases(range(len(self.cases)) if order is None else order, tracer, first)

    def refine_tail(self, seconds: float, rng: random.Random) -> None:
        """Re-time the slowest TAIL_SHARE of the cases that passed, for `seconds`.

        The slowest are chosen afresh every round, so a case whose best time
        drops out of the tail makes room for the next.
        """
        size = math.ceil(len(self.cases) * TAIL_SHARE)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            done = [i for i, t in enumerate(self.best) if t < math.inf]
            slowest = sorted(done, key=self.best.__getitem__)[-size:]
            if not slowest:
                return
            rng.shuffle(slowest)
            self.run_cases(slowest)

    def run_cases(self, indices, tracer: Tracer | None = None, first: bool = False) -> None:
        for index in indices:
            case = self.cases[index]
            if time.perf_counter() - self.sampled >= HOST_SAMPLE_EVERY_S:
                self.host_ns.append(host_loop_ns())
                self.sampled = time.perf_counter()
            if tracer is not None:
                tracer.run_id = index
            self.attempted += 1
            try:
                elapsed, report, data, expected = run_case(self.ts, case)
            except Exception as exc:  # a raising scenario is a failed operation
                self.failures.append(f"{case.spec.name}: raised {type(exc).__name__}: {exc}")
                continue
            digest = hashlib.sha256(data).digest()
            if first:
                if case.oracle_exact and expected is None:
                    expected = _expected(self.ts, case)
                problems = gate.check_report(
                    report, case.spec, expected if case.oracle_exact else None
                )
                self.digests[index] = digest
                self.report_bytes += len(data)
            elif digest != self.digests[index]:
                traced = " under tracing" if tracer is not None else ""
                problems = [f"report bytes{traced} differ from the first run"]
            else:
                problems = []
            del report, data, expected
            if problems:
                self.failures.append(f"{case.spec.name}: {'; '.join(problems)}")
                continue
            self.best[index] = min(self.best[index], elapsed / 1e9)

    def best_seconds(self) -> tuple[list[float], int]:
        """The best times of the cases that passed at least once, and their slots."""
        done = [i for i, t in enumerate(self.best) if t < math.inf]
        return [self.best[i] for i in done], sum(self.cases[i].spec.total_slots for i in done)


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def measure(bench: Bench, seconds: float, tracer_targets=None, between=None, tail=False):
    """Passes over every case for at least `seconds` and MIN_PASSES.

    Times go to `bench.best`.  Returns the number of passes
    and, with `tracer_targets`, the Profile of the traced passes and the
    first traced pass's spans.  `between`, if given, runs before each pass.
    With `tail`, each pass is followed by as long again of `refine_tail`.
    """
    profile = Profile()
    kept = []
    passes = 0
    shuffle = random.Random(0)
    cases = list(range(len(bench.cases)))
    started = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        if between is not None:
            between()
        shuffle.shuffle(cases)
        pass_started = time.perf_counter()
        if tracer_targets is None:
            bench.run_pass(cases)
        else:
            tracer = Tracer(tracer_targets)
            with tracer:
                bench.run_pass(cases, tracer=tracer)
            profile.add(tracer)
            kept = kept or tracer.spans
        if tail:
            bench.refine_tail(time.perf_counter() - pass_started, shuffle)
        passes += 1
    return passes, profile, kept


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    workload = WORKLOADS[args.workload]
    environment = _environment()

    setup_s: list[float] = []
    try:
        ts, cases = set_up(workload, args.seed, setup_s)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    def set_up_again() -> None:
        # Another timed set-up, spread over the run so that its median does
        # not hang on one moment's load; the benchmarked modules stay bound.
        benchmarked = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "twinsync"}
        set_up(workload, args.seed, setup_s)
        sys.modules.update(benchmarked)

    bench = Bench(ts, cases)
    bench.run_pass(first=True)  # warm-up: checked, and sets the reference bytes
    bench.clear()

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "scenarios_per_pass": len(cases),
        "slots_per_pass": bench.slots,
    }
    if args.trace:
        setup_profile = Profile()
        with Tracer(probes.setup_targets(ts)) as tracer:
            build_cases(ts, workload, workload.generate(args.seed))
        setup_profile.add(tracer)
        # The first half of the time untraced, the second traced.
        measure(bench, args.seconds / 2)
        plain, _ = bench.best_seconds()
        bench.clear()
        passes, profile, spans = measure(bench, args.seconds / 2, probes.targets(ts))
        traced, _ = bench.best_seconds()
        overhead = sum(traced) / sum(plain) if plain and traced else 0.0
        values = probes.layer_metrics(profile, setup_profile, overhead)
        units = {name: probes.PER_LAYER_UNITS[name][0] for name in values}
        record["samples"] = {"traced_passes": passes, "spans_written": len(spans)}
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"{workload.name}-seed{args.seed}-spans.jsonl.gz", spans)
    else:
        passes, _, _ = measure(bench, args.seconds, between=set_up_again, tail=len(cases) > 1)
        unscaled, slots = bench.best_seconds()
        scale = QUIET_LOOP_NS / min(bench.host_ns)
        best = [t * scale for t in unscaled]
        scenario_ms = [t * 1e3 for t in best]
        values = {
            "slots_per_s": slots / sum(best) if best else 0.0,
            "scenario_ms_p50": statistics.median(scenario_ms) if best else 0.0,
            "scenario_ms_p99": _p99(scenario_ms) if best else 0.0,
            "report_bytes_per_slot": bench.report_bytes / bench.slots,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
            "ok_ratio": (bench.attempted - len(bench.failures)) / bench.attempted,
        }
        units = END_TO_END_UNITS
        record["samples"] = {
            "passes": passes,
            "scenarios": len(best),
            "setups": len(setup_s),
            "p99_has_10_beyond": len(best) >= 1000,
        }
        record["unscaled"] = {
            "scale": scale,
            "slots_per_s": slots / sum(unscaled) if unscaled else 0.0,
            "scenario_ms_p50": statistics.median(unscaled) * 1e3 if unscaled else 0.0,
        }
    record["host_loop_ns"] = {
        "min": min(bench.host_ns),
        "median": statistics.median(bench.host_ns),
        "max": max(bench.host_ns),
    }

    environment["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    record.update(result, failures=bench.failures[:20])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(
        f"workload {workload.name} seed {args.seed} (held-out seed {HELD_OUT_SEED}); "
        f"python {environment['python']}, nproc {environment['nproc']}, "
        f"loadavg {environment['loadavg'][0]:.2f}"
    )
    print(f"samples: {json.dumps(record['samples'])}")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for failure in bench.failures[:5]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
