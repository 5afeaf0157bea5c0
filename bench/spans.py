"""Outside-in tracing: rebind functions and methods, keep spans in memory.

A `Tracer` replaces each target attribute (a module-level function or a
method defined on a class) with a wrapper that records one span per call:
(name, start_ns, end_ns, parent, run_id), where parent is the index of the
enclosing span or -1.  The program's own code is not changed.  Leaving the
`with` block puts every original object back and checks that it did.

Calls on one thread nest strictly, so a span's children are disjoint and a
span's self time is its duration minus the sum of its direct children's
durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

# A probe runs before the wrapped call with (tracer, args, kwargs) and may
# return a callable that receives the call's result afterwards.
Probe = Callable[["Tracer", tuple, dict], "Callable[[object], None] | None"]


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run_id: int


@dataclass(frozen=True)
class Target:
    owner: object  # a module or a class
    attr: str
    span: str  # "<layer>.<operation>"; the layer is the part before the first dot
    probe: Probe | None = None


class RestoreError(RuntimeError):
    """An attribute the tracer rebound is not its original object afterwards."""


class Tracer:
    def __init__(self, targets: Iterable[Target]):
        self.targets = list(targets)
        # Spans live in flat arrays of ints: millions of small tuples would
        # make every garbage collection during a traced pass slower.
        self._names: list[str] = []
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self._runs = array("q")
        self.counters: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        return [
            Span(*fields)
            for fields in zip(self._names, self._starts, self._ends, self._parents, self._runs)
        ]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                original = vars(target.owner)[target.attr]
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in saved
            if vars(owner).get(attr) is not original
        ]
        if wrong:
            raise RestoreError(f"not restored: {', '.join(wrong)}")

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        names, starts, ends = self._names, self._starts, self._ends
        parents, runs = self._parents, self._runs
        stack = self._stack
        clock = time.perf_counter_ns
        name = target.span
        probe = target.probe
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(tracer, args, kwargs) if probe is not None else None
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            starts.append(0)  # reserve the span's index before its children take theirs
            ends.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if after is not None:
                after(result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


class Profile:
    """Per-span-name totals, merged over any number of traced passes."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.top_level_ns = 0
        self.counters: dict[str, float] = {}

    def add(self, tracer: Tracer) -> None:
        spans = tracer.spans
        for span, own in zip(spans, self_times(spans)):
            duration = span.end_ns - span.start_ns
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            self.total_ns[span.name] = self.total_ns.get(span.name, 0) + duration
            self.self_ns[span.name] = self.self_ns.get(span.name, 0) + own
            if span.parent < 0:
                self.top_level_ns += duration
        for name, value in tracer.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def mean_us(self, name: str, own: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        totals = self.self_ns if own else self.total_ns
        return totals[name] / calls / 1e3

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".", 1)[0] == layer)


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per line, gzip-compressed; times relative to the first span."""
    origin = min((s.start_ns for s in spans), default=0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for index, s in enumerate(spans):
            fh.write(
                json.dumps(
                    {
                        "id": index,
                        "name": s.name,
                        "start_ns": s.start_ns - origin,
                        "end_ns": s.end_ns - origin,
                        "parent": s.parent,
                        "run": s.run_id,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
