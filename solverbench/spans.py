"""Outside-in tracing: spans around softsched's public functions.

The wrappers are installed from the benchmark's side, so the library stays
untouched.  Each wrapped call is a span (name, start, end, parent).  A
span's self time is its duration minus the time its child spans cover;
totals per name are accumulated as spans close.  The closed spans are kept
in memory and written out when the run ends, except for the names in
``HOT``: those run millions of times per round and would take hundreds of
megabytes as spans, so only their calls and self time are kept.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from softsched import cli, core, cumulative, disjunctive, generator, instance, search

HOT = frozenset({
    "core.min_penalty", "core.add_penalty", "core.remove_value",
    "core.push_occupancy", "cumulative.slot_excess",
})

Span = Tuple[str, float, float, int]


class Tracer:
    """Span recorder; ``clock`` returns seconds and can be replaced in tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.stats: Dict[str, List[float]] = {}     # name -> [calls, self seconds]
        self.counters: Dict[str, int] = {}
        self.spans: List[Optional[Span]] = []       # parent is an index, -1 for none
        # A frame is [child seconds, start, own span index, index children point to].
        self._stack: List[list] = [[0.0, 0.0, -1, -1]]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, keep: bool) -> list:
        parent = self._stack[-1]
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, 0.0, index, index if keep else parent[3]]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def close(self, name: str, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - frame[0]
        parent = self._stack[-1]
        parent[0] += duration
        if frame[2] >= 0:
            self.spans[frame[2]] = (name, frame[1], end, parent[3])

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name not in HOT
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            frame = open_(keep)
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame)

        traced.__wrapped__ = fn
        return traced

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]



def write_spans(path, stats, counters, spans) -> None:
    """Spans as gzipped JSON lines, then one line of per-name totals."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
        fh.write(json.dumps({"stats": stats, "counters": counters}) + "\n")


def _shims(tracer: Tracer) -> List[Tuple[object, str, str, Callable]]:
    """(owner, attribute, span name, replacement before tracing) per patch.

    ``search`` imports its helpers by name, so they are patched there;
    ``slot_excess`` is called from inside ``cumulative``.  Watchers bind
    ``SoftDisjunctive.propagate`` when constraints are posted, which happens
    inside ``solve`` after installation.
    """
    def remove_value(var, slot, trail, _f=core.PreferenceVariable.remove_value):
        try:
            return _f(var, slot, trail)
        except core.DomainWipeout:
            tracer.count("core.wipeouts")
            raise

    def undo_to(trail, mark, _f=core.Trail.undo_to):
        tracer.count("core.undo_to.entries", len(trail) - mark)
        return _f(trail, mark)

    def contribution_with_quota(*args, _f=search.contribution_with_quota, **kwargs):
        try:
            return _f(*args, **kwargs)
        except cumulative.ResourceInfeasible:
            tracer.count("cumulative.infeasible")
            raise

    def parse_instance(data, _f=instance.parse_instance):
        tracer.count("instance.parse_instance.bytes", len(data))
        return _f(data)

    pv, trail = core.PreferenceVariable, core.Trail
    profile = disjunctive.violation_profile
    return [
        (pv, "min_penalty", "core.min_penalty", pv.min_penalty),
        (pv, "assign", "core.assign", pv.assign),
        (pv, "add_penalty", "core.add_penalty", pv.add_penalty),
        (pv, "remove_value", "core.remove_value", remove_value),
        (trail, "undo_to", "core.undo_to", undo_to),
        (trail, "push_occupancy", "core.push_occupancy", trail.push_occupancy),
        (disjunctive.SoftDisjunctive, "propagate", "disjunctive.propagate",
         disjunctive.SoftDisjunctive.propagate),
        (disjunctive, "violation_profile", "disjunctive.violation_profile", profile),
        (search, "violation_profile", "disjunctive.violation_profile", profile),
        (cli, "violation_profile", "disjunctive.violation_profile", profile),
        (search, "contribution_with_quota", "cumulative.contribution_with_quota",
         contribution_with_quota),
        (cumulative, "slot_excess", "cumulative.slot_excess", cumulative.slot_excess),
        (search, "select_variable", "search.select_variable", search.select_variable),
        (search, "order_values", "search.order_values", search.order_values),
        (search, "solve", "search.solve", search.solve),
        (search, "solve_min_worst_violation", "search.solve_min_worst_violation",
         search.solve_min_worst_violation),
        (instance, "parse_instance", "instance.parse_instance", parse_instance),
        (cli, "build_solution", "cli.build_solution", cli.build_solution),
        (generator, "generate", "generator.generate", generator.generate),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced function for the duration of the block."""
    patches = _shims(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _n, _f in patches]
    try:
        for owner, attr, name, fn in patches:
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
