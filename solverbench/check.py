"""Output checker built on the benchmark's own interval and occupancy arithmetic.

It reads only the instance's data fields; it calls neither softsched's
evaluators nor its oracle, so a defect there cannot hide a wrong answer.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from softsched.instance import Instance


def overlap(s1: int, d1: int, s2: int, d2: int) -> bool:
    """Half-open intervals [s1, s1+d1) and [s2, s2+d2) share a slot."""
    return s1 < s2 + d2 and s2 < s1 + d1


def cost_terms(instance: Instance, assignment: Mapping[int, int]
               ) -> Tuple[int, int, Dict[int, int]]:
    """(initial cost sum, weighted overlap sum, incident overlap per activity)."""
    duration = {a.id: a.duration for a in instance.activities}
    initial = sum(dict(a.domain)[assignment[a.id]] for a in instance.activities)
    violation = 0
    incident = {a.id: 0 for a in instance.activities}
    for p in instance.pairs:
        if overlap(assignment[p.a], duration[p.a], assignment[p.b], duration[p.b]):
            violation += p.weight
            incident[p.a] += p.weight
            incident[p.b] += p.weight
    return initial, violation, incident


def assignment_problems(instance: Instance, assignment: Mapping[int, int]) -> List[str]:
    """Coverage, domain membership and cap_min <= occupancy <= cap_max."""
    ids = {a.id for a in instance.activities}
    if set(assignment) != ids:
        return [f"assignment covers {sorted(set(assignment) ^ ids)} wrongly"]
    problems = [f"activity {a.id} starts at {assignment[a.id]}, outside its domain"
                for a in instance.activities
                if assignment[a.id] not in dict(a.domain)]
    duration = {a.id: a.duration for a in instance.activities}
    for r in instance.resources:
        occ = [0] * (r.t_max - r.t_min + 1)
        for aid in r.members:
            start = assignment[aid]
            for t in range(max(start, r.t_min), min(start + duration[aid] - 1, r.t_max) + 1):
                occ[t - r.t_min] += 1
        for i, count in enumerate(occ):
            if not r.cap_min[i] <= count <= r.cap_max[i]:
                problems.append(f"resource {r.name!r} holds {count} at slot "
                                f"{r.t_min + i}, caps {r.cap_min[i]}..{r.cap_max[i]}")
    return problems


def objective(instance: Instance, assignment: Mapping[int, int], fuzzy: bool) -> int:
    """Weighted cost, or the worst incident violation under fuzzy-restart."""
    initial, violation, incident = cost_terms(instance, assignment)
    return max(incident.values(), default=0) if fuzzy else initial + violation


def check_solve(instance: Instance, parsed: Instance, fuzzy: bool, proving: bool,
                result, incumbents: Sequence, doc: Optional[dict], payload: bytes,
                optimum: Optional[int]) -> List[str]:
    """Every problem found in one solve's outputs; empty when all hold.

    ``incumbents`` are the objects the solver passed to its sink, in order.
    ``proving`` marks a solve without limits, which must end OPTIMAL;
    ``optimum``, when recorded, is the objective it must reach.
    """
    problems: List[str] = []
    if parsed != instance:
        problems.append("parsed instance differs from the generated one")
    if result.best is None or not incumbents:
        return problems + ["no solution"]

    previous = None
    for inc in incumbents:
        bad = assignment_problems(instance, inc.assignment)
        if bad:
            return problems + bad
        initial, violation, incident = cost_terms(instance, inc.assignment)
        if inc.cost != initial + violation:
            problems.append(f"incumbent cost {inc.cost} != {initial} + {violation}")
        worst = max(incident.values(), default=0)
        if previous is not None:
            cost_down = inc.cost < previous[0]
            # A fuzzy-restart round restarts the cost sequence, but only
            # under a violation cap below the previous round's worst.
            if not (cost_down or (fuzzy and worst < previous[1])):
                problems.append(f"incumbent {previous} -> {(inc.cost, worst)} "
                                "does not improve")
        previous = (inc.cost, worst)

    best = result.best
    if (best.cost, best.assignment) != (incumbents[-1].cost, incumbents[-1].assignment):
        problems.append("result differs from the last incumbent")
    initial, violation, _ = cost_terms(instance, best.assignment)
    written = {e["id"]: e["start"] for e in doc["assignment"]}
    if written != best.assignment:
        problems.append("solution file assignment differs from the result")
    if doc["cost"] != initial + violation:
        problems.append(f"solution file cost {doc['cost']} != {initial + violation}")
    if (doc["breakdown"]["initial_cost_sum"], doc["breakdown"]["violation_sum"]) != (
            initial, violation):
        problems.append("solution file breakdown differs from the assignment")
    if doc["optimal"] != (result.status.value == "optimal"):
        problems.append("solution file optimal flag differs from the status")
    if json.loads(payload) != doc:
        problems.append("serialized solution does not round-trip")
    if proving:
        if result.status.value != "optimal":
            problems.append(f"unlimited solve ended {result.status.value}")
        value = objective(instance, best.assignment, fuzzy)
        if optimum is not None and value != optimum:
            problems.append(f"objective {value} != recorded optimum {optimum}")
    return problems
