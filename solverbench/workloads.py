"""Workload definitions and the benchmark's own input builder.

A workload is a fixed list of solves.  Each solve names the generator
parameters of its instance, the objective, the bound mode and the node
budget.  The generator seeds are fixed per workload and recorded in
``reference.json`` together with the search fingerprint they produce.  A
different generator seed gives a different search: across generator seeds
0-9 the campus instance's last improvement falls anywhere between node 302
and node 16183, and its node rate varies fourfold, which would swamp the
effect of any change to the solver.

The ``--seed`` of a run therefore varies the *bytes* the program parses,
not the instance: activity, domain-entry and pair order, and the
orientation of each pair.  ``parse_instance`` must normalise all of these,
so every seed yields the same search, and the checker verifies that it
does.  ``--instance-offset K`` shifts every generator seed by K to run
instances no reference was recorded for (the unseen-seed confirmation).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from softsched import generator
from softsched.instance import Instance


@dataclass(frozen=True)
class SolveSpec:
    courses: int
    rooms: int
    occupancy: float
    seed: int
    objective: str = "weighted"          # or "fuzzy-restart"
    lb: str = "none"                      # "none", "min" or "exp"
    node_limit: Optional[int] = None      # None: run to a proven optimum
    pigeonhole_cap_exp: bool = False      # replace cap_exp by the pigeonhole bound

    @property
    def label(self) -> str:
        return (f"{self.objective}:{self.courses}/{self.rooms}/"
                f"{self.occupancy}/s{self.seed}")


WORKLOADS: Dict[str, Tuple[SolveSpec, ...]] = {
    # Anytime search on the 258-course campus instance; no bound mode and an
    # all-zero cap_min, so the cumulative layer is bypassed.
    "campus": (
        SolveSpec(258, 35, 0.74, 6, node_limit=20_000),
    ),
    # Same size at 95% occupancy with a sound cap_exp, so the EXP resource
    # bound runs at every node.  The generator's own cap_exp (33 per slot
    # here) is an unchecked claim that does not hold, so EXP is never run on it.
    "tight": (
        SolveSpec(258, 35, 0.95, 6, lb="exp", node_limit=2_000,
                  pigeonhole_cap_exp=True),
    ),
    # Small instances solved to a proven weighted optimum: whole-tree search
    # with heavy trail undo.
    "ladder": (
        SolveSpec(30, 6, 0.7, 0),
        SolveSpec(30, 6, 0.7, 2),
        SolveSpec(40, 8, 0.7, 1),
    ),
    # The same kind of instances under the fuzzy-restart objective: u-max
    # value removals, wipeouts and restart rounds.
    "ladder-fuzzy": (
        SolveSpec(30, 6, 0.7, 0, objective="fuzzy-restart"),
        SolveSpec(30, 6, 0.7, 2, objective="fuzzy-restart"),
        SolveSpec(40, 8, 0.7, 2, objective="fuzzy-restart"),
    ),
}


def workload_specs(name: str, instance_offset: int = 0) -> Tuple[SolveSpec, ...]:
    return tuple(replace(spec, seed=spec.seed + instance_offset)
                 for spec in WORKLOADS[name])


def pigeonhole_bound(instance: Instance) -> List[int]:
    """Per-slot minimum occupancy every complete schedule must reach.

    Valid for one resource whose window is the whole horizon, whose members
    are every activity, all of duration 1: the other slots seat at most the
    sum of their cap_max, and every remaining member has to sit in this one.
    """
    (pool,) = instance.resources
    if (pool.t_min, pool.t_max) != (0, instance.horizon - 1):
        raise ValueError("pigeonhole bound needs a pool spanning the horizon")
    if sorted(pool.members) != sorted(a.id for a in instance.activities):
        raise ValueError("pigeonhole bound needs every activity in the pool")
    if any(a.duration != 1 for a in instance.activities):
        raise ValueError("pigeonhole bound needs unit durations")
    seats = sum(pool.cap_max)
    n = len(pool.members)
    return [max(0, n - (seats - cap)) for cap in pool.cap_max]


def build_instance(spec: SolveSpec) -> Instance:
    instance = generator.generate(spec.courses, spec.rooms, spec.occupancy, spec.seed)
    if not spec.pigeonhole_cap_exp:
        return instance
    (pool,) = instance.resources
    horizon = instance.horizon
    expected = max(0, spec.courses - spec.rooms * (horizon - 1))
    cap_exp = tuple(pigeonhole_bound(instance))
    if cap_exp != (expected,) * horizon:
        raise ValueError(f"pigeonhole cap_exp {cap_exp} != {expected} per slot")
    return replace(instance, resources=(replace(pool, cap_exp=cap_exp),))


def encode(instance: Instance, rng: random.Random) -> bytes:
    """Instance file bytes in a seed-chosen order that parsing must undo."""
    activities = []
    for a in instance.activities:
        domain = [[slot, cost] for slot, cost in a.domain]
        rng.shuffle(domain)
        activities.append({"id": a.id, "duration": a.duration,
                           "enrollment": a.enrollment, "domain": domain})
    rng.shuffle(activities)
    pairs = []
    for p in instance.pairs:
        a, b = (p.a, p.b) if rng.random() < 0.5 else (p.b, p.a)
        pairs.append({"a": a, "b": b, "weight": p.weight})
    rng.shuffle(pairs)
    doc = {
        "format": 1,
        "horizon": instance.horizon,
        "activities": activities,
        "soft_disjunctive": pairs,
        "resources": [
            {"name": r.name, "members": list(r.members),
             "t_min": r.t_min, "t_max": r.t_max,
             "cap_min": list(r.cap_min), "cap_max": list(r.cap_max),
             "cap_exp": list(r.cap_exp)}
            for r in instance.resources
        ],
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def build_inputs(specs: Tuple[SolveSpec, ...],
                 seed: int) -> List[Tuple[SolveSpec, Instance, bytes]]:
    """(spec, expected parsed instance, file bytes) for every solve."""
    rng = random.Random(seed)
    inputs = []
    for spec in specs:
        instance = build_instance(spec)
        inputs.append((spec, instance, encode(instance, rng)))
    return inputs
