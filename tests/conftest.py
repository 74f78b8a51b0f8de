"""Shared corpus of small seeded instances plus an independent profiler.

The profiler enumerates every assignment with its own interval and
occupancy arithmetic (no solver code) and records everything the tests
need: the weighted optimum, the optimum under each worst-violation cap,
the best achievable worst violation, and per-slot occupancy minima.  The
occupancy minima double as honest expected-capacity figures for the
instances, which keeps the expected-mode lower bound sound on this corpus.
"""

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Optional, Tuple

import pytest

from softsched import Activity, Instance, Resource, SoftPair
from softsched.core import PreferenceVariable

CORPUS_SIZE = 520


# -- store readings the solver itself never needs ----------------------------


def penalty(var: PreferenceVariable, slot: int) -> int:
    """Current penalty of a live slot; a dead slot raises KeyError."""
    if not var.contains(slot):
        raise KeyError(f"slot {slot} not in domain of variable {var.id}")
    return var._penalty[slot]


def violation_share(var: PreferenceVariable, slot: int) -> int:
    """Propagated weight accumulated on a slot, excluding its initial cost."""
    return var._penalty[slot] - var._initial[slot]


def domain_size(var: PreferenceVariable) -> int:
    """Number of live slots."""
    return sum(pen is not None for pen in var._penalty)


@dataclass
class Profile:
    feasible_count: int
    evaluated: int
    min_cost: Optional[int]
    min_worst_u: Optional[int]
    cost_by_worst_u: Dict[int, int]   # exact worst violation -> min cost there
    min_occ: List[List[int]]          # per resource, per window slot

    @property
    def feasible(self) -> bool:
        return self.feasible_count > 0

    def filtered_optimum(self, cap: int) -> Optional[int]:
        costs = [c for u, c in self.cost_by_worst_u.items() if u <= cap]
        return min(costs) if costs else None


def exhaustive_profile(instance: Instance) -> Profile:
    acts = instance.activities
    durs = [a.duration for a in acts]
    index = {a.id: i for i, a in enumerate(acts)}
    pair_list = [(index[p.a], index[p.b], p.weight) for p in instance.pairs]

    res_data = []
    for r in instance.resources:
        width = r.t_max - r.t_min + 1
        cover = []
        for aid in r.members:
            i = index[aid]
            spans = {}
            for s, _cost in acts[i].domain:
                lo = max(s, r.t_min) - r.t_min
                hi = min(s + durs[i] - 1, r.t_max) - r.t_min
                spans[s] = range(lo, hi + 1)
            cover.append((i, spans))
        res_data.append((cover, r.cap_min, r.cap_max, width))

    n = len(acts)
    feasible_count = 0
    evaluated = 0
    min_cost = None
    min_worst = None
    by_worst: Dict[int, int] = {}
    min_occ = [None] * len(res_data)

    for combo in product(*(a.domain for a in acts)):
        evaluated += 1
        slots = [pair[0] for pair in combo]

        occs = []
        ok = True
        for cover, cap_min, cap_max, width in res_data:
            occ = [0] * width
            for i, spans in cover:
                for off in spans[slots[i]]:
                    occ[off] += 1
            for t in range(width):
                if not cap_min[t] <= occ[t] <= cap_max[t]:
                    ok = False
                    break
            if not ok:
                break
            occs.append(occ)
        if not ok:
            continue

        feasible_count += 1
        cost = sum(pair[1] for pair in combo)
        incident = [0] * n
        for ia, ib, w in pair_list:
            sa, sb = slots[ia], slots[ib]
            if sa < sb + durs[ib] and sb < sa + durs[ia]:
                cost += w
                incident[ia] += w
                incident[ib] += w
        worst = max(incident) if incident else 0

        if min_cost is None or cost < min_cost:
            min_cost = cost
        if min_worst is None or worst < min_worst:
            min_worst = worst
        if worst not in by_worst or cost < by_worst[worst]:
            by_worst[worst] = cost
        for ri, occ in enumerate(occs):
            if min_occ[ri] is None:
                min_occ[ri] = list(occ)
            else:
                cur = min_occ[ri]
                for t in range(len(occ)):
                    if occ[t] < cur[t]:
                        cur[t] = occ[t]

    min_occ = [m if m is not None else [0] * (r.t_max - r.t_min + 1)
               for m, r in zip(min_occ, instance.resources)]
    return Profile(feasible_count, evaluated, min_cost, min_worst,
                   by_worst, min_occ)


def _cap_profile(rng: random.Random, width: int, members: int) -> Tuple[tuple, tuple]:
    cap_max = (rng.randint(max(1, members - 3), members),) * width
    cap_min = tuple(1 if rng.random() < 0.12 else 0 for _ in range(width))
    cap_min = tuple(min(cap_min[t], cap_max[t]) for t in range(width))
    return cap_min, cap_max


def build_instance(seed: int) -> Tuple[Instance, Profile]:
    """One seeded instance with honest expected-occupancy figures.

    Geometry keeps the shared-weight bookkeeping sound: resources either
    own disjoint member sets, or — when every duration is one slot — may
    overlap and sit on sub-windows (integral shares cannot compound).
    """
    rng = random.Random(1_000_003 * seed + 17)
    unit_only = rng.random() < 0.35
    n = rng.randint(3, 6)
    horizon = rng.randint(3, 8)

    acts = []
    for aid in range(n):
        dur = 1 if unit_only else rng.randint(1, min(3, horizon))
        fit = horizon - dur + 1
        size = min(fit, rng.randint(2, 3 if n >= 5 else 5))
        slots = sorted(rng.sample(range(fit), size))
        domain = tuple(
            (s, 0 if rng.random() < 0.55 else rng.randint(1, 4))
            for s in slots)
        enrollment = 0 if rng.random() < 0.1 else rng.randint(5, 40)
        acts.append(Activity(aid, dur, enrollment, domain))

    pairs = tuple(
        SoftPair(a, b, rng.randint(1, 5))
        for a, b in combinations(range(n), 2) if rng.random() < 0.6)

    two = rng.random() < 0.45
    groups: List[Tuple[Tuple[int, ...], int, int]]  # (members, t_min, t_max)
    if not two:
        groups = [(tuple(range(n)), 0, horizon - 1)]
    elif unit_only:
        members = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        lo = rng.randint(0, horizon - 1)
        hi = rng.randint(lo, horizon - 1)
        groups = [(tuple(range(n)), 0, horizon - 1), (members, lo, hi)]
    else:
        ids = list(range(n))
        rng.shuffle(ids)
        cut = rng.randint(1, n - 1)
        groups = [(tuple(sorted(ids[:cut])), 0, horizon - 1),
                  (tuple(sorted(ids[cut:])), 0, horizon - 1)]

    resources = []
    for gi, (members, lo, hi) in enumerate(groups):
        cap_min, cap_max = _cap_profile(rng, hi - lo + 1, len(members))
        resources.append(Resource(f"r{gi}", members, lo, hi,
                                  cap_min, cap_max, cap_min))

    draft = Instance(horizon, tuple(acts), pairs, tuple(resources))
    profile = exhaustive_profile(draft)

    final_resources = []
    for ri, r in enumerate(resources):
        if profile.feasible:
            cap_exp = tuple(max(r.cap_min[t], profile.min_occ[ri][t])
                            for t in range(len(r.cap_min)))
        else:
            cap_exp = r.cap_min
        final_resources.append(Resource(r.name, r.members, r.t_min, r.t_max,
                                        r.cap_min, r.cap_max, cap_exp))
    return Instance(horizon, tuple(acts), pairs, tuple(final_resources)), profile


@pytest.fixture(scope="session")
def corpus():
    """520 seeded instances with their independently computed profiles."""
    return [(f"c{seed:03d}", *build_instance(seed))
            for seed in range(CORPUS_SIZE)]
