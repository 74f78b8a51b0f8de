"""Exhaustive reference solver for small instances.

Enumerates the full Cartesian product of start domains, keeps only
assignments that satisfy every hard occupancy constraint, and reads off
the optimum of either objective.  Meant as ground truth for tests and the
``verify`` command — it refuses instances whose product exceeds a cap
rather than grinding forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .core import PreferenceVariable, SchedulingError
from .cumulative import BoundMode, ResourceInfeasible
from .instance import Instance
from .search import resource_bound

ENUMERATION_CAP = 10_000_000


class Objective(Enum):
    WEIGHTED = "weighted"  # minimize initial costs + weighted overlap violations
    FUZZY = "fuzzy"        # maximize the worst-case per-activity satisfaction


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive enumeration.

    ``optimum`` is None when no assignment passes the hard checks,
    an int (total penalty) for the WEIGHTED objective, and an exact
    Fraction for FUZZY.  ``witness`` is the first assignment in enumeration
    order attaining it (None when infeasible) and ``count`` the number of
    assignments attaining it.
    """

    objective: Objective
    optimum: Union[int, Fraction, None]
    witness: Optional[Dict[int, int]]
    count: int
    evaluated: int

    @property
    def feasible(self) -> bool:
        return self.optimum is not None


def enumerate_optimum(instance: Instance,
                      objective: Objective = Objective.WEIGHTED,
                      violation_limit: Optional[int] = None,
                      cap: int = ENUMERATION_CAP) -> OracleResult:
    """Exhaustive optimum over all hard-feasible assignments.

    ``violation_limit``, when given, additionally discards assignments in
    which any activity's incident violation exceeds the limit — the
    reference semantics for threshold-filtered solving.  Raises ValueError
    when the domain product exceeds ``cap``.
    """
    acts = instance.activities
    product_size = 1
    for a in acts:
        product_size *= len(a.domain)
    if product_size > cap:
        raise ValueError(
            f"refusing to enumerate {product_size} assignments (cap {cap})")

    n = len(acts)
    m = instance.total_weight
    if objective is Objective.FUZZY and (n < 2 or m == 0):
        raise ValueError(
            "fuzzy objective needs >= 2 activities and >= 1 weighted pair")

    index_of = {a.id: i for i, a in enumerate(acts)}
    pair_data = [(index_of[p.a], index_of[p.b], p.weight) for p in instance.pairs]
    durations = [a.duration for a in acts]

    # Per resource: member indices plus, per member, slot -> covered offsets.
    res_data = []
    for r in instance.resources:
        members = []
        for aid in r.members:
            i = index_of[aid]
            cover = {}
            for slot, _cost in acts[i].domain:
                lo = max(slot, r.t_min)
                hi = min(slot + durations[i] - 1, r.t_max)
                cover[slot] = tuple(range(lo - r.t_min, hi - r.t_min + 1))
            members.append((i, cover))
        res_data.append((members, r.cap_min, r.cap_max,
                         r.t_max - r.t_min + 1))

    minimize = objective is Objective.WEIGHTED
    best = None  # total cost for WEIGHTED, worst incident violation for FUZZY
    witness = None
    count = 0
    evaluated = 0

    for combo in itertools.product(*(a.domain for a in acts)):
        evaluated += 1
        slots = tuple(pair[0] for pair in combo)

        feasible = True
        for members, cap_min, cap_max, width in res_data:
            occ = [0] * width
            for i, cover in members:
                for off in cover[slots[i]]:
                    occ[off] += 1
            for idx in range(width):
                if not cap_min[idx] <= occ[idx] <= cap_max[idx]:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue

        incident = [0] * n
        violation = 0
        for ia, ib, w in pair_data:
            sa, sb = slots[ia], slots[ib]
            if sa < sb + durations[ib] and sb < sa + durations[ia]:
                violation += w
                incident[ia] += w
                incident[ib] += w
        worst = max(incident) if incident else 0
        if violation_limit is not None and worst > violation_limit:
            continue

        if minimize:
            score = sum(pair[1] for pair in combo) + violation
        else:
            score = worst
        if best is None or score < best:
            best = score
            witness = slots
            count = 1
        elif score == best:
            count += 1

    if best is None:
        return OracleResult(objective, None, None, 0, evaluated)
    assignment = {acts[i].id: s for i, s in enumerate(witness)}
    if minimize:
        return OracleResult(objective, best, assignment, count, evaluated)
    return OracleResult(objective, 1 - Fraction(best, m * (n - 1)),
                        assignment, count, evaluated)


class BoundViolation(SchedulingError):
    """A lower bound exceeded the true optimum — a soundness counterexample.

    ``bound`` is None when the bound computation claimed infeasibility on
    an instance the oracle proved feasible.
    """

    def __init__(self, name: str, mode: BoundMode, bound: Optional[Fraction],
                 optimum: int, witness: Dict[int, int]):
        claim = "an infeasibility signal" if bound is None else f"bound {bound}"
        super().__init__(
            f"{name}: {mode.value} mode produced {claim} against optimum "
            f"{optimum}; witness assignment {witness}")
        self.name = name
        self.mode = mode
        self.bound = bound
        self.optimum = optimum
        self.witness = witness


@dataclass(frozen=True)
class BoundReport:
    name: str
    feasible: bool
    optimum: Optional[int]
    bounds: Dict[BoundMode, Optional[Fraction]]  # None: claimed infeasible
    slacks: Dict[BoundMode, Optional[Fraction]]


def verify_bound(instance: Instance, name: str = "instance",
                 modes: Tuple[BoundMode, ...] = (BoundMode.MIN, BoundMode.EXP),
                 cap: int = ENUMERATION_CAP) -> BoundReport:
    """Check the root resource lower bounds against the enumerated optimum.

    The bound checked is the one search prunes with: the sum of every
    variable's cheapest penalty plus :func:`softsched.search.resource_bound`
    over empty resources.  Returns the per-mode bounds and slacks; raises
    :class:`BoundViolation` with a witness assignment if any bound
    overshoots the optimum or claims a feasible instance infeasible.  A
    truly infeasible instance passes vacuously.
    """
    result = enumerate_optimum(instance, Objective.WEIGHTED, cap=cap)
    bounds: Dict[BoundMode, Optional[Fraction]] = {}
    slacks: Dict[BoundMode, Optional[Fraction]] = {}
    variables = {a.id: PreferenceVariable(a.id, list(a.domain))
                 for a in instance.activities}
    cheapest = sum(var.min_penalty()[1] for var in variables.values())
    empty = [[0] * (r.t_max - r.t_min + 1) for r in instance.resources]
    for mode in modes:
        try:
            bound = Fraction(
                cheapest + resource_bound(instance, variables, mode, empty))
        except ResourceInfeasible:
            bound = None
        bounds[mode] = bound
        if not result.feasible:
            slacks[mode] = None
            continue
        if bound is None or result.optimum - bound < 0:
            raise BoundViolation(name, mode, bound,
                                 result.optimum, result.witness)
        slacks[mode] = result.optimum - bound
    return BoundReport(name, result.feasible, result.optimum, bounds, slacks)
