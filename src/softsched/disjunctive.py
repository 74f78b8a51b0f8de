"""Soft non-overlap constraints and assignment-quality evaluators.

A soft disjunctive constraint records, for an activity and each neighbor
it shares a pair with, a weighted preference that their execution
intervals not intersect.  The constraint is event-driven: constructing it
suspends it on the activity's start variable, which holds at most one
constraint, and it fires exactly when that variable is instantiated,
pushing the arc weight onto every live value of each not-yet-instantiated
neighbor that would overlap the chosen
interval.  A firing visits only the window of neighbor starts that can
overlap that interval, not the neighbor's whole slot grid, and handles each
live start there in one fused loop: a start the charge would push past a
violation limit is removed (its penalty entry becomes None), any other is
charged.  Either way the loop itself writes the one trail record, which
keeps the penalty the start held, and then the start's new entry, and
rescans the neighbor's cheapest value only when the touched start was the
cheapest.
That is the per-node cost of search, so the loop makes no per-slot method
call except the rescan.  Charging violations only toward uninstantiated
neighbors counts every violated pair exactly once — on the endpoint
instantiated later — so the penalties sitting at the assigned values of a
complete assignment sum to the initial costs plus the total weighted
violation, regardless of instantiation order.

The evaluators at the bottom are pure functions over (instance, complete
assignment) and back both solver bookkeeping and reporting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .core import DomainWipeout, PreferenceVariable, Trail
from .instance import Instance

_SLOT = Trail._SLOT


def overlaps(s1: int, d1: int, s2: int, d2: int) -> bool:
    """True iff the half-open intervals [s1, s1+d1) and [s2, s2+d2) intersect."""
    return s1 < s2 + d2 and s2 < s1 + d1


class SoftDisjunctive:
    """Weighted non-overlap preference suspended on one start variable.

    ``arcs`` holds (neighbor variable, neighbor duration, weight) triples.
    Constructing the constraint posts it: it becomes ``var.constraint``,
    and assigning ``var`` fires it.  A variable holds at most one, so all
    of an activity's arcs go into one constraint, and every unordered pair
    must be posted at both endpoints so that either instantiation order
    propagates.  An empty arc list is allowed; the constraint is then inert.
    With a violation limit set, a neighbor value whose accumulated violation
    share (initial cost excluded) would exceed the limit once charged is
    removed instead of charged, so it never carries the increment that
    would have pushed it over.
    """

    __slots__ = ("var", "duration", "arcs", "limit")

    def __init__(self, var: PreferenceVariable, duration: int,
                 arcs: Sequence[Tuple[PreferenceVariable, int, int]],
                 limit: Optional[int] = None):
        seen = set()
        for other, _d, weight in arcs:
            if other is var:
                raise ValueError(f"variable {var.id} listed as its own neighbor")
            if other.id in seen:
                raise ValueError(f"duplicate neighbor {other.id} on variable {var.id}")
            if weight < 1:
                raise ValueError("arc weights must be >= 1")
            seen.add(other.id)
        if var.constraint is not None:
            raise ValueError(f"variable {var.id} already holds a constraint")
        self.var = var
        self.duration = duration
        self.arcs = list(arcs)
        self.limit = limit
        var.constraint = self

    def propagate(self, trail: Trail) -> None:
        """Charge this activity's chosen interval to overlapping neighbor values.

        A neighbor start s of duration d_other overlaps [start, start + d)
        exactly when start - d_other < s < start + d, so only that window
        of the neighbor's slot grid is visited, in ascending order.  Each
        live slot there gets one trail record keeping its penalty.  A slot
        whose violation share (penalty minus initial cost) plus the weight
        exceeds the limit is then removed, leaving the store state of
        :meth:`PreferenceVariable.remove_value`, wipeout included; any other
        is charged, leaving that of :meth:`PreferenceVariable.add_penalty`.

        Removing without charging is exact: a removed slot keeps no penalty,
        and the undo revives it with its penalty from before this firing.
        The live state after every step and every undo is what charging and
        then removing would leave, with one record per removed slot instead
        of two.
        """
        start = self.var.assignment
        end = start + self.duration
        limit = self.limit
        entries = trail._entries
        for other, d_other, weight in self.arcs:
            if other.assignment is not None:
                continue  # pair already charged when the neighbor fired
            penalty = other._penalty
            lo = start - d_other + 1
            if lo < 0:
                lo = 0
            hi = len(penalty)
            if end < hi:
                hi = end
            initial = other._initial
            for slot in range(lo, hi):
                pen = penalty[slot]
                if pen is not None:
                    entries.append((_SLOT, other, slot, pen))
                    pen += weight
                    if limit is not None and pen - initial[slot] > limit:
                        penalty[slot] = None
                    else:
                        penalty[slot] = pen
                    if slot == other._min_slot:
                        other._rescan(trail)
                        if other._min_slot < 0:
                            raise DomainWipeout(other.id)


def post_network(
    instance: Instance,
    variables: Mapping[int, PreferenceVariable],
    limit: Optional[int] = None,
) -> None:
    """Post one constraint per activity carrying all its soft arcs.

    Registers both directions of every pair.  Activities without soft arcs
    get no constraint.
    """
    for act in instance.activities:
        arcs = [(variables[other], instance.activity(other).duration, weight)
                for other, weight in instance.incident[act.id]]
        if arcs:
            SoftDisjunctive(variables[act.id], act.duration, arcs, limit)


# ---------------------------------------------------------------------------
# evaluators over complete assignments


def violation_profile(instance: Instance,
                      assignment: Mapping[int, int]) -> Dict[int, int]:
    """Incident violation for every activity, in one pass over the pairs."""
    u: Dict[int, int] = {a.id: 0 for a in instance.activities}
    by_id = instance.by_id
    for p in instance.pairs:
        if overlaps(assignment[p.a], by_id[p.a].duration,
                    assignment[p.b], by_id[p.b].duration):
            u[p.a] += p.weight
            u[p.b] += p.weight
    return u


def worst_case_satisfaction(instance: Instance,
                            assignment: Mapping[int, int]) -> Fraction:
    """Worst per-activity normalized preference, an exact rational in [0, 1].

    Each activity's incident violation u is normalized against m*(n-1),
    where n is the activity count and m the total requirement weight over
    all pairs (a pair of weight w stands for w individual requirements).
    Returns min over activities of 1 - u/(m*(n-1)); maximizing it favors
    assignments whose most-violated activity is as satisfied as possible.
    """
    n = len(instance.activities)
    m = instance.total_weight
    if n < 2 or m == 0:
        raise ValueError(
            "worst-case satisfaction needs >= 2 activities and >= 1 weighted pair")
    worst_u = max(violation_profile(instance, assignment).values())
    return 1 - Fraction(worst_u, m * (n - 1))
