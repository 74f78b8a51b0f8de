"""Anytime branch-and-bound over preference variables.

Depth-first search assigns variables most-constrained-first and values
cheapest-first, propagating soft non-overlap weights and hard occupancy
caps after every assignment.  It is one loop over an explicit stack of
choice points, one per open node, each rewinding the trail to its mark
after every child; nothing recurses, so the depth is not bounded by the
interpreter's recursion limit, and :func:`solve` leaves interpreter state
alone.  The variables are ranked by arc count once per solve, so picking
the next one scans that ranking for the first group with an unassigned
variable instead of sorting at every node.  Every complete assignment that
beats the incumbent is emitted to a progress sink immediately, so the
search can be stopped at any moment — by time limit, node limit, or a
cancellation callback, checked before each child that is assigned and once
per group of cut siblings — and still hand back the best solution seen.

Pruning combines the cost already committed (the penalties at assigned
values), the cheapest-value sum over unassigned variables, and optionally
the resource bound :func:`resource_bound`, recomputed at every node from
one :class:`softsched.cumulative.ResourceLayout` per resource built once
per solve.  A layout holds the resource's static part, the declared row its
mode charges included, so a node reads only live state
(:func:`layout_bound`).  Hard capacities are counted on one
:class:`softsched.cumulative.Occupancy` per resource: each assignment
places the variable on the resources that hold it, an overflow fails the
child, and a leaf must leave no slot under ``cap_min``; the bound reads the
same counts.  A violation limit is kept by propagation alone: the soft
constraints charge both ends of every pair and fail the child whose
assignment would take any activity past the limit, so a leaf is not checked
against it.  The cheapest-value sum is not recomputed: every variable keeps
its cheapest live value current through its trailed mutations, and the
trail keeps the sum of those over the unassigned variables
(``Trail.base_bound``), so the base bound costs O(1) per node.

A child that cannot beat the incumbent is cut before it is assigned.  When
a choice point opens, its floor is the node cost plus the cheapest-value
sum over the other unassigned variables; assigning a child and propagating
it can only raise those, or fail the child, and the resource bound is never
negative.  So once the floor plus a child's penalty reaches the incumbent's
cost, that child would be pruned at its visit, and so would every later
sibling, since values come cheapest first.  The whole group goes into the
node count at once (up to the node limit) and is dropped without touching
the trail, so node counts and incumbents stay those of visiting each child.

The fuzzy restart (:func:`solve_min_worst_violation`) runs a chain of
rounds in the same loop, each capping every activity's violation one below
the worst of the last round's best; the final round must prove that nothing
fits its cap.  A round that exhausts its tree leaves the trail empty, and
with it the store, the base bound and the occupancy counts as they were
before the round, so the next round only sets its cap on every soft
constraint and visits the root again.  The rounds share one setup, one
clock, one node count and one budget.  Before each round after the first,
:func:`pigeonhole_clique` looks for unit activities that pairwise weigh
more than the cap and together have fewer start slots than members: two of
them must share a slot, so the round would fail, and the loop ends proven
without running it.  The check gives up at a fixed work cap, and the round
then runs as before.  A weighted solve never runs it.

One status rule holds: OPTIMAL or FEASIBLE with an incumbent, INFEASIBLE
or UNKNOWN without, the first of each when the search exhausted its tree
(in a fuzzy restart, the last round's tree).  The incumbent of a fuzzy
restart is the best of its last round that found one.

There is one implementation of the resource bound:
:func:`resource_bound` builds the same layouts and evaluates them once,
``softsched.oracle.verify_bound`` checks it at the root, and its
per-resource step comes from :mod:`softsched.cumulative`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from .core import PreferenceVariable, SchedulingError, Trail
from .cumulative import (BoundMode, Occupancy, ResourceInfeasible,
                         ResourceLayout, contribution_with_quota)
from .disjunctive import post_network, violation_profile
from .instance import Instance


class Status(Enum):
    OPTIMAL = "optimal"        # search exhausted; best incumbent is proven optimal
    FEASIBLE = "feasible"      # stopped early; best incumbent not proven optimal
    INFEASIBLE = "infeasible"  # search exhausted without any complete assignment
    UNKNOWN = "unknown"        # stopped early before finding any assignment


@dataclass(frozen=True)
class SearchConfig:
    time_limit: Optional[float] = None      # wall-clock seconds
    node_limit: Optional[int] = None
    violation_limit: Optional[int] = None   # cap on any activity's incident violation
    lb_mode: BoundMode = BoundMode.NONE

    def __post_init__(self):
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise ValueError("time limit must be positive")
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node limit must be positive")
        if self.violation_limit is not None and self.violation_limit < 0:
            raise ValueError("violation limit must be >= 0")


@dataclass(frozen=True)
class Incumbent:
    assignment: Dict[int, int]
    cost: int
    elapsed: float
    nodes: int


@dataclass(frozen=True)
class SolveResult:
    status: Status
    best: Optional[Incumbent]
    nodes: int
    elapsed: float
    incumbents: int


ProgressSink = Callable[[Incumbent], None]
CancelCheck = Callable[[], bool]


Ranking = List[List[PreferenceVariable]]


def rank_variables(variables: Mapping[int, PreferenceVariable],
                   metric: Mapping[int, int]) -> Ranking:
    """Variables grouped by equal constrainedness, most constrained group first.

    ``metric`` holds the static constrainedness score per variable (arc
    count or summed arc weight).  Inside a group the variables are in
    ascending id order.
    """
    groups: Dict[int, List[PreferenceVariable]] = {}
    for aid in sorted(variables):
        groups.setdefault(metric[aid], []).append(variables[aid])
    return [groups[score] for score in sorted(groups, reverse=True)]


def select_variable(ranking: Ranking) -> Optional[PreferenceVariable]:
    """Most constrained uninstantiated variable, or None when all are set.

    Takes the first group of :func:`rank_variables` that still has an
    uninstantiated variable.  Inside it, ties go to the variable whose
    cheapest live value has the smaller penalty, then to the smaller
    identifier.
    """
    for group in ranking:
        best_var = None
        best = 0
        for var in group:
            if var.assignment is None:
                pen = var.min_penalty()[1]
                if best_var is None or pen < best:
                    if pen == 0:
                        return var  # nothing is cheaper, and ids ascend
                    best_var, best = var, pen
        if best_var is not None:
            return best_var
    return None


def order_values(var: PreferenceVariable) -> List[Tuple[int, int]]:
    """Live ``(penalty, slot)`` pairs, cheapest first, ties by earlier slot."""
    return sorted([(pen, slot) for slot, pen in enumerate(var._penalty)
                   if pen is not None])


def layout_bound(layouts: Sequence[ResourceLayout],
                 occupancy: Sequence[Sequence[int]]) -> Union[int, Fraction]:
    """The resource bound of the live state, read through one layout per resource.

    See :func:`resource_bound`.  Each charged share, rounded down, goes into
    a carry that raises its variable's floor for the resources after it;
    the carry is consulted only once some resource has charged.
    """
    bound = 0
    carry: Dict[int, int] = {}
    for layout, occ in zip(layouts, occupancy):
        quota = [d - o for d, o in zip(layout.declared, occ)]
        if max(quota, default=0) <= 0:
            continue
        total, selected = contribution_with_quota(layout, quota, carry)
        scale = layout.scale
        bound += Fraction(total, scale)
        for aid, share in selected.items():
            if share >= scale:
                carry[aid] = carry.get(aid, 0) + share // scale
    return bound


def resource_bound(instance: Instance,
                   variables: Mapping[int, PreferenceVariable],
                   mode: BoundMode,
                   occupancy: Sequence[Sequence[int]]) -> Union[int, Fraction]:
    """Resource lower bound on the penalty the unassigned variables add.

    ``occupancy`` holds, per resource of ``instance`` in declaration order,
    how many assigned members occupy each slot of its window.  A slot's
    quota is what the assigned members leave of the declared occupancy
    (``cap_min`` in MIN mode, ``cap_exp`` in EXP mode), and the unassigned
    members must cover it.  Resources are charged in declaration order over
    one table of each unassigned variable's cheapest live penalty; each
    charged share, rounded down, raises its variable's entry so that the
    next resource does not count it again.  The result excludes that
    cheapest-penalty sum itself, and is 0 in NONE mode.  Raises
    :class:`ResourceInfeasible` when a quota cannot be covered.

    This builds one :class:`softsched.cumulative.ResourceLayout` per
    resource and evaluates them once; :func:`solve` builds them once and
    calls :func:`layout_bound` at every node.
    """
    if mode is BoundMode.NONE:
        return 0
    return layout_bound([ResourceLayout(r, instance, variables, mode)
                         for r in instance.resources], occupancy)


def solve(instance: Instance, config: SearchConfig = SearchConfig(),
          sink: Optional[ProgressSink] = None,
          cancel: Optional[CancelCheck] = None, *,
          _fuzzy: bool = False) -> SolveResult:
    """Run the branch and bound to exhaustion or to a limit.

    Emits each improving incumbent to ``sink`` as it is found; within a
    round the emitted costs are strictly decreasing, but a later round of a
    fuzzy restart (``_fuzzy``, see :func:`solve_min_worst_violation`) may
    emit a dearer first incumbent.  With identical instance and config the
    node sequence and incumbents are reproducible exactly; only the elapsed
    times vary.  Children that cannot beat the incumbent are cut unassigned
    (see the module docstring) but still counted, so ``nodes`` and each
    incumbent's ``nodes`` are those of visiting every child.  A child that
    would take an activity past ``config.violation_limit`` fails when it is
    assigned, so a leaf is never checked against the limit.
    """
    started = time.monotonic()
    deadline = None if config.time_limit is None else started + config.time_limit

    variables = {a.id: PreferenceVariable(a.id, list(a.domain))
                 for a in instance.activities}
    trail = Trail()
    trail.base_bound = sum(var.min_penalty()[1] for var in variables.values())
    constraints = post_network(instance, variables, limit=config.violation_limit)
    resources = [Occupancy(r) for r in instance.resources]
    holds: Dict[int, List[Tuple[Occupancy, int]]] = {aid: [] for aid in variables}
    for occ in resources:
        for aid in occ.resource.members:
            holds[aid].append((occ, instance.by_id[aid].duration))
    ranking = rank_variables(
        variables, {aid: len(arcs) for aid, arcs in instance.incident.items()})

    best: Optional[Incumbent] = None
    last: Optional[Incumbent] = None  # the best of the last fuzzy round
    nodes = 0
    emitted = 0
    node_limit = config.node_limit
    layouts = (None if config.lb_mode is BoundMode.NONE
               else [ResourceLayout(r, instance, variables, config.lb_mode)
                     for r in instance.resources])
    occupancy = [occ.counts for occ in resources]  # updated in place

    # One choice point per open node: (variable, untried (penalty, slot)
    # pairs with the next one last, node cost, trail mark its children
    # rewind to, floor that a child's penalty adds to for the cut).
    stack: List[tuple] = []
    cost = 0
    exhausted = True
    while True:
        # Visit the current node: prune it, record it as a leaf, or open its
        # choice point.
        rewind = True
        bound = trail.base_bound
        if layouts is not None:
            try:
                bound += layout_bound(layouts, occupancy)
            except ResourceInfeasible:
                bound = None  # no completion covers the quotas
        if bound is not None and (best is None or cost + bound < best.cost):
            var = select_variable(ranking)
            if var is not None:
                values = order_values(var)
                floor = cost + trail.base_bound - values[0][0]
                values.reverse()
                stack.append((var, values, cost, trail.mark(), floor))
                rewind = False
            elif all(occ.deficit_slot() is None for occ in resources):
                assignment = {aid: v.assignment for aid, v in variables.items()}
                best = Incumbent(assignment, cost, time.monotonic() - started, nodes)
                emitted += 1
                if sink is not None:
                    sink(best)

        # Step to the next child of the deepest open choice point.  While
        # ``rewind`` is set, a child of the top one has just finished.
        # The trail is at the top one's mark when its next child is tested.
        while stack:
            var, values, node_cost, mark, floor = stack[-1]
            if rewind:
                trail.undo_to(mark)
            if not values:
                stack.pop()
                rewind = True
                continue
            if (deadline is not None and time.monotonic() >= deadline
                    or node_limit is not None and nodes >= node_limit
                    or cancel is not None and cancel()):
                exhausted = False
                break
            pen, slot = values[-1]
            if best is not None and floor + pen >= best.cost:
                # Assigning the child fails it or only raises the other
                # variables' cheapest penalties, so its visit would prune
                # it; the later siblings cost no less.  Count them all.
                cut = len(values)
                if node_limit is not None and cut > node_limit - nodes:
                    nodes = node_limit
                    exhausted = False
                    break
                nodes += cut
                stack.pop()
                rewind = True
                continue
            values.pop()
            nodes += 1
            try:
                var.assign(slot, trail)
                for occ, duration in holds[var.id]:
                    occ.place(slot, duration, trail)
            except SchedulingError:
                rewind = True
                continue
            cost = node_cost + pen
            break
        if stack and exhausted:
            continue
        if not _fuzzy or not exhausted or best is None:
            break
        # The fuzzy round is exhausted, which left the trail empty and the
        # store as it was before the round: cap the next one below the
        # worst violation of this one's best and visit the root again.
        limit = max(violation_profile(instance, best.assignment).values(),
                    default=0) - 1
        if limit < 0 or pigeonhole_clique(instance, limit) is not None:
            break  # nothing to improve, or the round would fail
        for constraint in constraints:
            constraint.limit = limit
        last, best, cost = best, None, 0

    # The status rule; see the module docstring.
    best = best or last
    if best is not None:
        status = Status.OPTIMAL if exhausted else Status.FEASIBLE
    else:
        status = Status.INFEASIBLE if exhausted else Status.UNKNOWN
    return SolveResult(status, best, nodes, time.monotonic() - started, emitted)


#: Most steps one :func:`pigeonhole_clique` call takes before it gives up.  A
#: step adds one member to the clique or tests one candidate against it.
CLIQUE_WORK_CAP = 20_000


def pigeonhole_clique(instance: Instance, limit: int) -> Optional[List[int]]:
    """Unit activities that no assignment keeps within a violation limit.

    Looks for unit-duration activities, every two of them a soft pair that
    weighs more than ``limit``, whose domains together offer fewer start
    slots than there are members.  Two members must then share a slot, and
    each of the two is violated past ``limit`` by their pair alone, so a
    solve capped at ``limit`` is infeasible.  Returns the members' ids in
    ascending order, or None.

    The search is depth first over candidates in ascending id order and
    stops at the first witness.  A branch is dropped once its members and
    remaining candidates together cannot outnumber the slots its members
    already offer, since adding members only widens that union.  After
    :data:`CLIQUE_WORK_CAP` steps the search gives up and returns None, so
    None proves nothing.
    """
    heavy: Dict[int, set] = {a.id: set() for a in instance.activities
                             if a.duration == 1}
    for p in instance.pairs:
        if p.weight > limit and p.a in heavy and p.b in heavy:
            heavy[p.a].add(p.b)
            heavy[p.b].add(p.a)
    slots = {aid: frozenset(slot for slot, _cost in instance.by_id[aid].domain)
             for aid, adjacent in heavy.items() if adjacent}
    work = 0
    # One frame per clique size: (members, their slot union, the candidates
    # adjacent to every member, the next one last).
    stack = [([], frozenset(), sorted(slots, reverse=True))]
    while stack:
        clique, union, candidates = stack[-1]
        if len(clique) + len(candidates) <= len(union):
            stack.pop()
            continue
        aid = candidates.pop()
        work += 1 + len(candidates)
        if work > CLIQUE_WORK_CAP:
            return None
        members = clique + [aid]
        covered = union | slots[aid]
        if len(members) > len(covered):
            return members
        adjacent = heavy[aid]
        stack.append((members, covered,
                      [other for other in candidates if other in adjacent]))
    return None


def solve_min_worst_violation(
    instance: Instance, config: SearchConfig = SearchConfig(),
    sink: Optional[ProgressSink] = None,
    cancel: Optional[CancelCheck] = None,
) -> SolveResult:
    """Search rounds toward the assignment whose worst-hit activity is as
    lightly violated as possible.

    One :func:`solve` runs the rounds on one setup.  The first round runs
    ``config`` as given.  Each later round caps every activity's incident
    violation one below the worst in the previous round's best, so it
    keeps only assignments strictly better in the worst-case sense.  The
    chain ends when a round proves infeasible, when
    :func:`pigeonhole_clique` shows that the next round would, or when the
    incumbent reaches zero violation, so no cap is left to try; the last
    incumbent then maximizes the worst-case satisfaction, and the result is
    flagged optimal.  Time and node budgets span the whole chain, and so
    does every incumbent's ``nodes`` and ``elapsed``: its node count
    includes the earlier rounds' nodes, and its time runs from the start of
    this call.
    """
    return solve(instance, config, sink, cancel, _fuzzy=True)
