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
the resource bound :func:`resource_bound`, recomputed at every node from a
layout of each resource's static part (:func:`bound_layout`) built once per
solve, so a node reads only live state (:func:`layout_bound`).  Hard
capacities are counted on one :class:`softsched.cumulative.Occupancy` per
resource: each assignment places the variable on the resources that hold
it, an overflow fails the child, and a leaf must leave no slot under
``cap_min``; the bound reads the same counts.  A violation limit is kept by
propagation alone: the soft constraints charge both ends of every pair and
fail the child whose assignment would take any activity past the limit, so
a leaf is not checked against it.  The cheapest-value sum is not
recomputed: every variable keeps its cheapest live value current through
its trailed mutations, and the trail keeps the sum of those over the
unassigned variables (``Trail.base_bound``), so the base bound costs O(1)
per node.

A child that cannot beat the incumbent is cut before it is assigned.  When
a choice point opens, its floor is the node cost plus the cheapest-value
sum over the other unassigned variables; assigning a child and propagating
it can only raise those, or fail the child, and the resource bound is never
negative.  So once the floor plus a child's penalty reaches the incumbent's
cost, that child would be pruned at its visit, and so would every later
sibling, since values come cheapest first.  The whole group goes into the
node count at once (up to the node limit) and is dropped without touching
the trail, so node counts and incumbents stay those of visiting each child.

The fuzzy restart (:func:`solve_min_worst_violation`) solves a chain of
rounds, each capping every activity's violation one below the worst of the
last incumbent; the final round must prove that nothing fits its cap.
Before each round after the first, :func:`pigeonhole_clique` looks for
unit activities that pairwise weigh more than the cap and together have
fewer start slots than members: two of them must share a slot, so the
round would fail, and the loop ends proven without running it.  The check
gives up at a fixed work cap, and the round then runs as before.
:func:`solve` never runs it.

Both drivers share one status rule: OPTIMAL or FEASIBLE with an incumbent,
INFEASIBLE or UNKNOWN without, the first of each when the search is proven:
:func:`solve` when it exhausts its tree, the fuzzy restart when its last
round was proven and no budget ran out after it.

There is one implementation of the resource bound:
:func:`resource_bound` builds the same layout and evaluates it once,
``softsched.oracle.verify_bound`` checks it at the root, and its
per-resource step comes from :mod:`softsched.cumulative`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
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


def _result(best: Optional[Incumbent], proven: bool, nodes: int,
            started: float, emitted: int) -> SolveResult:
    """The status rule of both drivers; see the module docstring."""
    if best is not None:
        status = Status.OPTIMAL if proven else Status.FEASIBLE
    else:
        status = Status.INFEASIBLE if proven else Status.UNKNOWN
    return SolveResult(status, best, nodes, time.monotonic() - started, emitted)


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


BoundLayout = List[Tuple[Sequence[int], ResourceLayout]]


def bound_layout(instance: Instance,
                 variables: Mapping[int, PreferenceVariable],
                 mode: BoundMode) -> BoundLayout:
    """The static part of the resource bound, built once per solve.

    Per resource of ``instance`` in declaration order: the declared
    occupancy the mode charges (``cap_min`` in MIN mode, ``cap_exp`` in EXP
    mode) and the :class:`softsched.cumulative.ResourceLayout` of its
    members over ``variables``.
    """
    return [(r.cap_min if mode is BoundMode.MIN else r.cap_exp,
             ResourceLayout(r, instance, variables))
            for r in instance.resources]


def layout_bound(layout: BoundLayout,
                 occupancy: Sequence[Sequence[int]]) -> Union[int, Fraction]:
    """The resource bound of the live state, read through a :func:`bound_layout`.

    See :func:`resource_bound`.  Each charged share, rounded down, goes into
    a carry that raises its variable's floor for the resources after it;
    the carry is consulted only once some resource has charged.
    """
    bound = 0
    carry: Dict[int, int] = {}
    for (declared, members), occ in zip(layout, occupancy):
        quota = [d - o for d, o in zip(declared, occ)]
        if max(quota, default=0) <= 0:
            continue
        total, selected = contribution_with_quota(members, quota, carry)
        scale = members.scale
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

    This builds the :func:`bound_layout` and evaluates it once;
    :func:`solve` builds the layout once and calls :func:`layout_bound` at
    every node.
    """
    if mode is BoundMode.NONE:
        return 0
    return layout_bound(bound_layout(instance, variables, mode), occupancy)


def solve(instance: Instance, config: SearchConfig = SearchConfig(),
          sink: Optional[ProgressSink] = None,
          cancel: Optional[CancelCheck] = None) -> SolveResult:
    """Run the branch and bound to exhaustion or to a limit.

    Emits each improving incumbent to ``sink`` as it is found; the emitted
    costs are strictly decreasing.  With identical instance and config the
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
    post_network(instance, variables, limit=config.violation_limit)
    resources = [Occupancy(r) for r in instance.resources]
    holds: Dict[int, List[Occupancy]] = {aid: [] for aid in variables}
    for occ in resources:
        for aid in occ.resource.members:
            holds[aid].append(occ)
    ranking = rank_variables(
        variables, {aid: len(arcs) for aid, arcs in instance.incident.items()})
    durations = {a.id: a.duration for a in instance.activities}

    best: Optional[Incumbent] = None
    nodes = 0
    emitted = 0
    node_limit = config.node_limit
    layout = (None if config.lb_mode is BoundMode.NONE
              else bound_layout(instance, variables, config.lb_mode))
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
        if layout is not None:
            try:
                bound += layout_bound(layout, occupancy)
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
                for occ in holds[var.id]:
                    occ.place(slot, durations[var.id], trail)
            except SchedulingError:
                rewind = True
                continue
            cost = node_cost + pen
            break
        if not stack or not exhausted:
            break

    return _result(best, exhausted, nodes, started, emitted)


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
    """Drive repeated solves toward the assignment whose worst-hit activity
    is as lightly violated as possible.

    The first round runs ``config`` as given.  Each later round caps every
    activity's incident violation one below the worst in the previous
    round's best, so it keeps only assignments strictly better in the
    worst-case sense.  The loop ends when a round proves infeasible, when
    :func:`pigeonhole_clique` shows that the next round would, or when the
    incumbent reaches zero violation, so no cap is left to try; the last
    incumbent then maximizes the worst-case satisfaction, and the result is
    flagged optimal.  Time and node budgets span the whole sequence of
    rounds, and so does every incumbent's ``nodes`` and ``elapsed``: its
    node count includes the earlier rounds' nodes, and its time runs from
    the start of this call.
    """
    started = time.monotonic()
    deadline = None if config.time_limit is None else started + config.time_limit
    total_nodes = 0
    total_emitted = 0
    best: Optional[Incumbent] = None
    cfg = config

    def relay(incumbent: Incumbent) -> None:
        nonlocal best
        best = replace(incumbent, nodes=total_nodes + incumbent.nodes,
                       elapsed=time.monotonic() - started)
        if sink is not None:
            sink(best)

    while True:
        proven = False
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            cfg = replace(cfg, time_limit=remaining)
        if config.node_limit is not None:
            remaining_nodes = config.node_limit - total_nodes
            if remaining_nodes <= 0:
                break
            cfg = replace(cfg, node_limit=remaining_nodes)
        result = solve(instance, cfg, relay, cancel)
        total_nodes += result.nodes
        total_emitted += result.incumbents
        proven = result.status in (Status.OPTIMAL, Status.INFEASIBLE)
        if result.best is None or not proven:
            break  # the cap cannot be met, or the shared budget is spent
        limit = (max(violation_profile(instance, best.assignment).values())
                 if instance.pairs else 0) - 1
        if limit < 0 or pigeonhole_clique(instance, limit) is not None:
            break  # nothing to improve, or the round would fail
        cfg = replace(cfg, violation_limit=limit)

    return _result(best, proven, total_nodes, started, total_emitted)
