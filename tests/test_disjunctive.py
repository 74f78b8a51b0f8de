"""Soft non-overlap propagation and the assignment evaluators."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import penalty, violation_share
from softsched import Activity, Instance, SoftPair
from softsched.core import DomainWipeout, PreferenceVariable, Trail
from softsched.disjunctive import (
    SoftDisjunctive, overlaps, post_network, violation_profile,
    worst_case_satisfaction,
)


def unit_instance(n, pairs, horizon=3):
    """n unit-duration activities with full zero-cost domains."""
    dom = tuple((t, 0) for t in range(horizon))
    acts = tuple(Activity(i, 1, 10, dom) for i in range(1, n + 1))
    sps = tuple(SoftPair(a, b, w) for a, b, w in pairs)
    return Instance(horizon, acts, sps, ())


def test_overlap_predicate():
    assert overlaps(0, 2, 1, 2)
    assert not overlaps(0, 2, 2, 2)
    assert overlaps(3, 1, 3, 1)
    assert overlaps(1, 3, 0, 2)
    assert not overlaps(5, 1, 0, 5)


def test_propagation_charges_overlapping_values():
    vi = PreferenceVariable(1, [(2, 0)])
    vj = PreferenceVariable(2, [(t, 0) for t in range(5)])
    trail = Trail()
    SoftDisjunctive(vi, 2, [(vj, 1, 5)])
    SoftDisjunctive(vj, 1, [(vi, 2, 5)])
    vi.assign(2, trail)
    # interval [2, 4) clashes with the neighbor's starts 2 and 3 only
    assert dict(vj.items()) == {0: 0, 1: 0, 2: 5, 3: 5, 4: 0}
    assert violation_share(vj, 2) == 5


def test_threshold_removes_overcharged_values():
    vi = PreferenceVariable(1, [(2, 0)])
    vj = PreferenceVariable(2, [(t, 0) for t in range(5)])
    trail = Trail()
    SoftDisjunctive(vi, 2, [(vj, 1, 5)], limit=4)
    vi.assign(2, trail)
    assert [slot for slot, _pen in vj.items()] == [0, 1, 4]


def test_assigned_neighbor_is_not_recharged():
    """Each pair is charged exactly once no matter who fires second."""
    vi = PreferenceVariable(1, [(0, 0), (1, 0)])
    vj = PreferenceVariable(2, [(0, 0), (1, 0)])
    SoftDisjunctive(vi, 1, [(vj, 1, 3)])
    SoftDisjunctive(vj, 1, [(vi, 1, 3)])
    trail = Trail()
    vi.assign(0, trail)
    vj.assign(0, trail)
    assert penalty(vi, 0) == 0
    assert penalty(vj, 0) == 3


def test_posting_rejects_bad_arcs():
    v1 = PreferenceVariable(1, [(0, 0)])
    v2 = PreferenceVariable(2, [(0, 0)])
    with pytest.raises(ValueError):
        SoftDisjunctive(v1, 1, [(v1, 1, 2)])
    with pytest.raises(ValueError):
        SoftDisjunctive(v1, 1, [(v2, 1, 2), (v2, 1, 1)])
    with pytest.raises(ValueError):
        SoftDisjunctive(v1, 1, [(v2, 1, 0)])
    assert v1.constraint is None
    first = SoftDisjunctive(v1, 1, [(v2, 1, 2)])
    with pytest.raises(ValueError):
        SoftDisjunctive(v1, 1, [(v2, 1, 3)])  # a second constraint on v1
    assert v1.constraint is first


def test_evaluators_on_three_way_clash():
    inst = unit_instance(3, [(1, 2, 1), (1, 3, 2), (2, 3, 4)])
    together = {1: 0, 2: 0, 3: 0}
    assert sum(violation_profile(inst, together).values()) // 2 == 7
    assert violation_profile(inst, together) == {1: 3, 2: 5, 3: 6}
    apart = {1: 0, 2: 1, 3: 2}
    assert sum(violation_profile(inst, apart).values()) // 2 == 0
    assert violation_profile(inst, apart) == {1: 0, 2: 0, 3: 0}


def test_worst_case_satisfaction_unit_weights():
    inst = unit_instance(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    # m = 3, n = 3; the worst activity carries u = 2 of the 6 requirements
    assert worst_case_satisfaction(inst, {1: 0, 2: 0, 3: 0}) == Fraction(2, 3)
    assert worst_case_satisfaction(inst, {1: 0, 2: 1, 3: 2}) == 1


def test_worst_case_satisfaction_needs_a_network():
    lonely = unit_instance(1, [])
    with pytest.raises(ValueError):
        worst_case_satisfaction(lonely, {1: 0})
    unweighted = unit_instance(2, [])
    with pytest.raises(ValueError):
        worst_case_satisfaction(unweighted, {1: 0, 2: 0})


@st.composite
def charged_networks(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    horizon = draw(st.integers(min_value=2, max_value=4))
    durs = [draw(st.integers(min_value=1, max_value=min(2, horizon)))
            for _ in range(n)]
    acts = []
    for i in range(n):
        dom = tuple((t, draw(st.integers(min_value=0, max_value=3)))
                    for t in range(horizon - durs[i] + 1))
        acts.append(Activity(i + 1, durs[i], 10, dom))
    pairs = []
    for a, b in combinations(range(1, n + 1), 2):
        if draw(st.booleans()):
            pairs.append(SoftPair(a, b, draw(st.integers(min_value=1, max_value=4))))
    order = draw(st.permutations(range(1, n + 1)))
    picks = [draw(st.integers(min_value=0, max_value=len(acts[i].domain) - 1))
             for i in range(n)]
    return Instance(horizon, tuple(acts), tuple(pairs), ()), list(order), picks


@given(charged_networks())
@settings(max_examples=50)
def test_propagation_sum_identity(data):
    """Assigned-slot penalties always add up to initial costs plus the
    weighted violation, whatever the instantiation order."""
    inst, order, picks = data
    variables = {a.id: PreferenceVariable(a.id, list(a.domain)) for a in inst.activities}
    post_network(inst, variables)
    trail = Trail()
    assignment = {}
    for aid in order:
        act = inst.activity(aid)
        slot = act.domain[picks[aid - 1]][0]
        variables[aid].assign(slot, trail)
        assignment[aid] = slot

    total = sum(penalty(variables[aid], assignment[aid]) for aid in assignment)
    initial = sum(inst.by_id[aid].domain[picks[aid - 1]][1] for aid in assignment)
    assert total == initial + sum(violation_profile(inst, assignment).values()) // 2


def full_scan_propagate(constraint, trail):
    """Reference propagation: test every live neighbor slot with ``overlaps``.

    This is the loop the overlap window replaced, working through the
    single-slot entry points: a slot the charge would push past the limit is
    removed, any other is charged.  The fused window loop must leave exactly
    the same store state and trail records, in exactly the same order.
    """
    start = constraint.var.assignment
    d = constraint.duration
    limit = constraint.limit
    for other, d_other, weight in constraint.arcs:
        if other.assignment is not None:
            continue
        for slot, _pen in list(other.items()):
            if overlaps(start, d, slot, d_other):
                if limit is not None and violation_share(other, slot) + weight > limit:
                    other.remove_value(slot, trail)
                else:
                    other.add_penalty(slot, weight, trail)


def charge_then_remove_propagate(constraint, trail):
    """The earlier rule: charge every overlapping live slot, then remove the
    ones the charge pushed past the limit.  It leaves other raw penalties
    and twice the trail records, but the same visible state."""
    start = constraint.var.assignment
    d = constraint.duration
    limit = constraint.limit
    for other, d_other, weight in constraint.arcs:
        if other.assignment is not None:
            continue
        for slot, _pen in list(other.items()):
            if overlaps(start, d, slot, d_other):
                other.add_penalty(slot, weight, trail)
                if limit is not None and violation_share(other, slot) > limit:
                    other.remove_value(slot, trail)


def mirrored_networks(rng, limit, reference):
    """Two copies of one random network with durations 1-3: the first posts
    the library's propagation, the second ``reference``."""
    size = rng.randint(2, 6)
    durations = [rng.randint(1, 3) for _ in range(size)]
    domains = [[(s, rng.randint(0, 3))
                for s in sorted(rng.sample(range(9), rng.randint(1, 6)))]
               for _ in range(size)]
    weights = {(a, b): rng.randint(1, 3)
               for a in range(size) for b in range(a + 1, size) if rng.random() < 0.8}

    class Reference(SoftDisjunctive):
        __slots__ = ()

        def propagate(self, trail):
            reference(self, trail)

    copies = []
    for kind in (SoftDisjunctive, Reference):
        variables = [PreferenceVariable(vid, domains[vid]) for vid in range(size)]
        for var in variables:
            arcs = [(o, durations[o.id], weights[min(var.id, o.id), max(var.id, o.id)])
                    for o in variables
                    if (min(var.id, o.id), max(var.id, o.id)) in weights]
            kind(var, durations[var.id], arcs, limit)
        trail = Trail()
        trail.base_bound = sum(v.min_penalty()[1] for v in variables)
        copies.append((variables, trail))
    return copies


def store_state(variables, trail):
    """Penalties, live sets, cached minima, base bound and trail entries,
    with variables named by id so two copies compare equal."""
    def named(entry):
        return tuple(x.id if isinstance(x, PreferenceVariable) else x for x in entry)
    return ([(v._penalty, [s for s, _p in v.items()], v._min_slot, v._min_pen,
              v.assignment)
             for v in variables],
            trail.base_bound, [named(entry) for entry in trail._entries])


def visible_state(variables, trail):
    """What search can read: live slots with their penalties, cached minima,
    assignments and the base bound."""
    return ([(list(v.items()), v._min_slot, v._min_pen, v.assignment)
             for v in variables], trail.base_bound)


def mirrored_walks(reference, state):
    """Random assignments and undos on mirrored networks, with limits None,
    0, 1 and 2; ``state`` of both copies must agree after every step, and
    both must wipe out the same variable.  Returns (wipeouts, records
    written by propagation in the library's copy)."""
    wipeouts = charged = 0
    for seed in range(80):
        for limit in (None, 0, 1, 2):
            rng = random.Random(seed)
            copies = mirrored_networks(rng, limit, reference)
            marks = []
            for _step in range(12):
                variables = copies[0][0]
                free = [v.id for v in variables if v.assignment is None]
                if marks and (not free or rng.random() < 0.25):
                    k = rng.randrange(len(marks))
                    undo = marks[k]
                    del marks[k:]
                    for (_vars, trail), mark in zip(copies, undo):
                        trail.undo_to(mark)
                    assert state(*copies[0]) == state(*copies[1])
                    continue
                if not free:
                    break
                vid = rng.choice(free)
                slot = rng.choice([slot for slot, _pen in variables[vid].items()])
                outcomes, step_marks = [], []   # the copies' trails may differ in length
                for vars_, trail in copies:
                    step_marks.append(trail.mark())
                    try:
                        vars_[vid].assign(slot, trail)
                        outcomes.append(None)
                    except DomainWipeout as wiped:
                        outcomes.append(wiped.var_id)
                assert outcomes[0] == outcomes[1]
                assert state(*copies[0]) == state(*copies[1])
                charged += len(copies[0][1]) - step_marks[0] - 1
                if outcomes[0] is not None:
                    wipeouts += 1
                    for (_vars, trail), mark in zip(copies, step_marks):
                        trail.undo_to(mark)  # as search does after a wipeout
                    assert state(*copies[0]) == state(*copies[1])
                else:
                    marks.append(step_marks)
            for _vars, trail in copies:
                trail.undo_to(0)
            assert state(*copies[0]) == state(*copies[1])
    return wipeouts, charged


def test_window_propagation_matches_the_full_scan():
    """Random assignments, with and without a violation limit, leave both
    copies in the same raw state, trail records included, after every
    step, wipeouts included."""
    wipeouts, charged = mirrored_walks(full_scan_propagate, store_state)
    assert wipeouts > 0 and charged > 0


def test_removal_without_charge_matches_charge_then_remove():
    """Removing a slot instead of charging it past the limit leaves what
    search can see exactly as charging and then removing it did: live
    penalties, cached minima, base bound and the wiped-out variable."""
    wipeouts, charged = mirrored_walks(charge_then_remove_propagate, visible_state)
    assert wipeouts > 0 and charged > 0


def test_over_limit_starts_get_one_removal_record_each():
    """Each live overlapping start of the neighbor costs one slot record
    keeping its penalty, whether limit 0 removes it or no limit charges it."""
    for limit in (0, None):
        vi = PreferenceVariable(1, [(2, 0)])
        vj = PreferenceVariable(2, [(t, 1) for t in range(7)])
        trail = Trail()
        vj.remove_value(3, trail)
        SoftDisjunctive(vi, 3, [(vj, 2, 1)], limit=limit)
        mark = trail.mark()
        vi.assign(2, trail)
        # interval [2, 5) meets the neighbor's starts 1 to 4; 3 is dead
        records = [(tag, slot, pen) for tag, _var, slot, pen in trail._entries[mark + 1:]]
        assert records == [(Trail._SLOT, slot, 1) for slot in (1, 2, 4)]
        if limit == 0:
            assert dict(vj.items()) == {0: 1, 5: 1, 6: 1}
        else:
            assert dict(vj.items()) == {0: 1, 1: 2, 2: 2, 4: 2, 5: 1, 6: 1}
