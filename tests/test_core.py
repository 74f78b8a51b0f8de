"""Domain store: live slots, penalties, and exact trail restoration."""

import random
import tracemalloc

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import domain_size, penalty, violation_share
from softsched.core import DomainWipeout, PreferenceVariable, Trail
from softsched.disjunctive import SoftDisjunctive


def snapshot(var):
    return (dict(var.items()), var.assignment, domain_size(var))


def test_construction_and_queries():
    v = PreferenceVariable(9, [(3, 2), (0, 0), (7, 1)])
    assert v.id == 9
    assert domain_size(v) == 3
    assert [slot for slot, _pen in v.items()] == [0, 3, 7]
    assert list(v.items()) == [(0, 0), (3, 2), (7, 1)]
    assert v.contains(3) and not v.contains(4)
    assert not v.contains(-1) and not v.contains(99)
    assert penalty(v, 7) == 1
    assert v.assignment is None


def test_grid_storage_per_slot_is_as_documented():
    """A 200,000-slot variable, built and then assigned, holds at most the
    24 bytes per slot that the ``MAX_GRID_SLOTS`` comment and the README
    state, up to a small fixed overhead."""
    slots = 200_000
    pairs = [(slot, slot % 5) for slot in range(slots)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        v = PreferenceVariable(0, pairs)
        trail = Trail()  # keeps the replaced list, as search does
        v.assign(slots // 2, trail)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert v.assignment == slots // 2 and len(trail) == 1
    assert held <= 24 * slots + 4096


def test_bad_construction():
    with pytest.raises(ValueError):
        PreferenceVariable(0, [])
    with pytest.raises(ValueError):
        PreferenceVariable(0, [(0, 0), (0, 3)])
    with pytest.raises(ValueError):
        PreferenceVariable(0, [(-1, 0)])
    with pytest.raises(ValueError):
        PreferenceVariable(0, [(2, -5)])


def test_penalty_of_dead_slot_raises():
    v = PreferenceVariable(0, [(0, 0), (1, 0)])
    trail = Trail()
    v.remove_value(1, trail)
    assert not v.contains(1) and list(v.items()) == [(0, 0)]
    with pytest.raises(KeyError):
        penalty(v, 1)


def test_min_penalty_tie_prefers_smaller_slot():
    v = PreferenceVariable(0, [(5, 1), (2, 1), (8, 0), (9, 0)])
    assert v.min_penalty() == (8, 0)
    trail = Trail()
    v.remove_value(8, trail)
    v.remove_value(9, trail)
    assert v.min_penalty() == (2, 1)


def test_add_penalty_accumulates_and_tracks_share():
    v = PreferenceVariable(0, [(0, 2), (1, 0)])
    trail = Trail()
    v.add_penalty(0, 3, trail)
    v.add_penalty(0, 4, trail)
    assert penalty(v, 0) == 9
    assert penalty(v, 0) - violation_share(v, 0) == 2
    assert violation_share(v, 0) == 7
    assert violation_share(v, 1) == 0


def test_add_penalty_edge_cases():
    v = PreferenceVariable(0, [(0, 0), (1, 0)])
    trail = Trail()
    with pytest.raises(ValueError):
        v.add_penalty(0, -1, trail)
    # zero delta and dead-slot deltas leave no trail record
    v.add_penalty(0, 0, trail)
    assert len(trail) == 0
    v.remove_value(1, trail)
    before = len(trail)
    v.add_penalty(1, 5, trail)
    assert len(trail) == before
    assert not v.contains(1) and list(v.items()) == [(0, 0)]


def test_remove_to_wipeout():
    v = PreferenceVariable(4, [(0, 0), (1, 0)])
    trail = Trail()
    v.remove_value(0, trail)
    with pytest.raises(DomainWipeout) as exc:
        v.remove_value(1, trail)
    assert exc.value.var_id == 4
    # the wiping removal is still on the trail
    trail.undo_to(0)
    assert [slot for slot, _pen in v.items()] == [0, 1]
    # removing any slot but the cheapest never empties the domain
    w = PreferenceVariable(5, [(0, 2), (1, 0), (2, 1), (3, 0)])
    for slot in (3, 0, 2):
        w.remove_value(slot, trail)
        assert w.min_penalty() == (1, 0)
    with pytest.raises(DomainWipeout):
        w.remove_value(1, trail)


def test_assign_removes_rest_and_fires_its_constraint():
    v = PreferenceVariable(0, [(0, 1), (1, 0), (2, 3)])
    assert v.constraint is None
    calls = []

    class Recorder(SoftDisjunctive):
        __slots__ = ()

        def propagate(self, trail):
            calls.append((self.var.assignment, trail))

    constraint = Recorder(v, 1, [])
    assert v.constraint is constraint
    trail = Trail()
    v.assign(1, trail)
    assert v.assignment == 1
    assert [slot for slot, _pen in v.items()] == [1]
    assert calls == [(1, trail)]
    with pytest.raises(ValueError):
        v.assign(1, trail)
    assert len(calls) == 1


def test_assign_to_dead_slot_rejected():
    v = PreferenceVariable(0, [(0, 0), (1, 0)])
    trail = Trail()
    v.remove_value(0, trail)
    with pytest.raises(ValueError):
        v.assign(0, trail)


def test_undo_restores_assignment_and_penalties():
    v = PreferenceVariable(0, [(0, 1), (1, 0), (2, 3)])
    trail = Trail()
    mark = trail.mark()
    v.add_penalty(2, 6, trail)
    v.assign(2, trail)
    assert v.assignment == 2 and domain_size(v) == 1
    trail.undo_to(mark)
    assert snapshot(v) == ({0: 1, 1: 0, 2: 3}, None, 3)


def test_nested_marks_unwind_independently():
    v = PreferenceVariable(0, [(0, 0), (1, 0), (2, 0)])
    trail = Trail()
    outer = trail.mark()
    v.remove_value(0, trail)
    inner = trail.mark()
    v.add_penalty(1, 2, trail)
    v.remove_value(2, trail)
    trail.undo_to(inner)
    assert list(v.items()) == [(1, 0), (2, 0)]
    trail.undo_to(outer)
    assert list(v.items()) == [(0, 0), (1, 0), (2, 0)]


def test_occupancy_records_roll_back():
    counts = [0, 0, 0]
    trail = Trail()
    mark = trail.mark()
    for i in (0, 1, 1):
        counts[i] += 1
        trail.push_occupancy(counts, i)
    assert counts == [1, 2, 0]
    trail.undo_to(mark)
    assert counts == [0, 0, 0]


@st.composite
def op_sequences(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    pairs = [(s, draw(st.integers(min_value=0, max_value=4))) for s in range(size)]
    ops = draw(st.lists(st.tuples(st.sampled_from(["remove", "penalty", "assign"]),
                                  st.integers(min_value=0, max_value=size - 1),
                                  st.integers(min_value=0, max_value=3)),
                        min_size=0, max_size=10))
    return pairs, ops


@given(op_sequences())
@settings(max_examples=50)
def test_trail_round_trip(data):
    """Any mutation sequence is undone exactly, including mid-sequence marks."""
    pairs, ops = data
    v = PreferenceVariable(0, pairs)
    trail = Trail()
    base = snapshot(v)
    mark = trail.mark()
    mid = None
    mid_state = None
    for k, (kind, slot, delta) in enumerate(ops):
        if mid is None and k == len(ops) // 2:
            mid = trail.mark()
            mid_state = snapshot(v)
        try:
            if kind == "remove":
                v.remove_value(slot, trail)
            elif kind == "penalty":
                v.add_penalty(slot, delta, trail)
            elif v.assignment is None and v.contains(slot):
                v.assign(slot, trail)
        except (ValueError, DomainWipeout):
            pass
    if mid is not None:
        trail.undo_to(mid)
        assert snapshot(v) == mid_state
    trail.undo_to(mark)
    assert snapshot(v) == base
    assert len(trail) == 0


# -- the cached cheapest value and the trail's running base bound ----------


def scratch_min(var):
    """(slot, penalty) of the cheapest live value, by a full domain scan."""
    penalty, slot = min((p, s) for s, p in var.items())
    return slot, penalty


def scratch_sum(variables):
    """Cheapest penalties summed over unassigned, non-empty variables."""
    return sum(scratch_min(v)[1] for v in variables if v.assignment is None and domain_size(v))


def check_incremental_state(variables, trail):
    for v in variables:
        if domain_size(v):
            assert v.min_penalty() == scratch_min(v)
        else:
            with pytest.raises(ValueError):
                v.min_penalty()
    assert trail.base_bound == scratch_sum(variables)


def random_network(rng):
    """A few variables with soft non-overlap arcs between every pair, posted
    under a random violation limit so propagation can remove values."""
    size = rng.randint(2, 5)
    durations = [rng.randint(1, 3) for _ in range(size)]
    variables = []
    for vid in range(size):
        slots = rng.sample(range(7), rng.randint(1, 5))
        variables.append(PreferenceVariable(vid, [(s, rng.randint(0, 3)) for s in slots]))
    weights = {(a, b): rng.randint(1, 3)
               for a in range(size) for b in range(a + 1, size)}
    limit = rng.choice([None, 0, 1, 2])
    for v in variables:
        arcs = [(o, durations[o.id], weights[min(v.id, o.id), max(v.id, o.id)])
                for o in variables if o is not v]
        SoftDisjunctive(v, durations[v.id], arcs, limit)
    return variables


def run_random_steps(rng, variables, steps):
    """Random assign/propagate, penalty, removal and undo steps, checking the
    incremental state after each, and that a domain is empty exactly when the
    step raised DomainWipeout naming it; returns how many steps did."""
    trail = Trail()
    trail.base_bound = scratch_sum(variables)
    start = [snapshot(v) for v in variables]
    check_incremental_state(variables, trail)
    marks = []
    wipeouts = 0
    for _step in range(steps):
        kind = rng.choice(["assign", "assign", "penalty", "remove", "undo", "reset"])
        var = rng.choice(variables)
        mark = trail.mark()
        try:
            if kind == "assign":
                free = [v for v in variables if v.assignment is None and domain_size(v)]
                if free:
                    var = rng.choice(free)
                    marks.append(mark)
                    var.assign(rng.choice([slot for slot, _pen in var.items()]), trail)
            elif kind == "penalty":
                var.add_penalty(rng.randrange(8), rng.randint(0, 3), trail)
            elif kind == "remove" and domain_size(var):
                marks.append(mark)
                var.remove_value(rng.choice([slot for slot, _pen in var.items()]), trail)
            elif kind == "undo" and marks:
                k = rng.randrange(len(marks))
                trail.undo_to(marks[k])
                del marks[k:]
            elif kind == "reset":
                trail.undo_to(0)
                marks.clear()
                assert [snapshot(v) for v in variables] == start
        except DomainWipeout as exc:
            wipeouts += 1
            assert [v.id for v in variables if not domain_size(v)] == [exc.var_id]
            check_incremental_state(variables, trail)
            trail.undo_to(mark)  # as search does after a wipeout
        else:
            assert all(domain_size(v) for v in variables)
        check_incremental_state(variables, trail)
    trail.undo_to(0)
    check_incremental_state(variables, trail)
    assert [snapshot(v) for v in variables] == start
    return wipeouts


def test_cached_minimum_and_running_sum_track_every_step():
    """After every step of random sequences, including wipeouts under a
    violation limit and undo_to(0), the cached cheapest values match a
    domain scan and the trail's running sum matches a from-scratch sum."""
    wipeouts = 0
    for seed in range(60):
        rng = random.Random(seed)
        wipeouts += run_random_steps(rng, random_network(rng), 60)
    assert wipeouts > 0


def test_cached_minimum_follows_hits_on_the_cheapest_slot():
    v = PreferenceVariable(0, [(0, 2), (3, 1), (5, 1)])
    trail = Trail()
    trail.base_bound = 1
    v.add_penalty(3, 4, trail)     # hits the cheapest: the tie at 5 takes over
    assert v.min_penalty() == (5, 1) and trail.base_bound == 1
    v.add_penalty(5, 2, trail)
    assert v.min_penalty() == (0, 2) and trail.base_bound == 2
    v.remove_value(0, trail)
    assert v.min_penalty() == (5, 3) and trail.base_bound == 3
    v.assign(5, trail)             # an assigned variable leaves the sum
    assert v.min_penalty() == (5, 3) and trail.base_bound == 0
    trail.undo_to(0)
    assert v.min_penalty() == (3, 1) and trail.base_bound == 1
