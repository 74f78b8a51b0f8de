"""Occupancy counting and the resource lower bound."""

import random
from fractions import Fraction

import pytest

from softsched import Activity, BoundMode, Instance, Resource, verify_bound
from softsched.core import PreferenceVariable, Trail
from softsched.cumulative import (
    CapacityOverflow, Occupancy, ResourceInfeasible, contribution_with_quota,
    slot_excess,
)
from softsched.search import resource_bound


def make_instance(horizon, acts, resources):
    return Instance(horizon, tuple(acts), (), tuple(resources))


def flat(cap, width):
    return (cap,) * width


def test_occupancy_checks():
    res = Resource("room", (1, 2), 0, 2, flat(0, 3), flat(1, 3), flat(0, 3))
    trail = Trail()
    occ = Occupancy(res)
    occ.place(0, 2, trail)
    assert occ.counts == [1, 1, 0]
    occ.place(2, 1, trail)
    assert occ.counts == [1, 1, 1]
    occ = Occupancy(res)
    occ.place(0, 2, trail)
    mark = trail.mark()
    with pytest.raises(CapacityOverflow) as exc:
        occ.place(1, 1, trail)
    assert exc.value.slot == 1 and exc.value.resource == "room"
    assert "resource 'room' exceeds cap_max at slot 1" in str(exc.value)
    # the overflowing bump is on the trail, so undoing it unplaces the member
    trail.undo_to(mark)
    assert occ.counts == [1, 1, 0]

    need = Resource("room", (1, 2), 0, 2, (1, 1, 0), flat(2, 3), (1, 1, 0))
    occ = Occupancy(need)
    # nothing placed yet, so every slot with a positive cap_min is short
    assert occ.deficit_slot() == 0
    occ.place(1, 2, trail)
    occ.place(2, 1, trail)
    assert occ.deficit_slot() == 0
    occ = Occupancy(need)
    occ.place(0, 2, trail)
    occ.place(2, 1, trail)
    assert occ.deficit_slot() is None


def test_occupancy_clips_to_the_window():
    res = Resource("late", (1,), 2, 3, (1, 1), (1, 1), (1, 1))
    trail = Trail()
    occ = Occupancy(res)
    occ.place(0, 2, trail)           # ends before the window
    assert occ.counts == [0, 0] and len(trail) == 0
    occ.place(1, 5, trail)           # starts before it and runs past its end
    assert occ.counts == [1, 1] and len(trail) == 2
    assert occ.deficit_slot() is None
    trail.undo_to(0)
    assert occ.counts == [0, 0] and occ.deficit_slot() == 2


def test_repeated_member_counts_per_copy():
    res = Resource("lab", (1, 1), 0, 0, (0,), (1,), (0,))
    occ = Occupancy(res)
    trail = Trail()
    with pytest.raises(CapacityOverflow) as exc:
        for _copy in res.members:
            occ.place(0, 1, trail)
    assert exc.value.slot == 0


def test_slot_excess_scans_covering_starts():
    v = PreferenceVariable(0, [(0, 5), (1, 0), (2, 3)])
    assert slot_excess(0, v, 2, 0) == 5
    assert slot_excess(1, v, 2, 0) == 0
    assert slot_excess(2, v, 2, 0) == 0
    assert slot_excess(0, v, 2, 2) == 3
    # floors above every covering penalty clamp to zero, never negative
    assert slot_excess(0, v, 2, 9) == 0


def test_slot_excess_window_clamp_and_not_runnable():
    v = PreferenceVariable(0, [(0, 5), (2, 3)])
    # start 0 covers slot 1, also for a resource whose window begins at 1
    assert slot_excess(1, v, 2, 0) == 5
    far = PreferenceVariable(0, [(5, 0)])
    assert slot_excess(0, far, 1, 0) is None


def quota_fixture():
    acts = [Activity(1, 1, 5, ((0, 0), (1, 0))), Activity(2, 1, 5, ((0, 4), (1, 0)))]
    res = Resource("room", (1, 2), 0, 1, (0, 0), (2, 2), (0, 0))
    inst = make_instance(2, acts, [res])
    variables = {a.id: PreferenceVariable(a.id, list(a.domain)) for a in acts}
    table = {1: 0, 2: 0}
    return inst, res, variables, table


def test_quota_picks_cheapest_shares():
    inst, res, variables, table = quota_fixture()
    total, selected = contribution_with_quota(res, inst, variables, table, [1, 0])
    assert total == 0 and selected == {}
    total, selected = contribution_with_quota(res, inst, variables, table, [2, 0])
    assert total == 4
    assert selected == {2: Fraction(4)}


def test_quota_beyond_runnable_is_infeasible():
    inst, res, variables, table = quota_fixture()
    with pytest.raises(ResourceInfeasible) as exc:
        contribution_with_quota(res, inst, variables, table, [3, 0])
    assert exc.value.slot == 0
    assert exc.value.needed == 3
    assert exc.value.runnable == 2
    assert "room" in str(exc.value)


def test_share_is_excess_over_duration():
    act = Activity(1, 2, 5, ((0, 6),))
    res = Resource("room", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    inst = make_instance(2, [act], [res])
    variables = {1: PreferenceVariable(1, [(0, 6)])}
    total, selected = contribution_with_quota(res, inst, variables, {1: 0}, [1, 1])
    # excess 6 spread over duration 2, charged at both covered slots
    assert total == 6
    assert selected == {1: Fraction(6)}
    half, sel_half = contribution_with_quota(res, inst, variables, {1: 0}, [1, 0])
    assert half == 3
    assert sel_half == {1: Fraction(3)}


def variables_of(inst):
    return {a.id: PreferenceVariable(a.id, list(a.domain)) for a in inst.activities}


def empty_occupancy(inst):
    return [[0] * (r.t_max - r.t_min + 1) for r in inst.resources]


def test_resource_bound_floors_the_share():
    # start 0 covers slot 0 at penalty 3; start 2 costs nothing but misses it
    act = Activity(1, 2, 5, ((0, 3), (2, 0)))
    res_a = Resource("a", (1,), 0, 0, (1,), (1,), (1,))
    res_b = Resource("b", (1,), 0, 0, (1,), (1,), (1,))
    inst = make_instance(4, [act], [res_a, res_b])
    bound = resource_bound(inst, variables_of(inst), BoundMode.MIN,
                           empty_occupancy(inst))
    # "a" charges 3/2 and raises the table by floor(3/2) = 1, so "b" charges
    # (3 - 1)/2; an unfloored table would give 3/2 + 3/4
    assert bound == Fraction(3, 2) + 1


def test_combined_bound_shares_the_table_between_resources():
    act = Activity(1, 1, 5, ((0, 0), (1, 5)))
    res_a = Resource("a", (1,), 1, 1, (1,), (1,), (1,))
    res_b = Resource("b", (1,), 1, 1, (1,), (1,), (1,))
    inst = make_instance(2, [act], [res_a, res_b])
    variables = variables_of(inst)
    occupancy = empty_occupancy(inst)
    assert resource_bound(inst, variables, BoundMode.NONE, occupancy) == 0
    # the second resource sees the raised floor: 5, not 10
    assert resource_bound(inst, variables, BoundMode.MIN, occupancy) == 5


def test_expected_quota_tightens_the_bound():
    acts = [Activity(1, 1, 5, ((0, 3), (1, 0))), Activity(2, 1, 5, ((0, 1), (1, 0)))]
    res = Resource("room", (1, 2), 0, 0, (0,), (2,), (1,))
    inst = make_instance(2, acts, [res])
    variables = variables_of(inst)
    occupancy = empty_occupancy(inst)
    assert resource_bound(inst, variables, BoundMode.MIN, occupancy) == 0
    assert resource_bound(inst, variables, BoundMode.EXP, occupancy) == 1


def late_window(domain):
    """One duration-2 activity that must occupy the one-slot window [1, 1]."""
    act = Activity(1, 2, 5, domain)
    res = Resource("late", (1,), 1, 1, (1,), (1,), (1,))
    return make_instance(3, [act], [res])


def test_bound_counts_a_start_before_the_window():
    # start 0 runs into slot 1 at penalty 0, so nothing need be charged
    inst = late_window(((0, 0), (1, 5)))
    report = verify_bound(inst)
    assert report.optimum == 0
    assert report.bounds[BoundMode.MIN] <= 0
    assert report.bounds[BoundMode.EXP] <= 0
    only_early = late_window(((0, 0),))
    assert resource_bound(only_early, variables_of(only_early), BoundMode.MIN,
                          empty_occupancy(only_early)) == 0


def test_resource_bound_charges_only_what_assigned_members_leave():
    acts = [Activity(i, 1, 5, ((0, 2 * i), (1, 0))) for i in (1, 2, 3)]
    res = Resource("room", (1, 2, 3), 0, 0, (2,), (3,), (2,))
    inst = make_instance(2, acts, [res])
    variables = variables_of(inst)
    assert resource_bound(inst, variables, BoundMode.MIN, [[0]]) == 2 + 4
    variables[1].assign(0, Trail())
    # member 1 fills one unit of the quota and is no longer charged
    assert resource_bound(inst, variables, BoundMode.MIN, [[1]]) == 4
    variables[2].assign(0, Trail())
    assert resource_bound(inst, variables, BoundMode.MIN, [[2]]) == 0
    with pytest.raises(ResourceInfeasible):
        resource_bound(inst, variables, BoundMode.MIN, [[0]])


def fraction_contribution(resource, instance, variables, table, quota):
    """Reference ranking in exact fractions, ties by activity id."""
    total = Fraction(0)
    selected = {}
    for offset, need in enumerate(quota):
        if need <= 0:
            continue
        t = resource.t_min + offset
        ratios = []
        for aid in resource.members:
            dur = instance.activity(aid).duration
            excess = slot_excess(t, variables[aid], dur, table[aid])
            if excess is not None:
                ratios.append((Fraction(excess, dur), aid))
        if len(ratios) < need:
            raise ResourceInfeasible(resource.name, t, need, len(ratios))
        ratios.sort()
        for ratio, aid in ratios[:need]:
            if ratio:
                total += ratio
                selected[aid] = selected.get(aid, Fraction(0)) + ratio
    return total, selected


def test_quota_on_mixed_durations_matches_the_fraction_reference():
    rng = random.Random(7)
    checked = infeasible = 0
    for _case in range(300):
        acts = []
        for aid in range(1, rng.randint(2, 7)):
            dur = rng.choice([1, 2, 3, 4, 6])
            starts = rng.sample(range(8), rng.randint(1, 4))
            acts.append(Activity(aid, dur, 5,
                                 tuple(sorted((s, rng.randint(0, 12)) for s in starts))))
        t_min = rng.randint(0, 3)
        t_max = t_min + rng.randint(0, 5)
        width = t_max - t_min + 1
        members = tuple(a.id for a in acts)
        res = Resource("room", members, t_min, t_max, flat(0, width),
                       flat(len(members), width), flat(0, width))
        inst = make_instance(14, acts, [res])
        variables = {a.id: PreferenceVariable(a.id, list(a.domain)) for a in acts}
        table = {a.id: rng.randint(0, 4) for a in acts}
        quota = [rng.randint(0, 3) for _ in range(width)]
        try:
            want = fraction_contribution(res, inst, variables, table, quota)
        except ResourceInfeasible as exc:
            with pytest.raises(ResourceInfeasible) as got:
                contribution_with_quota(res, inst, variables, table, quota)
            assert (got.value.slot, got.value.needed, got.value.runnable) == (
                exc.slot, exc.needed, exc.runnable)
            infeasible += 1
            continue
        total, selected = contribution_with_quota(res, inst, variables, table, quota)
        assert (total, selected) == want
        assert isinstance(total, Fraction)
        assert all(isinstance(share, Fraction) for share in selected.values())
        checked += 1
    assert checked >= 80 and infeasible >= 80


def test_quota_on_mutated_search_state_matches_the_fraction_reference():
    rng = random.Random(11)
    checked = infeasible = past_grid = early = 0
    for _case in range(300):
        acts = []
        for aid in range(1, rng.randint(2, 7)):
            dur = rng.choice([1, 1, 2, 3, 4])
            starts = rng.sample(range(8), rng.randint(2, 6))
            acts.append(Activity(aid, dur, 5,
                                 tuple(sorted((s, rng.randint(0, 12)) for s in starts))))
        t_min = rng.randint(1, 4)
        t_max = t_min + rng.randint(0, 8)
        width = t_max - t_min + 1
        members = tuple(a.id for a in acts)
        res = Resource("room", members, t_min, t_max, flat(0, width),
                       flat(len(members), width), flat(0, width))
        inst = make_instance(16, acts, [res])
        variables = {a.id: PreferenceVariable(a.id, list(a.domain)) for a in acts}
        # holes in the live bits, raised penalties and assigned members, as
        # search leaves them; the last live start is never removed
        trail = Trail()
        for _step in range(rng.randint(1, 8)):
            var = variables[rng.choice(members)]
            if var.assignment is not None:
                continue
            slot = rng.choice([s for s, _pen in var.items()])
            kind = rng.random()
            if kind < 0.4 and len(var) > 1:
                var.remove_value(slot, trail)
            elif kind < 0.8:
                var.add_penalty(slot, rng.randint(1, 6), trail)
            else:
                var.assign(slot, trail)
        past_grid += any(t_max >= len(variables[a.id]._live) for a in acts)
        early += any(a.duration > 1 and s < t_min <= s + a.duration - 1
                     for a in acts for s, _pen in variables[a.id].items())
        table = {a.id: rng.randint(0, 4) for a in acts}
        quota = [rng.randint(0, 3) for _ in range(width)]
        try:
            want = fraction_contribution(res, inst, variables, table, quota)
        except ResourceInfeasible as exc:
            with pytest.raises(ResourceInfeasible) as got:
                contribution_with_quota(res, inst, variables, table, quota)
            assert (got.value.resource, got.value.slot, got.value.needed,
                    got.value.runnable) == (exc.resource, exc.slot, exc.needed,
                                            exc.runnable)
            infeasible += 1
            continue
        assert contribution_with_quota(res, inst, variables, table, quota) == want
        checked += 1
    assert checked >= 80 and infeasible >= 150
    assert past_grid >= 150 and early >= 150
