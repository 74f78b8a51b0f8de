"""Capacity checks and the expected-occupancy lower bound."""

import random
from fractions import Fraction

import pytest

from softsched import Activity, BoundMode, Instance, Resource
from softsched.core import PreferenceVariable, Trail
from softsched.cumulative import (
    NOT_RUNNABLE, ResourceInfeasible, check_atleast, check_cumulative_max,
    contribution_with_quota, slot_excess,
)
from softsched.search import resource_bound


def make_instance(horizon, acts, resources):
    return Instance(horizon, tuple(acts), (), tuple(resources))


def flat(cap, width):
    return (cap,) * width


def test_occupancy_checks():
    acts = [Activity(1, 2, 5, ((0, 0), (1, 0))), Activity(2, 1, 5, ((0, 0), (1, 0), (2, 0)))]
    res = Resource("room", (1, 2), 0, 2, flat(0, 3), flat(1, 3), flat(0, 3))
    inst = make_instance(3, acts, [res])
    assert check_cumulative_max(res, inst, {1: 0, 2: 2}) is None
    assert check_cumulative_max(res, inst, {1: 0, 2: 1}) == 1
    # partial assignments only count what is placed
    assert check_cumulative_max(res, inst, {1: 0}) is None

    need = Resource("room", (1, 2), 0, 2, (1, 1, 0), flat(2, 3), (1, 1, 0))
    inst2 = make_instance(3, acts, [need])
    assert check_atleast(need, inst2, {1: 0, 2: 2}) is None
    assert check_atleast(need, inst2, {1: 1, 2: 2}) == 0
    with pytest.raises(KeyError):
        check_atleast(need, inst2, {1: 0})


def test_repeated_member_counts_per_copy():
    act = Activity(1, 1, 5, ((0, 0),))
    res = Resource("lab", (1, 1), 0, 0, (0,), (1,), (0,))
    inst = make_instance(1, [act], [res])
    assert check_cumulative_max(res, inst, {1: 0}) == 0


def test_slot_excess_scans_covering_starts():
    v = PreferenceVariable(0, [(0, 5), (1, 0), (2, 3)])
    assert slot_excess(0, 0, v, 2, 0) == 5
    assert slot_excess(1, 0, v, 2, 0) == 0
    assert slot_excess(2, 0, v, 2, 0) == 0
    assert slot_excess(0, 0, v, 2, 2) == 3
    # floors above every covering penalty clamp to zero, never negative
    assert slot_excess(0, 0, v, 2, 9) == 0


def test_slot_excess_window_clamp_and_not_runnable():
    v = PreferenceVariable(0, [(0, 5), (2, 3)])
    # start 0 covers slot 1, but the window begins at 1 so it is invisible
    assert slot_excess(1, 1, v, 2, 0) is NOT_RUNNABLE
    assert slot_excess(1, 0, v, 2, 0) == 5
    far = PreferenceVariable(0, [(5, 0)])
    assert slot_excess(0, 0, far, 1, 0) is NOT_RUNNABLE
    assert "NOT_RUNNABLE" in repr(NOT_RUNNABLE)


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
            excess = slot_excess(t, resource.t_min, variables[aid], dur, table[aid])
            if excess is not NOT_RUNNABLE:
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
