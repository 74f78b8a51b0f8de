"""Occupancy counting and the resource lower bound."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import domain_size
from softsched import (Activity, BoundMode, Instance, Resource, SoftPair,
                       verify_bound)
from softsched.core import PreferenceVariable, SchedulingError, Trail
from softsched.cumulative import (
    CapacityOverflow, Occupancy, ResourceInfeasible, ResourceLayout,
    contribution_with_quota, slot_excess,
)
from softsched.disjunctive import post_network
from softsched.search import layout_bound, resource_bound


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


def test_a_layout_holds_the_row_its_mode_charges():
    res = Resource("r", (1,), 0, 1, (0, 1), (1, 1), (1, 1))
    inst = make_instance(2, [Activity(1, 1, 1, ((0, 0), (1, 0)))], [res])
    variables = variables_of(inst)
    assert ResourceLayout(res, inst, variables, BoundMode.MIN).declared == (0, 1)
    assert ResourceLayout(res, inst, variables, BoundMode.EXP).declared == (1, 1)
    with pytest.raises(KeyError):  # NONE charges nothing, so it has no row
        ResourceLayout(res, inst, variables, BoundMode.NONE)


def quota_step(res, inst, variables, table, quota):
    """``contribution_with_quota`` with each member's floor at ``table[aid]``,
    converted to fractions."""
    layout = ResourceLayout(res, inst, variables, BoundMode.MIN)
    carry = {aid: floor - variables[aid].min_penalty()[1]
             for aid, floor in table.items()}
    total, selected = contribution_with_quota(layout, quota, carry)
    assert type(total) is int and all(type(s) is int for s in selected.values())
    return (Fraction(total, layout.scale),
            {aid: Fraction(share, layout.scale) for aid, share in selected.items()})


def quota_fixture():
    acts = [Activity(1, 1, 5, ((0, 0), (1, 0))), Activity(2, 1, 5, ((0, 4), (1, 0)))]
    res = Resource("room", (1, 2), 0, 1, (0, 0), (2, 2), (0, 0))
    inst = make_instance(2, acts, [res])
    variables = {a.id: PreferenceVariable(a.id, list(a.domain)) for a in acts}
    table = {1: 0, 2: 0}
    return inst, res, variables, table


def test_quota_picks_cheapest_shares():
    inst, res, variables, table = quota_fixture()
    total, selected = quota_step(res, inst, variables, table, [1, 0])
    assert total == 0 and selected == {}
    total, selected = quota_step(res, inst, variables, table, [2, 0])
    assert total == 4
    assert selected == {2: Fraction(4)}


def test_quota_beyond_runnable_is_infeasible():
    inst, res, variables, table = quota_fixture()
    with pytest.raises(ResourceInfeasible) as exc:
        quota_step(res, inst, variables, table, [3, 0])
    assert exc.value.slot == 0
    assert exc.value.needed == 3
    assert exc.value.runnable == 2
    assert "room" in str(exc.value)


def test_share_is_excess_over_duration():
    # start 3 costs nothing but covers neither window slot
    act = Activity(1, 2, 5, ((0, 6), (3, 0)))
    res = Resource("room", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    inst = make_instance(5, [act], [res])
    variables = variables_of(inst)
    total, selected = quota_step(res, inst, variables, {1: 0}, [1, 1])
    # excess 6 spread over duration 2, charged at both covered slots
    assert total == 6
    assert selected == {1: Fraction(6)}
    half, sel_half = quota_step(res, inst, variables, {1: 0}, [1, 0])
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


def fraction_contribution(resource, instance, variables, table, quota, tie=1):
    """Reference ranking of the unassigned members in exact fractions, ties
    by activity id (descending with ``tie=-1``)."""
    total = Fraction(0)
    selected = {}
    for offset, need in enumerate(quota):
        if need <= 0:
            continue
        t = resource.t_min + offset
        ratios = []
        for aid in resource.members:
            if variables[aid].assignment is not None:
                continue
            dur = instance.by_id[aid].duration
            excess = slot_excess(t, variables[aid], dur, table[aid])
            if excess is not None:
                ratios.append((Fraction(excess, dur), tie * aid, aid))
        if len(ratios) < need:
            raise ResourceInfeasible(resource.name, t, need, len(ratios))
        ratios.sort()
        for ratio, _tie, aid in ratios[:need]:
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
                quota_step(res, inst, variables, table, quota)
            assert (got.value.slot, got.value.needed, got.value.runnable) == (
                exc.slot, exc.needed, exc.runnable)
            infeasible += 1
            continue
        assert quota_step(res, inst, variables, table, quota) == want
        checked += 1
    assert checked >= 80 and infeasible >= 80


def test_quota_on_mutated_search_state_matches_the_fraction_reference():
    rng = random.Random(11)
    checked = infeasible = past_grid = early = 0
    for _case in range(400):
        acts = []
        for aid in range(1, rng.randint(2, 7)):
            dur = rng.choice([1, 1, 1, 2, 3, 4])
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
            if kind < 0.4 and domain_size(var) > 1:
                var.remove_value(slot, trail)
            elif kind < 0.8:
                var.add_penalty(slot, rng.randint(1, 6), trail)
            else:
                var.assign(slot, trail)
        past_grid += any(t_max >= len(variables[a.id]._penalty) for a in acts)
        early += any(a.duration > 1 and s < t_min <= s + a.duration - 1
                     for a in acts for s, _pen in variables[a.id].items())
        table = {a.id: rng.randint(0, 4) for a in acts}
        quota = [rng.randint(0, 3) for _ in range(width)]
        try:
            want = fraction_contribution(res, inst, variables, table, quota)
        except ResourceInfeasible as exc:
            with pytest.raises(ResourceInfeasible) as got:
                quota_step(res, inst, variables, table, quota)
            assert (got.value.resource, got.value.slot, got.value.needed,
                    got.value.runnable) == (exc.resource, exc.slot, exc.needed,
                                            exc.runnable)
            infeasible += 1
            continue
        assert quota_step(res, inst, variables, table, quota) == want
        checked += 1
    assert checked >= 80 and infeasible >= 150
    assert past_grid >= 150 and early >= 150


def reference_bound(instance, variables, mode, occupancy, carry=True, tie=1):
    """The resource bound ranked in fractions over one shared floored table.

    ``carry=False`` gives every resource a fresh table and ``tie=-1`` breaks
    equal ratios by descending id: both are wrong, and the test below uses
    them only to show that its cases tell them apart.
    """
    fresh = {aid: var.min_penalty()[1]
             for aid, var in variables.items() if var.assignment is None}
    table = dict(fresh)
    bound = Fraction(0)
    for r, occ in zip(instance.resources, occupancy):
        declared = r.cap_min if mode is BoundMode.MIN else r.cap_exp
        quota = [max(0, d - o) for d, o in zip(declared, occ)]
        if not any(quota):
            continue
        if not carry:
            table = dict(fresh)
        total, selected = fraction_contribution(r, instance, variables, table,
                                                quota, tie)
        bound += total
        for aid, share in selected.items():
            table[aid] += math.floor(share)
    return bound


def bound_or_refusal(compute):
    try:
        return compute()
    except ResourceInfeasible as exc:
        return (exc.resource, exc.slot, exc.needed, exc.runnable)


def interior_instance(rng):
    """Sparse ids, some negative; durations 1-4; penalties whose ratios to
    the durations often tie; two or three overlapping resources, one of them
    naming a member twice; a few soft pairs that raise penalties."""
    horizon = 7
    ids = rng.sample(range(-12, 30, 3), rng.randint(5, 8))
    acts = []
    for aid in ids:
        dur = rng.choice([1, 1, 1, 2, 3, 4])
        starts = rng.sample(range(horizon - dur + 1), rng.randint(2, horizon - dur + 1))
        acts.append(Activity(aid, dur, 5, tuple(sorted(
            (s, rng.choice([0, 0, 3, 3, 6])) for s in starts))))
    resources = []
    for k in range(rng.randint(2, 3)):
        members = rng.sample(ids, rng.randint(len(ids) - 2, len(ids)))
        if k == 0:
            members.append(members[0])
        t_min = rng.randint(0, 2)
        t_max = rng.randint(t_min, horizon - 1)
        width = t_max - t_min + 1
        cap_min = tuple(rng.randint(0, 3) for _ in range(width))
        cap_exp = tuple(c + rng.randint(0, 2) for c in cap_min)
        resources.append(Resource(f"r{k}", tuple(members), t_min, t_max, cap_min,
                                  flat(len(members), width), cap_exp))
    pairs = tuple(SoftPair(*sorted(rng.sample(ids, 2)), rng.randint(1, 3))
                  for _ in range(rng.randint(0, 3)))
    pairs = tuple({(p.a, p.b): p for p in pairs}.values())
    return Instance(horizon, tuple(acts), pairs, tuple(resources))


def test_resource_bound_matches_the_fraction_reference_at_interior_nodes():
    """Seeded walks assign, fail and backtrack through one trail, as search
    does.  At every node ``resource_bound``, and the layout built once before
    the walk, give the reference's bound or its ``ResourceInfeasible``."""
    rng = random.Random(14)
    nodes = refused = carried = tied = repeated = 0
    for _case in range(150):
        inst = interior_instance(rng)
        first = inst.resources[0]
        once = replace(inst, resources=(
            replace(first, members=first.members[:-1]),) + inst.resources[1:])
        variables = variables_of(inst)
        trail = Trail()
        trail.base_bound = sum(v.min_penalty()[1] for v in variables.values())
        post_network(inst, variables)
        occupancy = [Occupancy(r) for r in inst.resources]
        durations = {a.id: a.duration for a in inst.activities}
        for mode in (BoundMode.MIN, BoundMode.EXP):
            layouts = [ResourceLayout(r, inst, variables, mode)
                       for r in inst.resources]
            marks = []
            for _step in range(12):
                free = [v for v in variables.values() if v.assignment is None]
                if marks and (not free or rng.random() < 0.3):
                    trail.undo_to(marks.pop())
                    continue
                var = rng.choice(free)
                marks.append(trail.mark())
                try:
                    var.assign(rng.choice([s for s, _pen in var.items()]), trail)
                    for occ in occupancy:
                        for aid in occ.resource.members:
                            if aid == var.id:
                                occ.place(var.assignment, durations[aid], trail)
                except SchedulingError:
                    trail.undo_to(marks.pop())
                    continue
                counts = [occ.counts for occ in occupancy]
                want = bound_or_refusal(
                    lambda: reference_bound(inst, variables, mode, counts))
                assert bound_or_refusal(
                    lambda: resource_bound(inst, variables, mode, counts)) == want
                assert bound_or_refusal(lambda: layout_bound(layouts, counts)) == want
                nodes += 1
                if isinstance(want, tuple):
                    refused += 1
                    continue
                carried += want != reference_bound(inst, variables, mode, counts,
                                                   carry=False)
                tied += want != reference_bound(inst, variables, mode, counts, tie=-1)
                repeated += want != bound_or_refusal(
                    lambda: reference_bound(once, variables, mode, counts))
            trail.undo_to(0)
    seen = (nodes, refused, carried, tied, repeated)
    assert nodes >= 2000 and refused >= 500, seen
    assert carried >= 100 and tied >= 20 and repeated >= 50, seen
