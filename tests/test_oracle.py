"""Exhaustive reference oracle and the bound self-check harness."""

from fractions import Fraction

import pytest

from softsched import (
    Activity, BoundMode, BoundViolation, Instance, Objective, Resource,
    SoftPair, enumerate_optimum, verify_bound,
)
from softsched.disjunctive import violation_profile
from softsched.oracle import ENUMERATION_CAP


def test_weighted_oracle_agrees_with_profiler(corpus):
    for name, inst, prof in corpus[:80]:
        res = enumerate_optimum(inst)
        assert res.evaluated == prof.evaluated, name
        assert res.feasible == prof.feasible, name
        assert res.optimum == prof.min_cost, name
        if prof.feasible:
            pick = res.witness
            assert res.count >= 1, name
            cost = sum(inst.by_id[a].domain[[s for s, _ in inst.by_id[a].domain].index(t)][1]
                       for a, t in pick.items())
            cost += sum(violation_profile(inst, pick).values()) // 2
            assert cost == prof.min_cost, name
        else:
            assert res.witness is None and res.count == 0


def test_filtered_oracle_matches_capped_profile(corpus):
    for name, inst, prof in corpus[:60]:
        if not inst.pairs:
            continue
        for cap in (0, 1, 3):
            res = enumerate_optimum(inst, violation_limit=cap)
            assert res.optimum == prof.filtered_optimum(cap), (name, cap)


def test_fuzzy_oracle_normalizes_the_worst_activity(corpus):
    checked = 0
    for name, inst, prof in corpus:
        if not prof.feasible or not inst.pairs or len(inst.activities) < 2:
            continue
        res = enumerate_optimum(inst, objective=Objective.FUZZY)
        m = inst.total_weight
        n = len(inst.activities)
        assert res.optimum == 1 - Fraction(prof.min_worst_u, m * (n - 1)), name
        checked += 1
        if checked == 60:
            break
    assert checked == 60


def test_oracle_refuses_oversized_products():
    # four activities of five starts: a product of exactly 5**4 = 625
    acts = tuple(Activity(i, 1, 5, tuple((t, 0) for t in range(5)))
                 for i in range(1, 5))
    inst = Instance(5, acts, (), ())
    every = enumerate_optimum(inst, cap=625)
    assert every.optimum == 0
    assert every.evaluated == every.count == 625
    with pytest.raises(ValueError):
        enumerate_optimum(inst, cap=624)

    # the default cap: 10**7 + 1 = 11 * 909091 assignments are refused.
    # Refusal reads only the domain sizes, so one start repeated will do.
    assert ENUMERATION_CAP == 10 ** 7
    wide = (Activity(1, 1, 5, ((0, 0),) * 11),
            Activity(2, 1, 5, ((0, 0),) * 909091))
    with pytest.raises(ValueError):
        enumerate_optimum(Instance(1, wide, (), ()))


def test_fuzzy_needs_a_network():
    solo = Instance(1, (Activity(1, 1, 5, ((0, 0),)),), (), ())
    with pytest.raises(ValueError):
        enumerate_optimum(solo, objective=Objective.FUZZY)


def test_infeasible_instance_reports_none():
    act = Activity(1, 1, 5, ((0, 0),))
    res = Resource("r", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    inst = Instance(2, (act,), (), (res,))
    out = enumerate_optimum(inst)
    assert not out.feasible
    assert out.optimum is None and out.witness is None and out.count == 0


def test_verify_bound_reports_slack():
    act = Activity(1, 1, 5, ((0, 2), (1, 0)))
    res = Resource("r", (1,), 0, 1, (0, 0), (1, 1), (0, 0))
    inst = Instance(2, (act,), (), (res,))
    report = verify_bound(inst)
    assert report.feasible
    assert report.optimum == 0
    assert set(report.bounds) == {BoundMode.MIN, BoundMode.EXP}
    assert all(slack >= 0 for slack in report.slacks.values())


def test_verify_bound_catches_an_overclaimed_expectation():
    # the activity prefers slot 0, so expecting it at slot 1 overshoots
    act = Activity(1, 1, 5, ((0, 0), (1, 5)))
    res = Resource("r", (1,), 1, 1, (0,), (1,), (1,))
    inst = Instance(2, (act,), (), (res,))
    verify_bound(inst, modes=(BoundMode.MIN,))
    with pytest.raises(BoundViolation) as exc:
        verify_bound(inst, modes=(BoundMode.EXP,))
    assert exc.value.mode is BoundMode.EXP
    assert exc.value.bound == 5
    assert exc.value.optimum == 0


def test_verify_bound_flags_unreachable_expectation_on_feasible_instance():
    act = Activity(1, 1, 5, ((0, 0),))
    res = Resource("r", (1,), 1, 1, (0,), (1,), (1,))
    inst = Instance(2, (act,), (), (res,))
    with pytest.raises(BoundViolation) as exc:
        verify_bound(inst, modes=(BoundMode.EXP,))
    assert exc.value.bound is None


def test_verify_bound_is_vacuous_when_infeasible():
    act = Activity(1, 1, 5, ((0, 0),))
    res = Resource("r", (1,), 1, 1, (1,), (1,), (1,))
    inst = Instance(2, (act,), (), (res,))
    report = verify_bound(inst)
    assert not report.feasible
    assert report.optimum is None


def test_pair_weights_count_in_the_oracle():
    acts = (Activity(1, 1, 5, ((0, 0), (1, 4))), Activity(2, 1, 5, ((0, 0),)))
    inst = Instance(2, acts, (SoftPair(1, 2, 3),), ())
    out = enumerate_optimum(inst)
    # clash for 3 beats moving for 4
    assert out.optimum == 3
    assert out.witness == {1: 0, 2: 0}
    assert out.count == 1
