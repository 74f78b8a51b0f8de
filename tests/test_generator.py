"""Enrollment-model generator: determinism, shape, conservation laws."""

import tracemalloc
from math import comb

import pytest

from softsched import InstanceError, generate, parse_instance
from softsched.instance import serialize_instance


def test_same_seed_same_bytes():
    a = serialize_instance(generate(20, 4, 0.8, seed=11))
    b = serialize_instance(generate(20, 4, 0.8, seed=11))
    assert a == b
    c = serialize_instance(generate(20, 4, 0.8, seed=12))
    assert c != a


def test_benchmark_shape():
    inst = generate(258, 35, 0.74, seed=6)
    assert inst.horizon == 10
    assert len(inst.activities) == 258
    assert all(a.duration == 1 for a in inst.activities)
    assert all(len(a.domain) == 10 for a in inst.activities)
    pool = inst.resources[0]
    assert pool.name == "rooms"
    assert pool.members == tuple(range(258))
    assert (pool.t_min, pool.t_max) == (0, 9)
    assert pool.cap_min == (0,) * 10
    assert pool.cap_max == (35,) * 10
    assert pool.cap_exp == (0,) * 10


def test_enrollment_and_weight_conservation():
    students, k = 4 * 30, 3
    inst = generate(30, 6, 0.9, seed=3)
    assert sum(a.enrollment for a in inst.activities) == students * k
    assert inst.total_weight == students * comb(k, 2)
    # every weight is a co-enrollment count between two distinct courses
    assert all(p.a < p.b and p.weight >= 1 for p in inst.pairs)


def test_explicit_student_body():
    inst = generate(12, 3, 0.8, seed=1, students=50, courses_per_student=4)
    assert sum(a.enrollment for a in inst.activities) == 200
    assert inst.total_weight == 50 * comb(4, 2)
    empty = generate(5, 2, 0.9, seed=1, students=0)
    assert empty.pairs == ()
    assert all(a.enrollment == 0 for a in empty.activities)


def test_single_course_has_no_pairs():
    inst = generate(1, 1, 1.0, seed=0)
    assert inst.horizon == 1
    assert inst.pairs == ()
    assert inst.activities[0].enrollment == 4


def test_costs_respect_the_knobs():
    free = generate(15, 3, 0.8, seed=2, cost_chance=0.0)
    assert all(cost == 0 for a in free.activities for _s, cost in a.domain)
    dear = generate(15, 3, 0.8, seed=2, cost_chance=1.0, max_cost=2)
    costs = [cost for a in dear.activities for _s, cost in a.domain]
    assert all(1 <= c <= 2 for c in costs)


def test_popularity_skew():
    inst = generate(40, 8, 0.8, seed=7, popularity_exponent=3.0)
    head = inst.activities[0].enrollment
    tail = max(a.enrollment for a in inst.activities[20:])
    assert head > tail


def test_parameter_validation():
    with pytest.raises(ValueError):
        generate(0, 3, 0.8)
    with pytest.raises(ValueError):
        generate(10, 0, 0.8)
    with pytest.raises(ValueError):
        generate(10, 3, 0.0)
    with pytest.raises(ValueError):
        generate(10, 3, 1.5)
    with pytest.raises(ValueError):
        generate(10, 3, 0.8, courses_per_student=0)
    with pytest.raises(ValueError):
        generate(10, 3, 0.8, popularity_exponent=-1.0)
    with pytest.raises(ValueError):
        generate(10, 3, 0.8, max_cost=0)
    with pytest.raises(ValueError):
        generate(10, 3, 0.8, students=-1)


def test_rounding_that_cannot_seat_everyone_is_an_error():
    with pytest.raises(ValueError):
        generate(10, 3, 1.0)


def test_an_oversize_grid_is_refused_before_it_is_built():
    """One course over 2,000,001 slots passes the grid limit by one slot;
    the refusal comes before any of the domain is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError) as exc:
            generate(1, 1, 1 / 2_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == "grid-too-large"
    assert peak < 1_000_000


@pytest.mark.parametrize("courses, rooms, occupancy", [
    (1, 1, 1e-320), (5, 10 ** 400, 0.7), (10 ** 400, 1, 1.0)],
    ids=["subnormal-occupancy", "huge-rooms", "huge-courses"])
def test_a_horizon_that_overflows_a_float_is_a_value_error(courses, rooms,
                                                          occupancy):
    with pytest.raises(ValueError, match="overflows a float"):
        generate(courses, rooms, occupancy)


def test_a_popularity_too_steep_to_fill_a_roster_is_refused():
    """At exponent 60 every running popularity sum after course 0 rounds
    to 1.0, so only course 0 can be drawn and a three-course roster would
    never fill; one-course rosters and an empty student body still work."""
    with pytest.raises(ValueError, match="only 1 of 5 courses"):
        generate(5, 2, 0.7, 0, popularity_exponent=60)
    single = generate(5, 2, 0.7, 0, popularity_exponent=60,
                      courses_per_student=1)
    assert [a.enrollment for a in single.activities] == [20, 0, 0, 0, 0]
    empty = generate(5, 2, 0.7, 0, popularity_exponent=60, students=0)
    assert empty.total_weight == 0


def test_generated_instances_survive_the_parser():
    for seed in range(5):
        inst = generate(25, 5, 0.7, seed=seed)
        assert parse_instance(serialize_instance(inst)) == inst
