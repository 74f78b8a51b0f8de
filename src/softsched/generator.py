"""Synthetic timetabling instances from a student-enrollment model.

Students pick a handful of courses, drawn without replacement and weighted
by a power-law course popularity; every pair of courses sharing a student
gets a soft non-overlap preference whose weight is the co-enrollment
count.  Courses are single-slot, every slot is a candidate start, and a
share of the candidates carries a small random initial cost.

One classroom pool covers the whole horizon: at most ``rooms`` courses per
slot and no minimum.  The horizon itself is derived so that packing all
courses into the rooms hits the occupancy target on average.  The expected
per-slot occupancy is the pigeonhole bound max(0, courses - rooms *
(horizon - 1)): the other slots seat at most rooms * (horizon - 1) of the
single-slot courses, so every complete schedule puts at least the rest into
each slot.  That claim holds for every schedule, so the expected-mode lower
bound is sound on every generated instance.

Same seed, same parameters: byte-identical instances.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate, combinations
from typing import Dict, List, Optional, Tuple

from .instance import Activity, Instance, Resource, SoftPair, check_grid


def generate(courses: int, rooms: int, occupancy_target: float, seed: int = 0,
             *, students: Optional[int] = None, courses_per_student: int = 3,
             popularity_exponent: float = 1.0, cost_chance: float = 0.3,
             max_cost: int = 5) -> Instance:
    """Build one deterministic instance.

    ``students`` defaults to four per course.  ``courses_per_student``
    caps at the course count.  Raises ValueError when the derived horizon
    cannot physically seat all courses (occupancy demanded above 100%) or
    overflows a float, and when the popularity is so steep that fewer
    than ``courses_per_student`` courses can ever be drawn.
    Raises the ``grid-too-large`` InstanceError before building anything
    when the courses' slot grid would pass
    :data:`softsched.instance.MAX_GRID_SLOTS`.
    """
    if courses < 1:
        raise ValueError("need at least one course")
    if rooms < 1:
        raise ValueError("need at least one room")
    if not 0 < occupancy_target <= 1:
        raise ValueError("occupancy target must be in (0, 1]")
    if courses_per_student < 1:
        raise ValueError("courses per student must be >= 1")
    if popularity_exponent < 0:
        raise ValueError("popularity exponent must be >= 0")
    if max_cost < 1:
        raise ValueError("max cost must be >= 1")
    if students is None:
        students = 4 * courses
    if students < 0:
        raise ValueError("student count must be >= 0")

    try:
        horizon = max(1, round(courses / (rooms * occupancy_target)))
    except OverflowError:
        raise ValueError("the horizon courses / (rooms * occupancy target) "
                         "overflows a float") from None
    check_grid(courses * horizon)  # every course may start at every slot
    if courses > rooms * horizon:
        raise ValueError(
            f"{courses} course-slots cannot fit {rooms} rooms x {horizon} slots")

    rng = random.Random(seed)
    k = min(courses_per_student, courses)

    popularity = [(c + 1) ** -popularity_exponent for c in range(courses)]
    cumulative = list(accumulate(popularity))
    total = cumulative[-1]
    # bisect_left never returns a course whose running sum did not grow
    drawable = sum(b > a for a, b in zip([0.0] + cumulative, cumulative))
    if students and drawable < k:
        raise ValueError(f"popularity exponent {popularity_exponent} lets only "
                         f"{drawable} of {courses} courses be drawn, fewer "
                         f"than the {k} each student takes")

    def pick_course() -> int:
        return bisect_left(cumulative, rng.random() * total)

    enrollment = [0] * courses
    weights: Dict[Tuple[int, int], int] = {}
    for _student in range(students):
        chosen = set()
        while len(chosen) < k:
            chosen.add(pick_course())
        roster = sorted(chosen)
        for cid in roster:
            enrollment[cid] += 1
        for a, b in combinations(roster, 2):
            weights[(a, b)] = weights.get((a, b), 0) + 1

    activities: List[Activity] = []
    for cid in range(courses):
        domain = []
        for slot in range(horizon):
            cost = rng.randint(1, max_cost) if rng.random() < cost_chance else 0
            domain.append((slot, cost))
        activities.append(Activity(cid, 1, enrollment[cid], tuple(domain)))

    pairs = tuple(SoftPair(a, b, w) for (a, b), w in sorted(weights.items()))
    pool = Resource(
        name="rooms",
        members=tuple(range(courses)),
        t_min=0,
        t_max=horizon - 1,
        cap_min=(0,) * horizon,
        cap_max=(rooms,) * horizon,
        cap_exp=(max(0, courses - rooms * (horizon - 1)),) * horizon,
    )
    return Instance(horizon, tuple(activities), pairs, (pool,))
