"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is exact (no tolerances) except the scale test, which asserts
properties — a first incumbent within a minute, strictly decreasing
incumbent costs, graceful interrupt — rather than specific figures.
"""

import json
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

from conftest import exhaustive_profile, penalty
from softsched import (
    Activity, BoundMode, Instance, Objective, Resource, SearchConfig, SoftPair,
    Status, enumerate_optimum, generate, parse_instance, solve,
    solve_min_worst_violation, verify_bound,
)
from softsched.cli import main
from softsched.core import PreferenceVariable, Trail
from softsched.cumulative import ResourceInfeasible
from softsched.disjunctive import (post_network, violation_profile,
                                   worst_case_satisfaction)
from softsched.instance import serialize_instance
from softsched.search import resource_bound

ALL_MODES = (BoundMode.NONE, BoundMode.MIN, BoundMode.EXP)


def replay_cost(instance, assignment, order):
    """Push the assignment through a fresh propagation network and read the
    assigned-value penalties back off the variables."""
    variables = {a.id: PreferenceVariable(a.id, list(a.domain))
                 for a in instance.activities}
    post_network(instance, variables)
    trail = Trail()
    for aid in order:
        variables[aid].assign(assignment[aid], trail)
    return sum(penalty(variables[aid], assignment[aid]) for aid in order)


def test_c1_solver_matches_exhaustive_oracle(corpus):
    """Every lower-bound mode lands on the enumerated optimum, and the two
    sides agree on infeasibility, across the whole corpus."""
    for name, inst, prof in corpus:
        oracle = enumerate_optimum(inst)
        assert oracle.optimum == prof.min_cost, name
        for mode in ALL_MODES:
            res = solve(inst, SearchConfig(lb_mode=mode))
            if oracle.feasible:
                assert res.status is Status.OPTIMAL, (name, mode)
                assert res.best.cost == oracle.optimum, (name, mode)
            else:
                assert res.status is Status.INFEASIBLE, (name, mode)
                assert res.best is None, (name, mode)


def test_c2_propagation_sum_identity(corpus):
    """For every complete assignment the solver reports, the penalties
    accumulated on the assigned values equal initial costs plus the weighted
    violation — under the solver's own order and a shuffled one."""
    rng = random.Random(99)
    checked = 0
    for name, inst, prof in corpus:
        reached = []
        solve(inst, sink=reached.append)
        for inc in reached:
            assignment = inc.assignment
            initial = sum(dict(inst.by_id[a].domain)[s]
                          for a, s in assignment.items())
            expected = initial + sum(violation_profile(inst, assignment).values()) // 2
            assert inc.cost == expected, name
            order = sorted(assignment)
            assert replay_cost(inst, assignment, order) == expected, name
            rng.shuffle(order)
            assert replay_cost(inst, assignment, order) == expected, name
            checked += 1
    assert checked >= 500


def test_c3_lower_bounds_never_exceed_the_optimum(corpus):
    """verify_bound raises on any inadmissible bound; zero raises allowed."""
    for name, inst, prof in corpus:
        report = verify_bound(inst, name=name)
        if report.feasible:
            assert all(s >= 0 for s in report.slacks.values()), name


def test_c3_exp_bound_keeps_the_optimum_on_generated_instances():
    """The generator's cap_exp is a sound claim, so solving under the EXP
    bound reaches the same status and optimum as solving without a bound.
    The 8/2/0.9 instances claim 2 courses per slot, so the bound prunes."""
    cases = [((10, 3, 0.7), seed) for seed in range(8)]
    cases += [((8, 2, 0.9), seed) for seed in range(60)]
    for params, seed in cases:
        inst = generate(*params, seed=seed)
        if params == (8, 2, 0.9):
            assert set(inst.resources[0].cap_exp) == {2}
        plain = solve(inst)
        bounded = solve(inst, SearchConfig(lb_mode=BoundMode.EXP))
        assert bounded.status is plain.status, (params, seed)
        assert plain.best is not None, (params, seed)
        assert bounded.best.cost == plain.best.cost, (params, seed)


def test_c3_resource_bound_holds_at_interior_nodes(corpus):
    """At seeded partial assignments, made the way search makes them, the
    committed cost plus the base bound plus ``resource_bound`` never exceeds
    the optimum of the instance with those activities fixed to their slots,
    and ``ResourceInfeasible`` is raised only when that instance has no
    feasible schedule.  Partial assignments over ``cap_max`` are skipped:
    search never descends from them."""
    rng = random.Random(6)
    checked = refuted = charged = 0
    for name, inst, prof in corpus:
        if not prof.feasible:
            continue
        for _draw in range(3):
            chosen = rng.sample(inst.activities,
                                rng.randint(1, len(inst.activities) - 1))
            fixed = {a.id: rng.choice(a.domain) for a in chosen}
            variables = {a.id: PreferenceVariable(a.id, list(a.domain))
                         for a in inst.activities}
            trail = Trail()
            trail.base_bound = sum(v.min_penalty()[1] for v in variables.values())
            post_network(inst, variables)
            committed = 0
            for aid, (slot, _cost) in fixed.items():
                variables[aid].assign(slot, trail)
                committed += penalty(variables[aid], slot)
            occupancy = []
            for r in inst.resources:
                occ = [0] * (r.t_max - r.t_min + 1)
                for aid in r.members:
                    if aid in fixed:
                        start = fixed[aid][0]
                        for t in range(max(start, r.t_min),
                                       min(start + inst.by_id[aid].duration,
                                           r.t_max + 1)):
                            occ[t - r.t_min] += 1
                occupancy.append(occ)
            if any(count > cap for r, occ in zip(inst.resources, occupancy)
                   for count, cap in zip(occ, r.cap_max)):
                continue
            narrowed = replace(inst, activities=tuple(
                replace(a, domain=(fixed[a.id],)) if a.id in fixed else a
                for a in inst.activities))
            optimum = enumerate_optimum(narrowed).optimum
            for mode in (BoundMode.MIN, BoundMode.EXP):
                try:
                    extra = resource_bound(inst, variables, mode, occupancy)
                except ResourceInfeasible:
                    assert optimum is None, (name, mode, fixed)
                    refuted += 1
                    continue
                if optimum is not None:
                    bound = committed + trail.base_bound + extra
                    assert bound <= optimum, (name, mode, fixed, bound, optimum)
                    checked += 1
                    charged += extra > 0
    assert checked >= 1500 and refuted >= 100 and charged >= 100, (
        checked, refuted, charged)


def sub_window_instance(rng):
    """One resource on a window after slot 0, members of duration 1-3, and a
    ``cap_exp`` of the per-slot occupancy minima, so EXP mode is sound."""
    horizon = rng.randint(4, 7)
    acts = []
    for aid in range(rng.randint(3, 5)):
        dur = rng.randint(1, 3)
        fit = horizon - dur + 1
        starts = rng.sample(range(fit), rng.randint(1, min(3, fit)))
        acts.append(Activity(aid, dur, 10, tuple(
            (s, rng.choice((0, 0, 1, 3, 5))) for s in sorted(starts))))
    pairs = tuple(SoftPair(a.id, b.id, rng.randint(1, 4))
                  for i, a in enumerate(acts) for b in acts[i + 1:]
                  if rng.random() < 0.4)
    t_min = rng.randint(1, horizon - 2)
    t_max = rng.randint(t_min, horizon - 1)
    width = t_max - t_min + 1
    members = tuple(a.id for a in acts)
    cap_min = tuple(int(rng.random() < 0.5) for _ in range(width))
    cap_max = tuple(rng.randint(1, len(members)) for _ in range(width))
    draft = Instance(horizon, tuple(acts), pairs, (
        Resource("late", members, t_min, t_max, cap_min, cap_max, cap_min),))
    profile = exhaustive_profile(draft)
    cap_exp = tuple(max(lo, seen) for lo, seen in zip(cap_min, profile.min_occ[0]))
    return replace(draft, resources=(replace(draft.resources[0], cap_exp=cap_exp),))


def test_c3_bounds_hold_on_sub_windows_with_multi_slot_members():
    """A member started before its resource's window still runs into it: on
    random sub-windows the root bounds stay below the optimum, and search
    under every bound mode reaches the oracle's status and optimum."""
    rng = random.Random(10)
    feasible = charged = 0
    for case in range(150):
        inst = sub_window_instance(rng)
        oracle = enumerate_optimum(inst)
        report = verify_bound(inst, name=f"sub{case}")
        for mode in ALL_MODES:
            out = solve(inst, SearchConfig(lb_mode=mode))
            if oracle.feasible:
                assert out.status is Status.OPTIMAL, (case, mode)
                assert out.best.cost == oracle.optimum, (case, mode)
            else:
                assert out.status is Status.INFEASIBLE, (case, mode)
        if oracle.feasible:
            feasible += 1
            charged += report.bounds[BoundMode.EXP] > sum(
                min(cost for _s, cost in a.domain) for a in inst.activities)
    assert feasible >= 100 and charged >= 8, (feasible, charged)


def test_c4_threshold_filtering_is_exact(corpus):
    """Solving under a per-activity cap matches enumeration filtered by the
    same cap: binding caps shift the optimum, loose caps leave it alone.
    Caps 0 to 2 run on the corpus (durations 1 to 3) and on generated
    instances, and no incumbent of a capped solve passes its cap."""
    def capped_solve(inst, cap):
        seen = []
        res = solve(inst, SearchConfig(violation_limit=cap), sink=seen.append)
        for inc in seen:
            assert max(violation_profile(inst, inc.assignment).values()) <= cap
        return res

    below = above = 0
    for name, inst, prof in corpus:
        if not prof.feasible or not inst.pairs:
            continue
        base = solve(inst)
        worst = max(violation_profile(inst, base.best.assignment).values())
        caps = sorted({0, 1, 2, worst - 1, worst, worst + 1} - {-1})
        for cap in caps:
            res = capped_solve(inst, cap)
            want = prof.filtered_optimum(cap)
            if cap >= worst:
                assert want == prof.min_cost, (name, cap)
                above += 1
            else:
                below += 1
            if want is None:
                assert res.status is Status.INFEASIBLE, (name, cap)
            else:
                assert res.status is Status.OPTIMAL, (name, cap)
                assert res.best.cost == want, (name, cap)
    assert below >= 100 and above >= 500
    for courses in (5, 6, 7):
        for rooms in (2, 3):
            for seed in range(3):
                inst = generate(courses, rooms, 0.7, seed=seed,
                                courses_per_student=2, cost_chance=0.6)
                for cap in (0, 1, 2):
                    case = (courses, rooms, seed, cap)
                    res = capped_solve(inst, cap)
                    want = enumerate_optimum(inst, violation_limit=cap).optimum
                    if want is None:
                        assert res.status is Status.INFEASIBLE, case
                    else:
                        assert res.status is Status.OPTIMAL, case
                        assert res.best.cost == want, case


def test_c5_fuzzy_restarts_reach_the_fuzzy_optimum(corpus):
    """The tightening loop, run to its own proof of optimality, maximizes
    the worst-case satisfaction exactly, at the least cost within that
    worst violation.  Started under a preset cap, it proves the cap
    infeasible when it lies below the best worst violation, and otherwise
    ends where the uncapped start does."""
    checked = capped = 0
    for name, inst, prof in corpus:
        if not prof.feasible or not inst.pairs or len(inst.activities) < 2:
            continue
        res = solve_min_worst_violation(inst)
        assert res.status is Status.OPTIMAL, name
        profile = violation_profile(inst, res.best.assignment)
        worst = max(profile.values())
        got = worst_case_satisfaction(inst, profile)
        oracle = enumerate_optimum(inst, objective=Objective.FUZZY)
        assert got == oracle.optimum, name
        m, n = inst.total_weight, len(inst.activities)
        assert got == 1 - Fraction(prof.min_worst_u, m * (n - 1)), name
        assert res.best.cost == prof.filtered_optimum(prof.min_worst_u), name
        if checked % 3 == 0:
            for cap in range(3):
                out = solve_min_worst_violation(inst, SearchConfig(violation_limit=cap))
                if cap < prof.min_worst_u:
                    assert out.status is Status.INFEASIBLE, (name, cap)
                else:
                    assert out.status is Status.OPTIMAL, (name, cap)
                    assert max(violation_profile(inst, out.best.assignment).values()) == (
                        worst), (name, cap)
                    assert out.best.cost == res.best.cost, (name, cap)
                capped += 1
        checked += 1
    assert checked >= 300 and capped >= 300


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "softsched.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_c6_anytime_contract_at_timetabling_scale(tmp_path):
    """258 courses in 35 rooms at 74% occupancy: a first incumbent arrives
    well inside a minute, the stream improves monotonically, and Ctrl-C
    still hands back the best schedule found."""
    inst_path = tmp_path / "campus.json"
    gen = run_cli(["generate", "--courses", "258", "--rooms", "35",
                   "--occupancy", "0.74", "--seed", "6",
                   "--out", str(inst_path)])
    assert gen.returncode == 0

    sol_path = tmp_path / "solution.json"
    t0 = time.monotonic()
    solved = run_cli(["solve", str(inst_path), "--node-limit", "20000",
                      "--time-limit", "55", "--emit-incumbents",
                      "--out", str(sol_path)], timeout=120)
    wall = time.monotonic() - t0
    assert solved.returncode == 2
    stream = [json.loads(l) for l in solved.stdout.splitlines() if l.strip()]
    assert stream, "no incumbent within the budget"
    assert stream[0]["elapsed"] < 60 and wall < 120
    costs = [entry["cost"] for entry in stream]
    assert costs == sorted(set(costs), reverse=True)

    doc = json.loads(sol_path.read_text())
    assert doc["cost"] == costs[-1]
    assert 0.0 <= doc["breakdown"]["violated_pct_enrollment"] <= 100.0
    assert 0.0 <= doc["breakdown"]["violated_pct_initial"] <= 100.0
    audited = run_cli(["report", str(inst_path), str(sol_path)])
    assert audited.returncode == 0
    assert "% of enrollment" in audited.stdout

    # interrupt mid-search: the best incumbent so far still comes back
    sig_path = tmp_path / "interrupted.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "softsched.cli", "solve", str(inst_path),
         "--emit-incumbents", "--out", str(sig_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = json.loads(proc.stdout.readline())
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    tail = [json.loads(l) for l in out.splitlines() if l.strip()]
    last_cost = ([first] + tail)[-1]["cost"]
    assert json.loads(sig_path.read_text())["cost"] == last_cost
    assert "Traceback" not in err


def test_c7_identical_runs_differ_only_in_elapsed_time(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--courses", "60", "--rooms", "12",
                 "--occupancy", "0.7", "--seed", "21",
                 "--out", str(inst_path)]) == 0
    outs = []
    for run in ("a", "b"):
        sol = tmp_path / f"sol_{run}.json"
        code = main(["solve", str(inst_path), "--node-limit", "3000",
                     "--lb", "min", "--out", str(sol)])
        assert code in (0, 2)
        outs.append(sol.read_text())
    docs = [json.loads(t) for t in outs]
    for doc in docs:
        assert doc["stats"].pop("elapsed") >= 0.0
    assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_c8_format_round_trip_on_generated_instances():
    rng = random.Random(2024)
    for seed in range(100):
        courses = rng.randint(1, 40)
        rooms = rng.randint(1, 8)
        occupancy = rng.uniform(0.3, 1.0)
        try:
            inst = generate(courses, rooms, occupancy, seed=seed,
                            courses_per_student=rng.randint(1, 4),
                            cost_chance=rng.random(),
                            popularity_exponent=rng.uniform(0.0, 2.0))
        except ValueError:
            inst = generate(courses, rooms, 0.5, seed=seed)
        assert parse_instance(serialize_instance(inst)) == inst
