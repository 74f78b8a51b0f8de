"""Branch and bound: heuristics, statuses, limits, determinism, restarts."""

import random
import sys
from itertools import combinations, product

import pytest

from softsched import (
    Activity, BoundMode, Instance, Resource, SearchConfig,
    SoftPair, Status, generate, solve, solve_min_worst_violation,
)
from softsched import search
from softsched.core import PreferenceVariable, Trail
from softsched.disjunctive import post_network, violation_profile
from softsched.search import (order_values, pigeonhole_clique, rank_variables,
                              select_variable)


def brute_force(instance):
    """Minimal total cost over every hard-feasible assignment, or None."""
    acts = instance.activities
    best = None
    for combo in product(*(a.domain for a in acts)):
        assignment = {a.id: c[0] for a, c in zip(acts, combo)}
        ok = True
        for r in instance.resources:
            width = r.t_max - r.t_min + 1
            occ = [0] * width
            for aid in r.members:
                a = instance.by_id[aid]
                s = assignment[aid]
                for t in range(max(s, r.t_min), min(s + a.duration - 1, r.t_max) + 1):
                    occ[t - r.t_min] += 1
            if any(occ[t] < r.cap_min[t] or occ[t] > r.cap_max[t] for t in range(width)):
                ok = False
                break
        if not ok:
            continue
        cost = (sum(c[1] for c in combo)
                + sum(violation_profile(instance, assignment).values()) // 2)
        if best is None or cost < best:
            best = cost
    return best


def test_select_variable_prefers_constrained_then_cheap():
    variables = {
        1: PreferenceVariable(1, [(0, 4)]),
        2: PreferenceVariable(2, [(0, 2), (1, 3)]),
        3: PreferenceVariable(3, [(0, 0), (1, 6)]),
    }
    ranking = rank_variables(variables, {1: 3, 2: 5, 3: 5})
    assert select_variable(ranking).id == 3
    trail_free = {2: variables[2], 3: variables[3]}
    assert select_variable(rank_variables(trail_free, {2: 1, 3: 1})).id == 3
    tr = Trail()
    for v in variables.values():
        v.assign(v.min_penalty()[0], tr)
    assert select_variable(ranking) is None


def test_rank_variables_groups_by_descending_metric():
    variables = {aid: PreferenceVariable(aid, [(0, 0)]) for aid in (4, 1, 3, 2)}
    ranking = rank_variables(variables, {1: 2, 2: 5, 3: 2, 4: 5})
    assert [[v.id for v in group] for group in ranking] == [[2, 4], [1, 3]]


def test_select_variable_matches_the_reference_key():
    """On random partial states, with ties in the metric under both "count"
    and "weight", the ranking picks what the key (-metric, cheapest
    penalty, id) picks over all unassigned variables."""
    by_penalty = by_id = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        horizon = rng.randint(2, 4)
        pairs = [(a, b, rng.randint(1, 3))
                 for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.5]
        costs = {(i, t): rng.choice([0, 0, 1, 2])
                 for i in range(1, n + 1) for t in range(horizon)}
        inst = unit(n, horizon, pairs, costs)
        for mode in ("count", "weight"):
            metric = {aid: len(arcs) if mode == "count" else sum(w for _o, w in arcs)
                      for aid, arcs in inst.incident.items()}
            variables = {a.id: PreferenceVariable(a.id, list(a.domain))
                         for a in inst.activities}
            post_network(inst, variables)
            ranking = rank_variables(variables, metric)
            trail = Trail()
            order = list(variables)
            rng.shuffle(order)
            for aid in order:
                keys = sorted((-metric[i], v.min_penalty()[1], i)
                              for i, v in variables.items() if v.assignment is None)
                assert select_variable(ranking).id == keys[0][2]
                if len(keys) > 1 and keys[0][0] == keys[1][0]:
                    if keys[0][1] < keys[1][1]:
                        by_penalty += 1
                    else:
                        by_id += 1
                var = variables[aid]
                var.assign(rng.choice([slot for slot, _pen in var.items()]), trail)
            assert select_variable(ranking) is None
    assert by_penalty > 0 and by_id > 0


def test_order_values_cheapest_first():
    v = PreferenceVariable(0, [(7, 5), (8, 0), (10, 0)])
    assert order_values(v) == [(0, 8), (0, 10), (5, 7)]


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(time_limit=0)
    with pytest.raises(ValueError):
        SearchConfig(node_limit=0)
    with pytest.raises(ValueError):
        SearchConfig(violation_limit=-1)


def test_config_refuses_a_nan_time_limit():
    # NaN is not <= 0, and a deadline of NaN never fires
    with pytest.raises(ValueError, match="time limit must be positive"):
        SearchConfig(time_limit=float("nan"))


def unit(n, horizon, pairs, costs=None, resources=()):
    acts = []
    for i in range(1, n + 1):
        dom = tuple((t, 0 if costs is None else costs.get((i, t), 0))
                    for t in range(horizon))
        acts.append(Activity(i, 1, 10, dom))
    return Instance(horizon, tuple(acts),
                    tuple(SoftPair(a, b, w) for a, b, w in pairs), tuple(resources))


def test_separable_instance_solves_to_zero():
    inst = unit(3, 3, [(1, 2, 4), (1, 3, 4), (2, 3, 4)])
    res = solve(inst)
    assert res.status is Status.OPTIMAL
    assert res.best.cost == 0
    assert sum(violation_profile(inst, res.best.assignment).values()) // 2 == 0
    assert set(res.best.assignment) == {1, 2, 3}


def test_forced_clash_pays_the_lightest_pair():
    inst = unit(3, 2, [(1, 2, 3), (1, 3, 5), (2, 3, 7)])
    res = solve(inst)
    assert res.status is Status.OPTIMAL
    assert res.best.cost == 3 == brute_force(inst)


def test_infeasible_by_capacity():
    act = Activity(1, 1, 5, ((0, 0), (1, 0)))
    res = Resource("r", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    inst = Instance(2, (act,), (), (res,))
    out = solve(inst)
    assert out.status is Status.INFEASIBLE
    assert out.best is None
    assert brute_force(inst) is None


def test_threshold_can_make_an_instance_infeasible():
    inst = unit(2, 1, [(1, 2, 6)])
    assert solve(inst).best.cost == 6
    capped = solve(inst, SearchConfig(violation_limit=5))
    assert capped.status is Status.INFEASIBLE


def test_node_limit_statuses():
    inst = unit(4, 4, [(a, b, 2) for a in range(1, 5) for b in range(a + 1, 5)])
    assert solve(inst, SearchConfig(node_limit=1)).status is Status.UNKNOWN
    partial = solve(inst, SearchConfig(node_limit=5))
    assert partial.status is Status.FEASIBLE
    assert partial.nodes == 5
    full = solve(inst)
    assert full.status is Status.OPTIMAL
    assert full.best.cost == brute_force(inst)


def test_status_at_exactly_the_node_limit():
    """A budget of exactly the nodes a search takes lets it finish proven;
    one node fewer stops it unproven, whether it found an incumbent or not."""
    pool = Resource("r", (1, 2, 3), 0, 1, (0, 0), (1, 1), (0, 0))
    cramped = unit(3, 2, [], resources=[pool])  # three members, two seats
    cases = [(generate(30, 6, 0.7, 0), Status.OPTIMAL, Status.FEASIBLE),
             (generate(30, 6, 0.7, 2), Status.OPTIMAL, Status.FEASIBLE),
             (cramped, Status.INFEASIBLE, Status.UNKNOWN)]
    for inst, proven, stopped in cases:
        for driver in (solve, solve_min_worst_violation):
            full = driver(inst)
            assert full.status is proven
            for limit, status in ((full.nodes, proven), (full.nodes - 1, stopped)):
                out = driver(inst, SearchConfig(node_limit=limit))
                assert (out.status, out.nodes) == (status, limit)


def test_node_limits_inside_cut_sibling_groups():
    """A node limit that lands inside a group of siblings cut against the
    incumbent stops at exactly that many nodes, with the same incumbents
    the unlimited search had found by then."""
    inst = generate(30, 6, 0.7, 0)
    seen = []
    full = solve(inst, sink=seen.append)
    for limit in range(1, full.nodes, 13):
        got = []
        out = solve(inst, SearchConfig(node_limit=limit), sink=got.append)
        assert out.nodes == limit
        want = [inc for inc in seen if inc.nodes <= limit]
        assert out.status is (Status.FEASIBLE if want else Status.UNKNOWN)
        assert [(inc.cost, inc.nodes, inc.assignment) for inc in got] == [
            (inc.cost, inc.nodes, inc.assignment) for inc in want]


def test_children_that_cannot_beat_the_incumbent_are_never_assigned(monkeypatch):
    """Cut children count as nodes but are never assigned; visiting each
    one would assign it once per node."""
    calls = [0]
    assign = PreferenceVariable.assign

    def counted(var, slot, trail):
        calls[0] += 1
        assign(var, slot, trail)

    monkeypatch.setattr(PreferenceVariable, "assign", counted)
    ladder = solve(generate(30, 6, 0.7, 0))
    assert (ladder.status, ladder.nodes, calls[0]) == (Status.OPTIMAL, 5817, 1245)
    calls[0] = 0
    campus = solve(generate(258, 35, 0.74, 6), SearchConfig(node_limit=20000))
    assert (campus.status, campus.nodes, campus.best.cost, calls[0]) == (
        Status.FEASIBLE, 20000, 17, 3111)


def test_deep_search_leaves_the_recursion_limit_alone():
    inst = unit(1200, 2, [])
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default, below the depth
    try:
        result = solve(inst)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(previous)
    assert result.status is Status.OPTIMAL
    assert result.best.cost == 0


def test_cancel_is_honored_between_nodes():
    inst = unit(5, 5, [(a, b, 1) for a in range(1, 6) for b in range(a + 1, 6)])
    seen = []
    out = solve(inst, sink=seen.append, cancel=lambda: len(seen) > 0)
    assert out.status is Status.FEASIBLE
    assert out.best.cost == seen[-1].cost


def test_incumbent_costs_strictly_decrease():
    rng = random.Random(5)
    for trial in range(20):
        n = rng.randint(3, 5)
        horizon = rng.randint(2, 3)
        pairs = [(a, b, rng.randint(1, 4))
                 for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.8]
        costs = {(i, t): rng.choice([0, 0, 1, 3])
                 for i in range(1, n + 1) for t in range(horizon)}
        inst = unit(n, horizon, pairs, costs)
        seen = []
        out = solve(inst, sink=seen.append)
        assert out.status is Status.OPTIMAL
        assert [i.cost for i in seen] == sorted({i.cost for i in seen}, reverse=True)
        assert seen[-1].cost == out.best.cost == brute_force(inst)
        assert out.incumbents == len(seen)


def test_bound_modes_agree_on_the_optimum():
    acts = (Activity(1, 2, 5, ((0, 0), (1, 2), (2, 1))),
            Activity(2, 1, 5, ((0, 1), (2, 0), (3, 0))),
            Activity(3, 1, 5, ((1, 0), (3, 2))))
    res = Resource("r", (1, 2, 3), 0, 3, (0, 0, 0, 0), (2, 2, 2, 2), (0, 0, 1, 0))
    inst = Instance(4, acts, (SoftPair(1, 2, 3), SoftPair(2, 3, 2)), (res,))
    want = brute_force(inst)
    for mode in (BoundMode.NONE, BoundMode.MIN, BoundMode.EXP):
        out = solve(inst, SearchConfig(lb_mode=mode))
        assert out.status is Status.OPTIMAL
        assert out.best.cost == want


def test_runs_are_reproducible():
    inst = unit(4, 3, [(1, 2, 2), (2, 3, 5), (3, 4, 1), (1, 4, 4)],
                costs={(1, 0): 2, (3, 1): 1})
    a = solve(inst, SearchConfig(lb_mode=BoundMode.MIN))
    b = solve(inst, SearchConfig(lb_mode=BoundMode.MIN))
    assert a.nodes == b.nodes
    assert a.best.assignment == b.best.assignment
    assert a.best.cost == b.best.cost
    assert a.incumbents == b.incumbents


def test_min_worst_violation_loop():
    # three activities, two slots: someone must clash, the loop spreads it
    inst = unit(3, 2, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    out = solve_min_worst_violation(inst)
    assert out.status is Status.OPTIMAL
    worst = max(
        sum(w for o, w in inst.incident[a] if out.best.assignment[o] == out.best.assignment[a])
        for a in (1, 2, 3))
    assert worst == 1

    roomy = unit(3, 3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    spread = solve_min_worst_violation(roomy)
    assert spread.status is Status.OPTIMAL
    assert sum(violation_profile(roomy, spread.best.assignment).values()) // 2 == 0


def test_min_worst_violation_limits_and_infeasibility():
    inst = unit(3, 2, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    free = solve_min_worst_violation(inst)
    assert free.status is Status.OPTIMAL
    # a generous time limit changes nothing
    timed = solve_min_worst_violation(inst, SearchConfig(time_limit=600))
    assert (timed.status, timed.nodes, timed.best.assignment) == (
        free.status, free.nodes, free.best.assignment)

    act = Activity(1, 1, 5, ((0, 0), (1, 0)))
    full = Resource("r", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    infeasible = solve_min_worst_violation(Instance(2, (act,), (), (full,)))
    assert infeasible.status is Status.INFEASIBLE and infeasible.best is None

    clique = unit(4, 4, [(a, b, 2) for a in range(1, 5) for b in range(a + 1, 5)])
    cut = solve_min_worst_violation(clique, SearchConfig(node_limit=1))
    assert cut.status is Status.UNKNOWN and cut.best is None


def test_min_worst_violation_spends_one_node_budget_across_rounds():
    # The second round finds the best, so no clique settles it unrun.
    inst = generate(20, 4, 0.8, seed=4)
    first = solve(inst)
    free = solve_min_worst_violation(inst)
    # the budget outlasts the first round and runs out inside a later one
    assert first.nodes < free.nodes
    limit = first.nodes + 1
    out = solve_min_worst_violation(inst, SearchConfig(node_limit=limit))
    assert out.status is Status.FEASIBLE
    assert out.nodes == limit
    assert out.best is not None
    # the first round exhausts on the budget's last node: no second round
    exact = solve_min_worst_violation(inst, SearchConfig(node_limit=first.nodes))
    assert exact.status is Status.FEASIBLE
    assert exact.nodes == first.nodes
    assert (exact.best.cost, exact.best.nodes) == (first.best.cost, first.best.nodes)


def test_min_worst_violation_incumbents_count_from_the_start_of_the_call():
    """The best comes in the second round.  Every emitted incumbent counts
    the nodes of the rounds before it and the time since the call began,
    so neither figure ever decreases, and a solve cut at the best's node
    count ends on the best."""
    inst = generate(20, 4, 0.8, seed=4)
    first_round = solve(inst)
    emitted = []
    out = solve_min_worst_violation(inst, sink=emitted.append)
    assert out.status is Status.OPTIMAL and out.best == emitted[-1]
    assert out.best.nodes > first_round.nodes
    nodes = [inc.nodes for inc in emitted]
    elapsed = [inc.elapsed for inc in emitted]
    assert nodes == sorted(nodes) and nodes[-1] <= out.nodes
    assert elapsed == sorted(elapsed) and elapsed[-1] <= out.elapsed
    cut = solve_min_worst_violation(inst, SearchConfig(node_limit=out.best.nodes))
    assert cut.best.assignment == out.best.assignment
    early = solve_min_worst_violation(inst, SearchConfig(node_limit=out.best.nodes - 1))
    assert early.best.assignment != out.best.assignment


def incumbent_trace(result, seen):
    return result.status, result.nodes, [[inc.cost, inc.nodes] for inc in seen]


def test_pinned_search_traces(corpus):
    """Status, node count and every incumbent's (cost, node) on fixed
    instances.  Any change to the order in which search visits nodes shows
    here, not only a change between two runs of the same code."""
    ladder = generate(30, 6, 0.7, 0)
    seen = []
    assert incumbent_trace(solve(ladder, sink=seen.append), seen) == (
        Status.OPTIMAL, 5817, [[5, 30], [4, 255], [3, 1131], [2, 1369], [1, 4335]])
    seen = []
    assert incumbent_trace(solve_min_worst_violation(ladder, sink=seen.append), seen) == (
        Status.OPTIMAL, 5817, [[5, 30], [4, 255], [3, 1131], [2, 1369], [1, 4335]])
    # A real capped round: its first incumbent costs more than the uncapped
    # round's best (3 -> 12), and the last round proves nothing fits a cap
    # below worst violation 1.
    seen = []
    assert incumbent_trace(
        solve_min_worst_violation(generate(40, 8, 0.7, 0), sink=seen.append), seen) == (
        Status.OPTIMAL, 38029,
        [[9, 40], [8, 174], [7, 861], [6, 2833], [5, 3909], [4, 7452], [3, 12906],
         [12, 23221], [9, 23334], [8, 23444], [7, 23694], [6, 24428], [5, 25068],
         [4, 26000]])
    name, mixed, _profile = corpus[195]   # durations 3, 2, 1, 1, 1, 3
    assert name == "c195"
    seen = []
    exp = SearchConfig(lb_mode=BoundMode.EXP)
    assert incumbent_trace(solve(mixed, exp, sink=seen.append), seen) == (
        Status.OPTIMAL, 81, [[15, 7], [12, 21], [10, 45], [7, 61]])
    # Weights 1 to 5 under a cap of 1: propagation both charges and removes.
    seen = []
    capped = SearchConfig(violation_limit=1)
    assert incumbent_trace(solve(mixed, capped, sink=seen.append), seen) == (
        Status.OPTIMAL, 56, [[12, 17], [8, 24]])


def assert_pigeonhole_witness(instance, limit, witness):
    """Unit members, pairwise heavier than ``limit``, on fewer start slots."""
    weight = {frozenset((p.a, p.b)): p.weight for p in instance.pairs}
    assert witness == sorted(set(witness))
    assert all(instance.by_id[aid].duration == 1 for aid in witness)
    for a, b in combinations(witness, 2):
        assert weight.get(frozenset((a, b)), 0) > limit
    starts = {slot for aid in witness for slot, _cost in instance.by_id[aid].domain}
    assert len(starts) < len(witness)


def test_pigeonhole_cliques_are_sound(corpus):
    """Every witness is well formed, and the solve it claims to settle,
    capped at the same limit, proves infeasible.  On the corpus the
    exhaustive profiler also finds no assignment within the limit."""
    generated = [(generate(courses, rooms, 0.8, seed=seed), None)
                 for courses in range(6, 17) for rooms in (2, 3) for seed in range(3)]
    found = {"generated": 0, "corpus": 0}
    for kind, cases in (("generated", generated),
                        ("corpus", [(case, p) for _name, case, p in corpus])):
        for inst, profile in cases:
            for limit in range(4):
                witness = pigeonhole_clique(inst, limit)
                if witness is None:
                    continue
                found[kind] += 1
                assert_pigeonhole_witness(inst, limit, witness)
                capped = solve(inst, SearchConfig(violation_limit=limit))
                assert capped.status is Status.INFEASIBLE
                assert profile is None or profile.filtered_optimum(limit) is None
    assert found["generated"] >= 50 and found["corpus"] >= 3, found


def test_pigeonhole_clique_counts_only_unit_activities():
    # Three activities pairwise heavier than the limit share the starts
    # {0, 1}.  The third lasts two slots, so the rule leaves it out, and
    # the two unit ones alone fit.
    short = ((0, 0), (1, 0))
    acts = (Activity(1, 1, 10, short), Activity(2, 1, 10, short),
            Activity(3, 2, 10, short))
    pairs = (SoftPair(1, 2, 2), SoftPair(1, 3, 2), SoftPair(2, 3, 2))
    assert pigeonhole_clique(Instance(3, acts, pairs, ()), 0) is None
    units = acts[:2] + (Activity(3, 1, 10, short),)
    assert pigeonhole_clique(Instance(3, units, pairs, ()), 0) == [1, 2, 3]
    assert pigeonhole_clique(Instance(3, units, pairs, ()), 2) is None


def test_pigeonhole_clique_gives_up_at_its_work_cap(monkeypatch):
    """Past the cap the clique search returns None, and the fuzzy restart
    runs every round as it would without the rule."""
    ladder = generate(30, 6, 0.7, 0)
    assert pigeonhole_clique(ladder, 0) is not None
    monkeypatch.setattr(search, "CLIQUE_WORK_CAP", 1)
    assert pigeonhole_clique(ladder, 0) is None
    seen = []
    assert incumbent_trace(solve_min_worst_violation(ladder, sink=seen.append), seen) == (
        Status.OPTIMAL, 21244, [[5, 30], [4, 255], [3, 1131], [2, 1369], [1, 4335]])


def test_clique_search_runs_only_between_fuzzy_rounds(monkeypatch, corpus):
    """``solve`` and a fuzzy restart cut inside its first round never call
    the clique search; a full fuzzy restart calls it once per tightened
    limit, in order."""
    real = pigeonhole_clique

    def refuse(instance, limit):
        raise AssertionError("clique search outside the fuzzy restart loop")

    monkeypatch.setattr(search, "pigeonhole_clique", refuse)
    for _name, case, _profile in corpus:
        solve(case)
    inst = generate(20, 4, 0.8, seed=4)
    seen = []
    solve(inst, sink=seen.append)
    cut = solve_min_worst_violation(inst, SearchConfig(node_limit=seen[0].nodes))
    assert cut.status is Status.FEASIBLE and cut.best.nodes == seen[0].nodes

    limits = []

    def record(instance, limit):
        limits.append(limit)
        return real(instance, limit)

    monkeypatch.setattr(search, "pigeonhole_clique", record)
    assert solve_min_worst_violation(inst).status is Status.OPTIMAL
    assert limits == [1, 0]
