"""Tests of the benchmark's checker, span accounting and traced counts."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import assignment_problems, check_solve, cost_terms  # noqa: E402
from spans import Tracer  # noqa: E402
from softsched import cli, search  # noqa: E402
from workloads import SolveSpec, build_inputs  # noqa: E402

SMALL = (
    SolveSpec(12, 3, 0.7, 0),
    SolveSpec(12, 3, 0.7, 1, objective="fuzzy-restart"),
    SolveSpec(12, 3, 0.95, 2, lb="exp", node_limit=300, pigeonhole_cap_exp=True),
)


def _solved(spec=SMALL[0]):
    ((_spec, instance, _data),) = build_inputs((spec,), seed=0)
    incumbents = []
    result = search.solve(instance, search.SearchConfig(), sink=incumbents.append)
    return instance, result, incumbents


def _problems(instance, result, incumbents, doc=None):
    doc = doc if doc is not None else cli.build_solution(instance, result)
    return check_solve(instance, instance, False, True, result, incumbents, doc,
                       cli.serialize_solution(doc), None)


def test_checker_passes_a_true_solution():
    assert _problems(*_solved()) == []


def test_checker_catches_a_tampered_cost():
    instance, result, incumbents = _solved()
    best = replace(result.best, cost=result.best.cost - 1)
    tampered = replace(result, best=best)
    assert _problems(instance, tampered, incumbents[:-1] + [best])


def test_checker_catches_a_tampered_assignment():
    instance, result, incumbents = _solved()
    aid = instance.activities[0].id
    moved = dict(result.best.assignment)
    for slot, _cost in instance.activities[0].domain:
        moved[aid] = slot
        if sum(cost_terms(instance, moved)[:2]) != result.best.cost:
            break
    best = replace(result.best, assignment=moved)
    tampered = replace(result, best=best)
    assert _problems(instance, tampered, incumbents[:-1] + [best])


def test_checker_catches_a_tampered_earlier_incumbent():
    instance, result, incumbents = _solved()
    assert len(incumbents) >= 2
    first = replace(incumbents[0], cost=incumbents[0].cost + 1)
    assert _problems(instance, result, [first] + incumbents[1:])


def test_checker_catches_an_overfull_slot():
    instance, _result, _incumbents = _solved()
    piled = {a.id: 0 for a in instance.activities}
    assert any("resource" in p for p in assignment_problems(instance, piled))


def test_checker_catches_a_tampered_solution_file():
    instance, result, incumbents = _solved()
    doc = cli.build_solution(instance, result)
    doc["cost"] += 1
    assert _problems(instance, result, incumbents, doc)


def test_checker_catches_incumbents_that_do_not_improve():
    instance, result, incumbents = _solved()
    assert _problems(instance, result, [incumbents[-1]] + incumbents)


def test_checker_catches_a_wrong_recorded_optimum():
    instance, result, incumbents = _solved()
    doc = cli.build_solution(instance, result)
    assert check_solve(instance, instance, False, True, result, incumbents, doc,
                       cli.serialize_solution(doc), result.best.cost + 1)


def test_self_times_on_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # b holds one hot call [6, 8] that is counted but not kept as a span.
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a1 = tracer.wrap("a1", lambda: None)
    hot = tracer.wrap("core.min_penalty", lambda: None)
    a = tracer.wrap("a", lambda: a1())
    b = tracer.wrap("b", lambda: hot())
    tracer.wrap("root", lambda: (a(), b()))()
    assert {name: tracer.self_s(name) for name in tracer.stats} == {
        "root": 3.0, "a": 2.0, "a1": 1.0, "b": 2.0, "core.min_penalty": 2.0}
    assert tracer.spans == [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                            ("a1", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0)]


def test_two_traced_runs_give_identical_counts(tmp_path):
    inputs = build_inputs(SMALL, seed=3)
    optima = [None] * len(SMALL)
    first, _rounds, repeated = run.traced_run(SMALL, inputs, optima, 0, 3,
                                              tmp_path / "a.jsonl.gz")
    second, rounds, _ = run.traced_run(SMALL, inputs, optima, 0, 3,
                                       tmp_path / "b.jsonl.gz")
    counts = [name for name, unit in run.per_layer_units().items()
              if unit != "s" and name != "trace.overhead_ratio"]
    assert repeated
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["cumulative.contribution_with_quota.calls"] > 0
    assert first["search.restarts"] > 0
    assert all(not problems for problems in rounds[0].problems)
    assert search.solve.__module__ == "softsched.search"  # wrappers removed


def test_cut_solves_repeat_the_first_incumbent():
    inputs = build_inputs(SMALL, seed=4)
    done = run.run_round(inputs, [None] * len(SMALL))
    samples, same = run.first_incumbent_samples(inputs, done, 0)
    assert same and len(samples) == 1 and samples[0] > 0
    done.fingerprint[1]["incumbents"][0][1] += 1
    assert not run.first_incumbent_samples(inputs, done, 0)[1]


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_metric_names_match_benchmark_json(kind):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[kind]
    emitted = run.END_TO_END_UNITS if kind == "end_to_end" else run.per_layer_units()
    assert {m["name"]: m["unit"] for m in declared} == emitted
