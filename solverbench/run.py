"""softsched solver benchmark.

    python3 solverbench/run.py --workload campus --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py``) in this single-threaded process,
round after round, until ``--seconds`` have passed; a round runs each of the
workload's solves through the same calls as ``softsched solve``:
``parse_instance``, ``solve`` or ``solve_min_worst_violation`` with an
incumbent sink, then ``build_solution`` and ``serialize_solution``.  Every
solve's output is checked with the benchmark's own arithmetic (``check.py``)
and its search fingerprint is compared with ``reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, as
medians over the rounds.  The time to the first incumbent, which comes
within milliseconds, also takes samples from extra solves cut at the node
count of their first incumbent, run after every round.  With ``--trace 1``
rounds without wrappers for a quarter of ``--seconds`` give the baseline
solve time; then the rounds run
with the wrappers of ``spans.py`` installed, and the line carries the
per-layer metrics: counts per round, self times as medians over the rounds,
and the tracing overhead.  The spans of the last traced round go to
``solverbench/out/``.

``--instance-offset K`` shifts every generator seed by K.  Those instances
have no recorded fingerprint or optimum: the checker still checks cost,
capacity and incumbent order, and reports the optimum check as unchecked.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Parse passes are timed for this long before every round, so that a burst
# of load on the host cannot move the median; each round adds one more sample.
SETUP_SECONDS = 0.1

# Solves cut at their first incumbent are timed for this long after every
# round.  That incumbent comes within milliseconds, so one sample per round
# would leave its median to a few moments of the host's load.
PROBE_SECONDS = 0.5

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "run_s": "s", "nodes_per_s": "1/s",
    "nodes": "count", "first_incumbent_s": "s", "last_incumbent_s": "s",
    "best_cost": "cost", "peak_rss_mb": "MB", "pass_frac": "ratio",
}

LAYER_CALLS = (
    "core.min_penalty", "core.assign", "core.add_penalty", "core.undo_to",
    "core.remove_value", "core.push_occupancy", "disjunctive.propagate",
    "disjunctive.violation_profile", "cumulative.contribution_with_quota",
    "cumulative.slot_excess", "search.solve", "search.select_variable",
    "search.order_values",
)
LAYER_SELF = (
    "core.min_penalty", "core.assign", "core.undo_to", "disjunctive.propagate",
    "disjunctive.violation_profile", "cumulative.contribution_with_quota",
    "cumulative.slot_excess", "search.solve", "search.select_variable",
    "search.order_values", "instance.parse_instance", "cli.build_solution",
)
LAYER_COUNTERS = (
    ("core.undo_to.entries", "count"), ("core.wipeouts", "count"),
    ("cumulative.infeasible", "count"), ("instance.parse_instance.bytes", "B"),
)
LAYER_DERIVED = (
    ("cumulative.infeasible_ratio", "ratio"), ("search.bound_pass_ratio", "ratio"),
    ("search.restarts", "count"), ("generator.generate.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}.calls": "count" for name in LAYER_CALLS}
    units.update({f"{name}.self_s": "s" for name in LAYER_SELF})
    units.update(LAYER_COUNTERS)
    units.update(LAYER_DERIVED)
    return units


@dataclass
class Round:
    parse_s: float = 0.0
    solve_s: float = 0.0
    run_s: float = 0.0
    nodes: int = 0
    first_s: float = 0.0
    last_s: float = 0.0
    objective: int = 0
    fingerprint: List[dict] = field(default_factory=list)
    problems: List[List[str]] = field(default_factory=list)


def run_round(inputs, optima: List[Optional[int]]) -> Round:
    """One pass over the workload's solves, timed and checked."""
    from softsched import cli, instance, search
    from softsched.cumulative import BoundMode
    from check import check_solve, objective

    clock = time.perf_counter
    out = Round()
    for (spec, expected, data), optimum in zip(inputs, optima):
        fuzzy = spec.objective == "fuzzy-restart"
        config = search.SearchConfig(node_limit=spec.node_limit,
                                     lb_mode=BoundMode(spec.lb))
        incumbents, stamps = [], []

        def sink(inc):
            stamps.append(clock())
            incumbents.append(inc)

        t0 = clock()
        parsed = instance.parse_instance(data)
        t1 = clock()
        runner = search.solve_min_worst_violation if fuzzy else search.solve
        result = runner(parsed, config, sink=sink)
        t2 = clock()
        doc, payload = None, b""
        if result.best is not None:  # the CLI writes no solution file either
            doc = cli.build_solution(parsed, result)
            payload = cli.serialize_solution(doc)
        t3 = clock()

        out.parse_s += t1 - t0
        out.solve_s += t2 - t1
        out.run_s += t3 - t0
        out.nodes += result.nodes
        problems = check_solve(expected, parsed, fuzzy, spec.node_limit is None,
                               result, incumbents, doc, payload, optimum)
        out.problems.append(problems)
        if incumbents:
            out.first_s += stamps[0] - t1
            out.last_s += stamps[-1] - t1
        if result.best is not None:
            out.objective += objective(expected, result.best.assignment, fuzzy)
        out.fingerprint.append({
            "status": result.status.value, "nodes": result.nodes,
            "incumbents": [[inc.cost, inc.nodes] for inc in incumbents],
        })
    return out


def setup_samples(inputs, seconds: float) -> List[float]:
    """Times of whole parse passes over the workload's instance files."""
    from softsched import instance

    samples = []
    while sum(samples) < seconds:
        t0 = time.perf_counter()
        for _spec, _expected, data in inputs:
            instance.parse_instance(data)
        samples.append(time.perf_counter() - t0)
    return samples


def first_incumbent_samples(inputs, done: Round, seconds: float):
    """Times to the first incumbent of solves cut at that incumbent's node count.

    The search is deterministic, so such a solve repeats the uncut one up to
    its first incumbent; returns the samples (each summed over the workload's
    solves, as ``Round.first_s`` is) and whether every cut solve found the
    same first incumbent as ``done``.
    """
    from softsched import instance, search
    from softsched.cumulative import BoundMode

    clock = time.perf_counter
    cut = []
    for (spec, _expected, data), solve in zip(inputs, done.fingerprint):
        if solve["incumbents"]:
            config = search.SearchConfig(node_limit=solve["incumbents"][0][1],
                                         lb_mode=BoundMode(spec.lb))
            runner = (search.solve_min_worst_violation
                      if spec.objective == "fuzzy-restart" else search.solve)
            cut.append((instance.parse_instance(data), config, runner,
                        solve["incumbents"][0]))
    samples: List[float] = []
    same = True
    while cut and (not samples or sum(samples) < seconds):
        gc.collect()
        total = 0.0
        for parsed, config, runner, first in cut:
            found = []
            t0 = clock()
            runner(parsed, config,
                   sink=lambda inc: found.append((clock(), inc.cost, inc.nodes)))
            total += found[0][0] - t0 if found else 0.0
            same = same and bool(found) and [found[0][1], found[0][2]] == first
        samples.append(total)
    return samples, same


def run_rounds(inputs, optima, seconds: float, before_round=None,
               after_round=None) -> List[Round]:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if before_round is not None:
            before_round()
        gc.collect()  # start every round from the same heap, outside its timings
        rounds.append(run_round(inputs, optima))
        if after_round is not None:
            after_round(rounds[-1])
    return rounds


def end_to_end(rounds: List[Round], setup: List[float],
               first: List[float]) -> Dict[str, float]:
    med = statistics.median
    solves = sum(len(r.problems) for r in rounds)
    failed = sum(1 for r in rounds for p in r.problems if p)
    return {
        "setup_s": med(setup + [r.parse_s for r in rounds]),
        "solve_s": med(r.solve_s for r in rounds),
        "run_s": med(r.run_s for r in rounds),
        "nodes_per_s": med(r.nodes / r.solve_s for r in rounds),
        "nodes": rounds[0].nodes,
        "first_incumbent_s": med(first + [r.first_s for r in rounds]),
        "last_incumbent_s": med(r.last_s for r in rounds),
        "best_cost": rounds[0].objective,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": 1 - failed / solves,
    }


def per_layer(snapshots, rounds: List[Round], specs, generate_s: float,
              baseline_solve_s: float) -> Dict[str, float]:
    """Per-layer figures from per-round tracer snapshots (stats, counters)."""
    stats, counters = snapshots[0]
    calls = {name: int(stats.get(name, (0, 0.0))[0]) for name in LAYER_CALLS}
    values: Dict[str, float] = {f"{n}.calls": c for n, c in calls.items()}
    for name in LAYER_SELF:
        values[f"{name}.self_s"] = statistics.median(
            s.get(name, (0, 0.0))[1] for s, _c in snapshots)
    for name, _unit in LAYER_COUNTERS:
        values[name] = counters.get(name, 0)
    fuzzy = sum(1 for s in specs if s.objective == "fuzzy-restart")
    quota_calls = calls["cumulative.contribution_with_quota"]
    values["cumulative.infeasible_ratio"] = (
        counters.get("cumulative.infeasible", 0) / quota_calls if quota_calls else 0.0)
    values["search.bound_pass_ratio"] = calls["search.select_variable"] / rounds[0].nodes
    values["search.restarts"] = (
        (calls["search.solve"] - (len(specs) - fuzzy)) / fuzzy if fuzzy else 0.0)
    values["generator.generate.self_s"] = generate_s
    values["trace.overhead_ratio"] = (
        statistics.median(r.solve_s for r in rounds) / baseline_solve_s)
    return values


def load_reference(name: str, specs) -> Optional[dict]:
    """The recorded fingerprint and optima, if recorded for these generator seeds."""
    recorded = json.loads((HERE / "reference.json").read_text()).get(name)
    if recorded is None or recorded["seeds"] != [s.seed for s in specs]:
        return None
    return recorded


def traced_run(specs, inputs, optima, seconds: float, seed: int, out_path: Path):
    """Per-layer metrics, traced rounds, and whether counts repeated exactly."""
    from spans import Tracer, installed, write_spans
    from workloads import build_inputs

    # A quarter of the run, untraced, gives the solve time the overhead is against.
    baseline = run_rounds(inputs, optima, seconds / 4)
    tracer = Tracer()
    snapshots = []
    last_spans = []

    def after_round(_done):
        snapshots.append((tracer.stats, tracer.counters))
        last_spans[:] = tracer.spans
        tracer.reset()

    with installed(tracer):
        inputs = build_inputs(specs, seed)
        generate_s = tracer.self_s("generator.generate")
        tracer.reset()
        rounds = run_rounds(inputs, optima, seconds, after_round=after_round)
    out_path.parent.mkdir(exist_ok=True)
    write_spans(out_path, *snapshots[-1], last_spans)

    def counts(snapshot):
        stats, counters = snapshot
        return {name: stat[0] for name, stat in stats.items()}, counters

    repeated = all(counts(s) == counts(snapshots[0]) for s in snapshots)
    baseline_s = statistics.median(r.solve_s for r in baseline)
    return per_layer(snapshots, rounds, specs, generate_s, baseline_s), rounds, repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the instance file contents")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-offset", type=int, default=0,
                        help="shift every generator seed; 0 runs the recorded ones")
    args = parser.parse_args(argv)

    if not (SRC / "softsched" / "__init__.py").is_file():
        print(f"softsched sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, build_inputs, workload_specs
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    specs = workload_specs(args.workload, args.instance_offset)
    reference = load_reference(args.workload, specs)
    optima = reference["optima"] if reference else [None] * len(specs)
    inputs = build_inputs(specs, args.seed)

    repeated = True
    if args.trace:
        values, rounds, repeated = traced_run(
            specs, inputs, optima, args.seconds, args.seed,
            HERE / "out" / f"spans-{args.workload}.jsonl.gz")
        units = per_layer_units()
    else:
        setup: List[float] = []
        first: List[float] = []

        def after_round(done: Round) -> None:
            nonlocal repeated
            samples, same = first_incumbent_samples(inputs, done, PROBE_SECONDS)
            first.extend(samples)
            repeated = repeated and same

        rounds = run_rounds(inputs, optima, args.seconds, before_round=lambda: setup.extend(
            setup_samples(inputs, SETUP_SECONDS)), after_round=after_round)
        values = end_to_end(rounds, setup, first)
        units = END_TO_END_UNITS

    attempted = failed = 0
    for r in rounds:
        for spec, problems in zip(specs, r.problems):
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {spec.label}: {'; '.join(problems)}")
    fingerprint = rounds[0].fingerprint
    repeated = repeated and all(r.fingerprint == fingerprint for r in rounds)
    if not repeated:
        print("FAILED: search fingerprint, first incumbent of cut solves or traced counts "
              "differ between rounds")
    if reference is None:
        state = "unrecorded"
    else:
        state = "match" if fingerprint == reference["solves"] else "mismatch"
    if not any(spec.node_limit is None for spec in specs):
        optimum_check = "not applicable"
    else:
        optimum_check = "unchecked" if reference is None else "checked"
    print(f"workload {args.workload} seed {args.seed} generator seeds "
          f"{[s.seed for s in specs]}: {len(rounds)} rounds, {attempted} solves, "
          f"{failed} failed; optimum check {optimum_check}; fingerprint {state}")
    print("fingerprint " + json.dumps(fingerprint, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
