"""Command-line surface: solve, generate, verify, and report.

Exit codes for ``solve``: 0 the returned solution is proven optimal, 2 a
solution was found but not proven optimal, 3 the instance is infeasible,
4 a limit or interrupt fired before any solution appeared, 1 usage or
parse errors.  An interrupt (Ctrl-C) is caught cooperatively: the search
stops at the next node boundary and the best incumbent found so far is
still written out.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional

from .core import Trail
from .cumulative import BoundMode, CapacityOverflow, Occupancy
from .disjunctive import violation_profile, worst_case_satisfaction
from .generator import generate
from .instance import Instance, InstanceError, parse_instance, serialize_instance
from .oracle import (ENUMERATION_CAP, BoundViolation, Objective,
                     enumerate_optimum, verify_bound)
from .search import (Incumbent, SearchConfig, SolveResult, Status, solve,
                     solve_min_worst_violation)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 as the interface contract demands."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_breakdown(instance: Instance, assignment: Dict[int, int]) -> dict:
    """Recompute every reported quality figure from the assignment alone."""
    initial_sum = 0
    max_initial_sum = 0
    for act in instance.activities:
        costs = dict(act.domain)
        initial_sum += costs[assignment[act.id]]
        max_initial_sum += max(costs.values())
    profile = violation_profile(instance, assignment)
    violation = sum(profile.values()) // 2  # each overlapping pair counts twice
    if len(instance.activities) >= 2 and instance.total_weight >= 1:
        fuzzy = worst_case_satisfaction(instance, assignment)
        fuzzy_text = f"{fuzzy.numerator}/{fuzzy.denominator}"
    else:
        fuzzy_text = None
    pct_enrollment = (100.0 * violation / instance.total_weight
                      if instance.total_weight else 0.0)
    pct_initial = (100.0 * initial_sum / max_initial_sum
                   if max_initial_sum else 0.0)
    return {
        "initial_cost_sum": initial_sum,
        "violation_sum": violation,
        "per_activity_u": [{"id": act.id, "u": profile[act.id]}
                           for act in instance.activities],
        "fuzzy": fuzzy_text,
        "violated_pct_enrollment": pct_enrollment,
        "violated_pct_initial": pct_initial,
    }


def build_solution(instance: Instance, result: SolveResult) -> dict:
    incumbent = result.best
    return {
        "assignment": [{"id": aid, "start": incumbent.assignment[aid]}
                       for aid in sorted(incumbent.assignment)],
        "cost": incumbent.cost,
        "breakdown": build_breakdown(instance, incumbent.assignment),
        "optimal": result.status is Status.OPTIMAL,
        "stats": {
            "nodes": result.nodes,
            "elapsed": result.elapsed,
            "incumbents": result.incumbents,
        },
    }


def serialize_solution(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def _write(path: Optional[str], payload: bytes) -> None:
    if path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def _load_instance(path: str) -> Instance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    try:
        instance = _load_instance(args.instance)
        config = SearchConfig(
            time_limit=args.time_limit,
            node_limit=args.node_limit,
            violation_limit=args.u_max,
            lb_mode=BoundMode(args.lb),
        )
    except (OSError, InstanceError, ValueError) as exc:
        print(f"softsched: {exc}", file=sys.stderr)
        return 1

    interrupted = False

    def on_interrupt(_signum, _frame):
        nonlocal interrupted
        interrupted = True

    sink = None
    if args.emit_incumbents:
        def sink(inc: Incumbent) -> None:
            line = json.dumps({"cost": inc.cost, "elapsed": inc.elapsed,
                               "nodes": inc.nodes})
            print(line, flush=True)

    runner = (solve_min_worst_violation if args.objective == "fuzzy-restart"
              else solve)
    previous = signal.signal(signal.SIGINT, on_interrupt)
    try:
        result = runner(instance, config, sink=sink,
                        cancel=lambda: interrupted)
    finally:
        signal.signal(signal.SIGINT, previous)

    if result.best is not None:
        _write(args.out, serialize_solution(build_solution(instance, result)))
        return 0 if result.status is Status.OPTIMAL else 2
    if result.status is Status.INFEASIBLE:
        print("softsched: instance is infeasible", file=sys.stderr)
        return 3
    print("softsched: no solution within the given limits", file=sys.stderr)
    return 4


def _cmd_generate(args) -> int:
    try:
        instance = generate(
            args.courses, args.rooms, args.occupancy, args.seed,
            students=args.students,
            courses_per_student=args.courses_per_student,
            popularity_exponent=args.popularity_exponent,
            cost_chance=args.cost_chance,
            max_cost=args.max_cost,
        )
    except ValueError as exc:
        print(f"softsched: {exc}", file=sys.stderr)
        return 1
    _write(args.out, serialize_instance(instance))
    return 0


def _cmd_verify(args) -> int:
    try:
        instance = _load_instance(args.instance)
    except (OSError, InstanceError) as exc:
        print(f"softsched: {exc}", file=sys.stderr)
        return 1
    try:
        report = verify_bound(instance, name=args.instance, cap=args.cap)
    except BoundViolation as exc:
        print(f"softsched: BOUND VIOLATION: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"softsched: {exc}", file=sys.stderr)
        return 1
    if not report.feasible:
        print(f"{args.instance}: infeasible; bounds pass vacuously")
        return 0
    print(f"{args.instance}: optimum {report.optimum}")
    for mode in (BoundMode.MIN, BoundMode.EXP):
        print(f"  {mode.value} bound {report.bounds[mode]} "
              f"(slack {report.slacks[mode]})")
    if args.fuzzy:
        try:
            fuzzy = enumerate_optimum(instance, Objective.FUZZY, cap=args.cap)
            print(f"  fuzzy optimum {fuzzy.optimum}")
        except ValueError:
            print("  fuzzy optimum undefined for this instance")
    return 0


def _cmd_report(args) -> int:
    try:
        instance = _load_instance(args.instance)
        with open(args.solution, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
        ids = [entry["id"] for entry in doc["assignment"]]
        entries = Counter(ids)
        assignment = {entry["id"]: entry["start"] for entry in doc["assignment"]}
        stored = doc["breakdown"]
        if not isinstance(stored, dict):
            raise TypeError(f"breakdown is {stored!r}, not an object")
        stored_cost = doc["cost"]
    except (OSError, InstanceError, KeyError, TypeError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"softsched: cannot read inputs: {exc!r}", file=sys.stderr)
        return 1
    for aid in ids:
        if type(aid) is not int:  # true and 0.0 hash and compare like 1 and 0
            print(f"softsched: solution names activity {aid!r}, "
                  f"not an integer id", file=sys.stderr)
            return 1
    missing = [a.id for a in instance.activities if a.id not in assignment]
    if missing:
        print(f"softsched: solution misses activities {missing}", file=sys.stderr)
        return 1
    known = {a.id for a in instance.activities}
    unknown = [aid for aid in entries if aid not in known]
    if unknown:
        print(f"softsched: solution names unknown activities {unknown}",
              file=sys.stderr)
        return 1
    repeated = [aid for aid, count in entries.items() if count > 1]
    if repeated:
        print(f"softsched: solution repeats activities {repeated}",
              file=sys.stderr)
        return 1
    for act in instance.activities:
        start = assignment[act.id]
        if type(start) is not int:  # 1.0 and true compare equal to slot 1
            print(f"softsched: activity {act.id} starts at {start!r}, "
                  f"not an integer slot", file=sys.stderr)
            return 1
        if not any(start == slot for slot, _cost in act.domain):
            print(f"softsched: activity {act.id} starts at {start!r}, "
                  f"outside its domain", file=sys.stderr)
            return 1
    trail = Trail()  # only collects the bumps; nothing is undone
    for res in instance.resources:
        occupancy = Occupancy(res)
        try:
            for aid in res.members:
                occupancy.place(assignment[aid], instance.activity(aid).duration,
                                trail)
        except CapacityOverflow as exc:
            print(f"softsched: {exc}", file=sys.stderr)
            return 1
        slot = occupancy.deficit_slot()
        if slot is not None:
            print(f"softsched: resource {res.name!r} falls short of cap_min "
                  f"at slot {slot}", file=sys.stderr)
            return 1
    # 1.0 and true compare equal to 1, so the figures' types are checked first
    figures = [("cost", stored_cost)]
    figures += [(key, stored[key]) for key in ("initial_cost_sum", "violation_sum")
                if key in stored]
    per_activity = stored.get("per_activity_u")
    if isinstance(per_activity, list):
        figures += [(f"per_activity_u {key}", entry[key]) for entry in per_activity
                    if isinstance(entry, dict) for key in ("id", "u") if key in entry]
    for name, value in figures:
        if type(value) is not int:
            print(f"softsched: stored {name} {value!r} is not an integer",
                  file=sys.stderr)
            return 1
    fresh = build_breakdown(instance, assignment)
    if fresh != stored:
        print("softsched: stored breakdown does not match the assignment:",
              file=sys.stderr)
        for key in fresh:
            if fresh[key] != stored.get(key):
                print(f"  {key}: stored {stored.get(key)!r}, "
                      f"recomputed {fresh[key]!r}", file=sys.stderr)
        return 1
    cost = fresh["initial_cost_sum"] + fresh["violation_sum"]
    if cost != stored_cost:
        print(f"softsched: stored cost {stored_cost} != recomputed {cost}",
              file=sys.stderr)
        return 1
    worst = max((e["u"] for e in fresh["per_activity_u"]), default=0)
    print(f"{args.solution}: consistent with {args.instance}")
    print(f"  cost {cost} = initial {fresh['initial_cost_sum']}"
          f" + violations {fresh['violation_sum']}")
    print(f"  worst per-activity violation {worst}")
    print(f"  fuzzy {fresh['fuzzy']}")
    print(f"  violated: {fresh['violated_pct_enrollment']:.3f}% of enrollment"
          f" requirements, {fresh['violated_pct_initial']:.3f}% of initial"
          f" preference mass")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="softsched",
                     description="Soft-scheduling constraint solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--time-limit", type=float, default=None,
                         metavar="SECONDS")
    p_solve.add_argument("--node-limit", type=int, default=None, metavar="N")
    p_solve.add_argument("--u-max", type=int, default=None, metavar="K",
                         help="cap on any activity's incident violation")
    p_solve.add_argument("--lb", choices=["none", "min", "exp"],
                         default="none", help="resource lower-bound mode")
    p_solve.add_argument("--objective",
                         choices=["weighted", "fuzzy-restart"],
                         default="weighted")
    p_solve.add_argument("--out", default=None, metavar="PATH")
    p_solve.add_argument("--emit-incumbents", action="store_true",
                         help="stream each incumbent as a JSON line")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a synthetic instance")
    p_gen.add_argument("--courses", type=int, required=True)
    p_gen.add_argument("--rooms", type=int, required=True)
    p_gen.add_argument("--occupancy", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--students", type=int, default=None)
    p_gen.add_argument("--courses-per-student", type=int, default=3)
    p_gen.add_argument("--popularity-exponent", type=float, default=1.0)
    p_gen.add_argument("--cost-chance", type=float, default=0.3)
    p_gen.add_argument("--max-cost", type=int, default=5)
    p_gen.add_argument("--out", default=None, metavar="PATH")
    p_gen.set_defaults(func=_cmd_generate)

    p_verify = sub.add_parser(
        "verify", help="check the lower bounds against brute force")
    p_verify.add_argument("instance")
    p_verify.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                          help="refuse instances with more assignments")
    p_verify.add_argument("--fuzzy", action="store_true",
                          help="also print the fuzzy optimum")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser(
        "report", help="audit a solution file against its instance")
    p_report.add_argument("instance")
    p_report.add_argument("solution")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
