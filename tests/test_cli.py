"""CLI surface: exit codes, file outputs, incumbent streaming, auditing."""

import json
import subprocess
import sys

import pytest

from softsched import Activity, Instance, Resource, SoftPair
from softsched.cli import main
from softsched.generator import generate
from softsched.instance import serialize_instance


def write_instance(path, instance):
    path.write_bytes(serialize_instance(instance))
    return str(path)


def clique(n, horizon, weight=2):
    acts = tuple(Activity(i, 1, 10, tuple((t, 0) for t in range(horizon)))
                 for i in range(1, n + 1))
    pairs = tuple(SoftPair(a, b, weight)
                  for a in range(1, n + 1) for b in range(a + 1, n + 1))
    return Instance(horizon, acts, pairs, ())


@pytest.fixture
def easy(tmp_path):
    return write_instance(tmp_path / "easy.json", clique(3, 3))


def test_solve_optimal_writes_solution(easy, tmp_path, capsys):
    out = tmp_path / "sol.json"
    assert main(["solve", easy, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"assignment", "cost", "breakdown", "optimal", "stats"}
    assert doc["optimal"] is True
    assert doc["cost"] == 0
    ids = [e["id"] for e in doc["assignment"]]
    assert ids == sorted(ids) == [1, 2, 3]
    assert doc["stats"]["incumbents"] >= 1
    assert capsys.readouterr().out == ""


def test_solve_to_stdout(easy, capsys):
    assert main(["solve", easy]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == 0


def test_solve_feasible_not_proven(tmp_path):
    path = write_instance(tmp_path / "big.json", clique(6, 2))
    out = tmp_path / "sol.json"
    code = main(["solve", path, "--node-limit", "8", "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["optimal"] is False


def test_solve_infeasible(tmp_path, capsys):
    act = Activity(1, 1, 5, ((0, 0), (1, 0)))
    res = Resource("r", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    path = write_instance(tmp_path / "bad.json", Instance(2, (act,), (), (res,)))
    assert main(["solve", path]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_solve_min_bound_sees_a_start_before_the_window(tmp_path, capsys):
    # the only start, 0, runs for two slots into the window [1, 1]
    act = Activity(1, 2, 5, ((0, 0),))
    res = Resource("late", (1,), 1, 1, (1,), (1,), (1,))
    path = write_instance(tmp_path / "late.json", Instance(3, (act,), (), (res,)))
    assert main(["solve", path, "--lb", "min"]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == 0


def test_solve_unknown_within_limits(tmp_path, capsys):
    path = write_instance(tmp_path / "big.json", clique(6, 3))
    assert main(["solve", path, "--node-limit", "1"]) == 4
    assert "no solution" in capsys.readouterr().err


def test_solve_usage_and_input_errors(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    junk = tmp_path / "junk.json"
    junk.write_text("{")
    assert main(["solve", str(junk)]) == 1
    assert main(["solve", str(junk), "--node-limit", "0"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "x.json", "--lb", "tight"])
    assert exc.value.code == 1


def test_solve_refuses_a_nan_time_limit(easy, capsys):
    assert main(["solve", easy, "--time-limit", "nan"]) == 1
    assert "time limit must be positive" in capsys.readouterr().err


def test_solve_rejects_a_huge_start_slot(tmp_path, capsys):
    # one start near 10**9 would need a grid of about 24 GB in memory
    doc = {"format": 1, "horizon": 10 ** 9,
           "activities": [{"id": 0, "duration": 1, "enrollment": 0,
                           "domain": [[10 ** 9 - 1, 0]]}],
           "soft_disjunctive": [], "resources": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert path.stat().st_size == 164
    assert main(["solve", str(path)]) == 1
    assert "[grid-too-large]" in capsys.readouterr().err


def test_incumbent_stream_is_json_lines(tmp_path, capsys):
    path = write_instance(tmp_path / "big.json", clique(5, 2))
    out = tmp_path / "sol.json"
    code = main(["solve", path, "--emit-incumbents", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    assert lines, "expected at least one incumbent line"
    assert all(set(l) == {"cost", "elapsed", "nodes"} for l in lines)
    costs = [l["cost"] for l in lines]
    assert costs == sorted(costs, reverse=True) and len(set(costs)) == len(costs)
    assert json.loads(out.read_text())["cost"] == costs[-1]


def test_fuzzy_restart_objective(tmp_path):
    tight = write_instance(tmp_path / "tight.json", clique(3, 2, weight=1))
    out = tmp_path / "sol.json"
    assert main(["solve", tight, "--objective", "fuzzy-restart",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["breakdown"]["fuzzy"] == "5/6"
    worst = max(e["u"] for e in doc["breakdown"]["per_activity_u"])
    assert worst == 1


def test_generate_subcommand(tmp_path, capsys):
    out = tmp_path / "gen.json"
    args = ["generate", "--courses", "12", "--rooms", "3", "--occupancy", "0.8",
            "--seed", "5", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    doc = json.loads(first)
    assert doc["format"] == 1
    assert len(doc["activities"]) == 12
    assert main(["generate", "--courses", "10", "--rooms", "3",
                 "--occupancy", "1.0"]) == 1
    assert "cannot fit" in capsys.readouterr().err


GENERATE = ["generate", "--courses", "5", "--rooms", "2", "--occupancy", "0.7"]


@pytest.mark.parametrize("argv", [
    GENERATE + ["--out", "{missing}/i.json"],
    ["solve", "{easy}", "--out", "{missing}/s.json"],
    ["generate", "--courses", "1", "--rooms", "1", "--occupancy", "1e-320"],
    ["generate", "--courses", "5", "--rooms", str(10 ** 400),
     "--occupancy", "0.7"],
    GENERATE + ["--popularity-exponent", "60"],
], ids=["generate-out", "solve-out", "subnormal-occupancy", "huge-rooms",
        "steep-popularity"])
def test_a_refusal_is_one_line_and_exit_1(easy, tmp_path, capsys, argv):
    argv = [arg.format(easy=easy, missing=tmp_path / "missing") for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("softsched: ")


def test_verify_subcommand(easy, tmp_path, capsys):
    assert main(["verify", easy, "--fuzzy"]) == 0
    text = capsys.readouterr().out
    assert "optimum 0" in text
    assert "min bound" in text and "exp bound" in text
    assert "fuzzy optimum" in text

    act = Activity(1, 1, 5, ((0, 0), (1, 5)))
    res = Resource("r", (1,), 1, 1, (0,), (1,), (1,))
    rigged = write_instance(tmp_path / "rigged.json",
                            Instance(2, (act,), (), (res,)))
    assert main(["verify", rigged]) == 1
    assert "BOUND VIOLATION" in capsys.readouterr().err

    full = Resource("r", (1,), 0, 1, (1, 1), (1, 1), (1, 1))
    infeasible = write_instance(tmp_path / "infeasible.json",
                                Instance(2, (act,), (), (full,)))
    assert main(["verify", infeasible]) == 0
    assert "bounds pass vacuously" in capsys.readouterr().out

    assert main(["verify", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err

    lone = write_instance(tmp_path / "lone.json", Instance(2, (act,), (), ()))
    assert main(["verify", lone, "--fuzzy"]) == 0
    assert "fuzzy optimum undefined" in capsys.readouterr().out


def test_verify_cap_refusal(tmp_path, capsys):
    path = write_instance(tmp_path / "wide.json", clique(6, 6))
    assert main(["verify", path, "--cap", "100"]) == 1
    assert capsys.readouterr().err


def test_report_round_trip(easy, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert main(["solve", easy, "--out", str(sol)]) == 0
    assert main(["report", easy, str(sol)]) == 0
    text = capsys.readouterr().out
    assert "consistent" in text
    assert "% of enrollment" in text
    assert "worst per-activity violation" in text


def test_report_catches_tampering(easy, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    main(["solve", easy, "--out", str(sol)])
    doc = json.loads(sol.read_text())

    forged = dict(doc, cost=doc["cost"] + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(forged))
    assert main(["report", easy, str(bad)]) == 1

    doc["breakdown"]["violation_sum"] += 2
    bad.write_text(json.dumps(doc))
    assert main(["report", easy, str(bad)]) == 1

    stripped = json.loads(sol.read_text())
    stripped["assignment"] = stripped["assignment"][1:]
    bad.write_text(json.dumps(stripped))
    assert main(["report", easy, str(bad)]) == 1
    assert "misses activities" in capsys.readouterr().err

    for extra, message in (({"id": 7, "start": 0}, "unknown activities [7]"),
                           ({"id": 2, "start": 0}, "repeats activities [2]")):
        padded = json.loads(sol.read_text())
        padded["assignment"].append(extra)
        bad.write_text(json.dumps(padded))
        assert main(["report", easy, str(bad)]) == 1
        assert message in capsys.readouterr().err

    outside = json.loads(sol.read_text())
    outside["assignment"][0]["start"] = 99
    bad.write_text(json.dumps(outside))
    assert main(["report", easy, str(bad)]) == 1
    assert "activity 1 starts at 99, outside its domain" in capsys.readouterr().err

    # Two unit activities over slots 0-2: "rooms" holds one at a time, and
    # "staff" needs one of them at slot 1.  Neither forged file changes the
    # cost or the breakdown, so only the capacity audit can refuse it.
    acts = tuple(Activity(i, 1, 10, ((0, 0), (1, 0), (2, 0))) for i in (1, 2))
    rooms = Resource("rooms", (1, 2), 0, 2, (0, 0, 0), (1, 1, 1), (0, 0, 0))
    staff = Resource("staff", (1, 2), 1, 1, (1,), (2,), (1,))
    held = write_instance(tmp_path / "held.json",
                          Instance(3, acts, (), (rooms, staff)))
    assert main(["solve", held, "--out", str(sol)]) == 0
    for starts, message in (
            ((1, 1), "resource 'rooms' exceeds cap_max at slot 1"),
            ((0, 2), "resource 'staff' falls short of cap_min at slot 1")):
        forged = json.loads(sol.read_text())
        forged["assignment"] = [{"id": aid, "start": start}
                                for aid, start in zip((1, 2), starts)]
        bad.write_text(json.dumps(forged))
        assert main(["report", held, str(bad)]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("start", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("with_resource", [False, True],
                         ids=["no-resource", "resource"])
def test_report_refuses_a_start_that_is_not_an_integer(tmp_path, capsys, start,
                                                       with_resource):
    # 1.0 and true compare equal to slot 1, which is in every domain here
    acts = tuple(Activity(i, 1, 10, ((0, 0), (1, 0), (2, 0))) for i in (1, 2))
    resources = ((Resource("rooms", (1, 2), 0, 2, (0, 0, 0), (2, 2, 2),
                           (0, 0, 0)),) if with_resource else ())
    inst = write_instance(tmp_path / "inst.json",
                          Instance(3, acts, (), resources))
    sol = tmp_path / "sol.json"
    assert main(["solve", inst, "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["assignment"] = [{"id": 1, "start": start}, {"id": 2, "start": 0}]
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    assert (f"activity 1 starts at {start!r}, not an integer slot"
            in capsys.readouterr().err)


@pytest.mark.parametrize("index, forged", [(1, True), (0, 0.0)],
                         ids=["bool", "float"])
def test_report_refuses_an_id_that_is_not_an_integer(tmp_path, capsys, index,
                                                     forged):
    # true and 0.0 compare and hash like activities 1 and 0
    acts = tuple(Activity(i, 1, 10, ((0, 0), (1, 0), (2, 0))) for i in (0, 1))
    inst = write_instance(tmp_path / "inst.json", Instance(3, acts, (), ()))
    sol = tmp_path / "sol.json"
    assert main(["solve", inst, "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["assignment"][index]["id"] = forged
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    assert (f"solution names activity {forged!r}, not an integer id"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kind", [float, bool], ids=["float", "bool"])
@pytest.mark.parametrize("field", ["cost", "initial_cost_sum", "violation_sum",
                                   "id", "u"])
def test_report_refuses_a_figure_that_is_not_an_integer(tmp_path, capsys, field,
                                                        kind):
    # one forced collision: cost 1 = initial 0 + violations 1, and the first
    # per-activity entry is activity 1; 1.0 and true compare equal to 1
    inst = write_instance(tmp_path / "inst.json", clique(4, 3, weight=1))
    sol = tmp_path / "sol.json"
    assert main(["solve", inst, "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    assert (doc["cost"], doc["breakdown"]["violation_sum"]) == (1, 1)
    if field == "cost":
        owner, name = doc, "cost"
    elif field in ("id", "u"):
        owner, name = doc["breakdown"]["per_activity_u"][0], "per_activity_u"
    else:
        owner, name = doc["breakdown"], field
    owner[field] = forged = kind(owner[field])
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    text = json.dumps(forged)
    if name == "per_activity_u":
        text = f'"{field}": {text}'
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines
            if line.startswith(f"  {name}: stored ") and text in line]


def solved_doc(tmp_path):
    """generate(12, 3, 0.7, 1) solved to optimality, and its solution file."""
    inst = tmp_path / "inst.json"
    inst.write_bytes(serialize_instance(generate(12, 3, 0.7, 1)))
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--out", str(sol)]) == 0
    return str(inst), sol, json.loads(sol.read_text())


@pytest.mark.parametrize("key, forged", [
    ("violated_pct_initial", False),  # == 0.0, but JSON text false
    ("violated_pct_initial", 0),      # == 0.0, but JSON text 0
])
def test_report_compares_figures_by_json_text(tmp_path, capsys, key, forged):
    inst, sol, doc = solved_doc(tmp_path)
    assert doc["breakdown"][key] == forged  # the forgery hides from ==
    doc["breakdown"][key] = forged
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    assert (f"  {key}: stored {json.dumps(forged)}, recomputed"
            in capsys.readouterr().err)


def test_report_names_an_extra_or_missing_breakdown_key(tmp_path, capsys):
    inst, sol, doc = solved_doc(tmp_path)
    doc["breakdown"]["bonus"] = 0
    del doc["breakdown"]["fuzzy"]
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    err = capsys.readouterr().err
    assert "  bonus: stored 0, recomputed absent" in err
    assert "  fuzzy: stored absent, recomputed" in err


@pytest.mark.parametrize("forged", ["yes", 1, None], ids=["str", "int", "null"])
def test_report_refuses_an_optimal_flag_that_is_not_a_boolean(tmp_path, capsys,
                                                              forged):
    inst, sol, doc = solved_doc(tmp_path)
    doc["optimal"] = forged
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    assert (f"optimal is {forged!r}, not a boolean"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, forged, noun", [
    ("nodes", -5, "integer"), ("nodes", 3.0, "integer"),
    ("incumbents", True, "integer"), ("incumbents", None, "integer"),
    ("elapsed", -0.5, "number"), ("elapsed", "1", "number"),
    ("elapsed", float("nan"), "number"),
])
def test_report_refuses_stats_that_are_not_non_negative(tmp_path, capsys, key,
                                                         forged, noun):
    inst, sol, doc = solved_doc(tmp_path)
    if forged is None:
        del doc["stats"][key]
    else:
        doc["stats"][key] = forged
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 1
    assert (f"stats {key} is {forged!r}, not a non-negative {noun}"
            in capsys.readouterr().err)


def test_report_accepts_an_integer_elapsed_time(tmp_path, capsys):
    inst, sol, doc = solved_doc(tmp_path)
    doc["stats"]["elapsed"] = 0
    sol.write_text(json.dumps(doc))
    assert main(["report", inst, str(sol)]) == 0


def test_report_refuses_a_breakdown_that_is_not_an_object(easy, tmp_path,
                                                          capsys):
    sol = tmp_path / "sol.json"
    main(["solve", easy, "--out", str(sol)])
    doc = json.loads(sol.read_text())
    doc["breakdown"] = []
    sol.write_text(json.dumps(doc))
    assert main(["report", easy, str(sol)]) == 1
    assert "cannot read inputs" in capsys.readouterr().err


def test_report_refuses_a_solution_that_is_not_utf8(easy, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    sol.write_bytes(b'{"assignment": "\xff"}')
    assert main(["report", easy, str(sol)]) == 1
    assert "cannot read inputs" in capsys.readouterr().err


def test_module_entry_point_runs_as_subprocess(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "softsched.cli", "generate", "--courses", "8",
         "--rooms", "2", "--occupancy", "0.9"],
        capture_output=True)
    assert gen.returncode == 0
    path = tmp_path / "inst.json"
    path.write_bytes(gen.stdout)
    solved = subprocess.run(
        [sys.executable, "-m", "softsched.cli", "solve", str(path)],
        capture_output=True)
    assert solved.returncode in (0, 2)
    json.loads(solved.stdout)
