"""Instance file format: parsing, validation codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import softsched
from softsched import (
    Activity, Instance, InstanceError, Resource, SoftPair, parse_instance,
)
from softsched.instance import MAX_GRID_SLOTS, serialize_instance


def doc(**overrides):
    base = {
        "format": 1,
        "horizon": 4,
        "activities": [
            {"id": 1, "duration": 2, "enrollment": 12,
             "domain": [[0, 0], [2, 3]]},
            {"id": 2, "duration": 1, "enrollment": 7,
             "domain": [[0, 1], [1, 0], [3, 0]]},
        ],
        "soft_disjunctive": [{"a": 1, "b": 2, "weight": 4}],
        "resources": [
            {"name": "rooms", "members": [1, 2], "t_min": 0, "t_max": 3,
             "cap_min": [0, 0, 0, 0], "cap_max": [2, 2, 2, 2],
             "cap_exp": [0, 0, 0, 0]},
        ],
    }
    base.update(overrides)
    return base


def parse(d):
    return parse_instance(json.dumps(d))


def code_of(d):
    with pytest.raises(InstanceError) as exc:
        parse(d)
    return exc.value.code


def test_happy_path():
    inst = parse(doc())
    assert inst.horizon == 4
    assert [a.id for a in inst.activities] == [1, 2]
    assert inst.activity(1).domain == ((0, 0), (2, 3))
    assert inst.pairs == (SoftPair(1, 2, 4),)
    assert inst.resources[0].name == "rooms"
    assert inst.total_weight == 4
    assert inst.incident[2] == ((1, 4),)


def test_syntax_and_format_errors():
    with pytest.raises(InstanceError) as exc:
        parse_instance("{not json")
    assert exc.value.code == "bad-syntax"
    assert parse_instance(json.dumps(doc()).encode()) == parse(doc())
    with pytest.raises(InstanceError) as exc:
        parse_instance(b"\xff\xfe")
    assert exc.value.code == "bad-syntax"
    assert code_of(doc(format=2)) == "bad-format"
    assert code_of(doc(format=True)) == "bad-format"
    assert code_of(doc(format=1.0)) == "bad-format"


def test_field_presence_is_strict():
    d = doc()
    del d["horizon"]
    assert code_of(d) == "missing-field"
    assert code_of(doc(comment="hi")) == "unknown-field"
    d = doc()
    del d["activities"][0]["enrollment"]
    assert code_of(d) == "missing-field"
    d = doc()
    d["soft_disjunctive"][0]["note"] = "x"
    assert code_of(d) == "unknown-field"


def test_missing_field_message_does_not_depend_on_hash_seed():
    """Fields are checked in sorted order, so a document missing several of
    them names the same one under every string hash seed."""
    src = str(Path(softsched.__file__).resolve().parent.parent)
    script = ("from softsched import parse_instance\n"
              "try:\n"
              "    parse_instance(b'{\"format\": 1}')\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    messages = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        messages.add(out.stdout)
    assert messages == {"$: missing field 'activities' [missing-field]\n"}


def test_type_errors_reject_booleans():
    assert code_of(doc(horizon="4")) == "bad-type"
    assert code_of(doc(horizon=True)) == "bad-type"
    assert code_of(doc(activities={})) == "bad-type"
    with pytest.raises(InstanceError) as exc:
        parse_instance("[]")
    assert exc.value.code == "bad-type"
    assert code_of(doc(activities=[[1, 2, 12]])) == "bad-type"
    d = doc()
    d["activities"][0]["domain"] = [[0]]
    assert code_of(d) == "bad-type"
    d = doc()
    d["resources"][0]["name"] = 3
    assert code_of(d) == "bad-type"


def test_value_errors():
    assert code_of(doc(horizon=0)) == "bad-value"
    d = doc()
    d["activities"][0]["duration"] = 0
    assert code_of(d) == "bad-value"
    d = doc()
    d["activities"][1]["domain"] = []
    assert code_of(d) == "bad-value"
    d = doc()
    d["activities"][1]["domain"] = [[0, 0], [0, 2]]
    assert code_of(d) == "bad-value"
    d = doc()
    d["soft_disjunctive"][0]["weight"] = 0
    assert code_of(d) == "bad-value"
    d = doc()
    d["soft_disjunctive"][0]["b"] = 1
    assert code_of(d) == "bad-value"


def test_id_errors():
    d = doc()
    d["activities"][1]["id"] = 1
    assert code_of(d) == "duplicate-id"
    d = doc()
    d["soft_disjunctive"][0]["b"] = 9
    assert code_of(d) == "dangling-id"
    d = doc()
    d["resources"][0]["members"] = [1, 9]
    assert code_of(d) == "dangling-id"
    d = doc()
    d["resources"][0]["members"] = [1, 1]
    assert code_of(d) == "duplicate-id"


def test_horizon_errors():
    d = doc()
    d["activities"][0]["domain"] = [[3, 0]]  # start 3 + duration 2 > horizon 4
    assert code_of(d) == "horizon-overrun"
    d = doc()
    d["resources"][0]["t_max"] = 4
    assert code_of(d) == "horizon-overrun"


def test_grid_limit():
    # grids of (latest start + 1) slots: activity 2 needs 4 of the budget
    d = doc(horizon=MAX_GRID_SLOTS + 2)
    d["activities"][0]["domain"] = [[MAX_GRID_SLOTS - 5, 0]]
    parse(d)  # exactly the budget
    d["activities"][0]["domain"] = [[MAX_GRID_SLOTS - 4, 0]]
    with pytest.raises(InstanceError) as exc:
        parse(d)
    assert exc.value.code == "grid-too-large"
    assert exc.value.where == "$.activities[1].domain"
    d["activities"][0]["domain"] = [[MAX_GRID_SLOTS, 0]]
    with pytest.raises(InstanceError) as exc:
        parse(d)
    assert exc.value.where == "$.activities[0].domain"


def test_grid_limit_holds_for_an_instance_built_in_process():
    # refused when built, before any solver allocates a grid
    with pytest.raises(InstanceError) as exc:
        Instance(10**9, (Activity(0, 1, 0, ((10**9 - 1, 0),)),), (), ())
    assert exc.value.code == "grid-too-large"
    acts = (Activity(0, 1, 0, ((MAX_GRID_SLOTS - 2, 0), (0, 0))),
            Activity(1, 1, 0, ((0, 0),)))
    Instance(MAX_GRID_SLOTS, acts, (), ())  # exactly the budget, any order
    with pytest.raises(InstanceError):
        Instance(MAX_GRID_SLOTS, acts + (Activity(2, 1, 0, ((0, 0),)),), (), ())
    Instance(1, (Activity(0, 1, 0, ()),), (), ())  # an empty domain needs no grid


def test_capacity_errors():
    d = doc()
    d["resources"][0]["cap_max"] = [2, 2]
    assert code_of(d) == "bad-capacity"
    d = doc()
    d["resources"][0]["cap_min"] = [1, 0, 0, 0]
    assert code_of(d) == "bad-capacity"  # cap_min > cap_exp at slot 0
    d = doc()
    d["resources"][0]["cap_exp"] = [3, 0, 0, 0]
    assert code_of(d) == "bad-capacity"  # cap_exp > cap_max at slot 0


def test_error_carries_location():
    d = doc()
    d["activities"][1]["domain"] = [[0, 0], [0, 2]]
    with pytest.raises(InstanceError) as exc:
        parse(d)
    assert "$.activities[1].domain" in exc.value.where
    assert exc.value.code in str(exc.value)


def test_parallel_pairs_merge_and_normalize():
    d = doc(soft_disjunctive=[{"a": 1, "b": 2, "weight": 2},
                              {"a": 2, "b": 1, "weight": 3}])
    inst = parse(d)
    assert inst.pairs == (SoftPair(1, 2, 5),)
    assert inst.total_weight == 5


def test_activities_sorted_by_id():
    d = doc()
    d["activities"].reverse()
    inst = parse(d)
    assert [a.id for a in inst.activities] == [1, 2]


def test_round_trip_and_stability():
    inst = parse(doc())
    blob = serialize_instance(inst)
    again = parse_instance(blob)
    assert again == inst
    assert serialize_instance(again) == blob
    assert blob.endswith(b"\n")


@st.composite
def instances(draw):
    horizon = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=4))
    acts = []
    for i in range(n):
        dur = draw(st.integers(min_value=1, max_value=horizon))
        starts = draw(st.lists(st.integers(min_value=0, max_value=horizon - dur),
                               min_size=1, max_size=3, unique=True))
        dom = tuple(sorted((s, draw(st.integers(min_value=0, max_value=9)))
                           for s in starts))
        acts.append(Activity(i, dur, draw(st.integers(min_value=0, max_value=30)), dom))
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                pairs.append(SoftPair(a, b, draw(st.integers(min_value=1, max_value=9))))
    resources = []
    if draw(st.booleans()):
        t_min = draw(st.integers(min_value=0, max_value=horizon - 1))
        t_max = draw(st.integers(min_value=t_min, max_value=horizon - 1))
        width = t_max - t_min + 1
        cap_max = tuple(draw(st.integers(min_value=0, max_value=n)) for _ in range(width))
        cap_exp = tuple(draw(st.integers(min_value=0, max_value=cap_max[t]))
                        for t in range(width))
        cap_min = tuple(draw(st.integers(min_value=0, max_value=cap_exp[t]))
                        for t in range(width))
        resources.append(Resource("r", tuple(range(n)), t_min, t_max,
                                  cap_min, cap_max, cap_exp))
    return Instance(horizon, tuple(acts), tuple(pairs), tuple(resources))


@given(instances())
@settings(max_examples=50)
def test_serialize_parse_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst
