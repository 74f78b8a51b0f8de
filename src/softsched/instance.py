"""Problem model and the JSON instance format (``format: 1``).

An instance bundles a slot horizon, activities (start-time domains with
initial costs), weighted soft non-overlap pairs, and discrete-capacity
resources.  Parsing is strict: unknown fields, dangling identifiers,
horizon violations and slot grids beyond :data:`MAX_GRID_SLOTS` are
rejected with distinct error codes, and duplicate soft pairs are merged by
summing their weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple, Union

FORMAT_VERSION = 1

#: Largest total slot grid an instance may need: the sum over activities of
#: (latest start + 1).  Each variable stores two lists as long as its grid,
#: its penalties and initial costs, and an assigned one also the one-hot
#: penalty list it holds while its trail record keeps the replaced one: about
#: 24 bytes per slot in all (tracemalloc, 64-bit CPython 3.11), so this caps
#: that storage near 48 MB.
MAX_GRID_SLOTS = 2_000_000

# Error codes carried by InstanceError.
BAD_SYNTAX = "bad-syntax"
BAD_FORMAT = "bad-format"
MISSING_FIELD = "missing-field"
UNKNOWN_FIELD = "unknown-field"
BAD_TYPE = "bad-type"
BAD_VALUE = "bad-value"
DUPLICATE_ID = "duplicate-id"
DANGLING_ID = "dangling-id"
HORIZON_OVERRUN = "horizon-overrun"
BAD_CAPACITY = "bad-capacity"
GRID_TOO_LARGE = "grid-too-large"


class InstanceError(ValueError):
    """Instance rejected; ``code`` classifies the failure, ``where`` locates it."""

    def __init__(self, code: str, where: str, message: str):
        super().__init__(f"{where}: {message} [{code}]")
        self.code = code
        self.where = where


@dataclass(frozen=True)
class Activity:
    """A schedulable unit: one start variable, constant duration, enrollment count.

    ``domain`` holds (slot, initial_cost) pairs in ascending slot order;
    cost 0 marks a fully preferred start.
    """

    id: int
    duration: int
    enrollment: int
    domain: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class SoftPair:
    """Weighted preference that activities ``a`` and ``b`` not overlap."""

    a: int
    b: int
    weight: int


@dataclass(frozen=True)
class Resource:
    """Discrete-capacity pool over an inclusive slot window.

    Per-slot arrays give the minimal required, maximal allowed, and expected
    occupancy by member activities; all three have length t_max - t_min + 1
    and satisfy cap_min <= cap_exp <= cap_max pointwise.
    """

    name: str
    members: Tuple[int, ...]
    t_min: int
    t_max: int
    cap_min: Tuple[int, ...]
    cap_max: Tuple[int, ...]
    cap_exp: Tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """A whole problem; however it is built, grids past :data:`MAX_GRID_SLOTS` are refused."""

    horizon: int
    activities: Tuple[Activity, ...]
    pairs: Tuple[SoftPair, ...]
    resources: Tuple[Resource, ...]

    def __post_init__(self):
        # (slot, cost) pairs order by slot first, so max() gives the latest start
        grid = sum(max(a.domain, default=(-1,))[0] + 1 for a in self.activities)
        if grid > MAX_GRID_SLOTS:
            raise InstanceError(GRID_TOO_LARGE, "instance", f"activities need {grid} "
                                f"grid slots, more than the limit of {MAX_GRID_SLOTS}")

    @cached_property
    def by_id(self) -> Dict[int, Activity]:
        return {a.id: a for a in self.activities}

    @cached_property
    def incident(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Per activity: the (neighbor id, weight) arcs of its soft pairs."""
        arcs: Dict[int, List[Tuple[int, int]]] = {a.id: [] for a in self.activities}
        for p in self.pairs:
            arcs[p.a].append((p.b, p.weight))
            arcs[p.b].append((p.a, p.weight))
        return {aid: tuple(lst) for aid, lst in arcs.items()}

    @cached_property
    def total_weight(self) -> int:
        return sum(p.weight for p in self.pairs)

    def activity(self, aid: int) -> Activity:
        return self.by_id[aid]


# ---------------------------------------------------------------------------
# strict JSON parsing

_ACTIVITY_FIELDS = {"id", "duration", "enrollment", "domain"}
_PAIR_FIELDS = {"a", "b", "weight"}
_RESOURCE_FIELDS = {"name", "members", "t_min", "t_max", "cap_min", "cap_max", "cap_exp"}
_TOP_FIELDS = {"format", "horizon", "activities", "soft_disjunctive", "resources"}


def _want_object(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise InstanceError(BAD_TYPE, where, f"expected an object, got {type(node).__name__}")
    return node


def _want_list(node, where: str) -> list:
    if not isinstance(node, list):
        raise InstanceError(BAD_TYPE, where, f"expected an array, got {type(node).__name__}")
    return node


def _check_fields(obj: dict, fields: set, where: str) -> None:
    for key in obj:
        if key not in fields:
            raise InstanceError(UNKNOWN_FIELD, f"{where}.{key}", "unknown field")
    if len(obj) < len(fields):  # every key is known, so one field is missing
        # The first missing one in sorted order: set order follows the hash seed.
        key = min(key for key in fields if key not in obj)
        raise InstanceError(MISSING_FIELD, where, f"missing field '{key}'")


def _want_int(node, where: str, minimum: int = None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise InstanceError(BAD_TYPE, where, f"expected an integer, got {type(node).__name__}")
    if minimum is not None and node < minimum:
        raise InstanceError(BAD_VALUE, where, f"must be >= {minimum}, got {node}")
    return node


def parse_instance(data: Union[bytes, str]) -> Instance:
    """Parse and validate an instance file; raises :class:`InstanceError`."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InstanceError(BAD_SYNTAX, "<file>", f"not valid UTF-8 ({exc.reason})") from None
    else:
        text = data
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(BAD_SYNTAX, f"line {exc.lineno} column {exc.colno}", exc.msg) from None

    root = _want_object(root, "$")
    _check_fields(root, _TOP_FIELDS, "$")
    # true == 1 and 1.0 == 1 in Python, so the type is checked first
    if type(root["format"]) is not int or root["format"] != FORMAT_VERSION:
        raise InstanceError(BAD_FORMAT, "$.format", f"unsupported format {root['format']!r}")
    horizon = _want_int(root["horizon"], "$.horizon", minimum=1)

    activities: List[Activity] = []
    seen_ids = set()
    grid = 0  # slots of every variable's grid so far, see MAX_GRID_SLOTS
    for idx, node in enumerate(_want_list(root["activities"], "$.activities")):
        where = f"$.activities[{idx}]"
        obj = _want_object(node, where)
        _check_fields(obj, _ACTIVITY_FIELDS, where)
        aid = _want_int(obj["id"], f"{where}.id", minimum=0)
        if aid in seen_ids:
            raise InstanceError(DUPLICATE_ID, f"{where}.id", f"activity id {aid} repeated")
        seen_ids.add(aid)
        duration = _want_int(obj["duration"], f"{where}.duration", minimum=1)
        enrollment = _want_int(obj["enrollment"], f"{where}.enrollment", minimum=0)
        slots = set()
        domain: List[Tuple[int, int]] = []
        entries = _want_list(obj["domain"], f"{where}.domain")
        if not entries:
            raise InstanceError(BAD_VALUE, f"{where}.domain", "domain must not be empty")
        for j, pair in enumerate(entries):
            pw = f"{where}.domain[{j}]"
            pair = _want_list(pair, pw)
            if len(pair) != 2:
                raise InstanceError(BAD_TYPE, pw, "expected a [slot, cost] pair")
            slot = _want_int(pair[0], f"{pw}[0]", minimum=0)
            cost = _want_int(pair[1], f"{pw}[1]", minimum=0)
            if slot in slots:
                raise InstanceError(BAD_VALUE, pw, f"slot {slot} repeated in domain")
            if slot + duration > horizon:
                raise InstanceError(
                    HORIZON_OVERRUN, pw,
                    f"start {slot} with duration {duration} exceeds horizon {horizon}")
            slots.add(slot)
            domain.append((slot, cost))
        domain.sort()
        grid += domain[-1][0] + 1
        if grid > MAX_GRID_SLOTS:
            raise InstanceError(
                GRID_TOO_LARGE, f"{where}.domain",
                f"activities up to here need {grid} grid slots, "
                f"more than the limit of {MAX_GRID_SLOTS}")
        activities.append(Activity(aid, duration, enrollment, tuple(domain)))
    activities.sort(key=lambda a: a.id)

    merged: Dict[Tuple[int, int], int] = {}
    for idx, node in enumerate(_want_list(root["soft_disjunctive"], "$.soft_disjunctive")):
        where = f"$.soft_disjunctive[{idx}]"
        obj = _want_object(node, where)
        _check_fields(obj, _PAIR_FIELDS, where)
        a = _want_int(obj["a"], f"{where}.a")
        b = _want_int(obj["b"], f"{where}.b")
        weight = _want_int(obj["weight"], f"{where}.weight", minimum=1)
        if a == b:
            raise InstanceError(BAD_VALUE, where, f"pair joins activity {a} with itself")
        for endpoint, key in ((a, "a"), (b, "b")):
            if endpoint not in seen_ids:
                raise InstanceError(DANGLING_ID, f"{where}.{key}",
                                    f"unknown activity {endpoint}")
        lo, hi = (a, b) if a < b else (b, a)
        merged[(lo, hi)] = merged.get((lo, hi), 0) + weight
    pairs = tuple(SoftPair(a, b, w) for (a, b), w in sorted(merged.items()))

    resources: List[Resource] = []
    for idx, node in enumerate(_want_list(root["resources"], "$.resources")):
        where = f"$.resources[{idx}]"
        obj = _want_object(node, where)
        _check_fields(obj, _RESOURCE_FIELDS, where)
        name = obj["name"]
        if not isinstance(name, str):
            raise InstanceError(BAD_TYPE, f"{where}.name", "expected a string")
        members: List[int] = []
        seen_members = set()
        for j, m in enumerate(_want_list(obj["members"], f"{where}.members")):
            mid = _want_int(m, f"{where}.members[{j}]")
            if mid not in seen_ids:
                raise InstanceError(DANGLING_ID, f"{where}.members[{j}]",
                                    f"unknown activity {mid}")
            if mid in seen_members:
                raise InstanceError(DUPLICATE_ID, f"{where}.members[{j}]",
                                    f"member {mid} repeated")
            seen_members.add(mid)
            members.append(mid)
        t_min = _want_int(obj["t_min"], f"{where}.t_min", minimum=0)
        t_max = _want_int(obj["t_max"], f"{where}.t_max", minimum=t_min)
        if t_max >= horizon:
            raise InstanceError(HORIZON_OVERRUN, f"{where}.t_max",
                                f"t_max {t_max} exceeds horizon {horizon}")
        width = t_max - t_min + 1
        caps = {}
        for key in ("cap_min", "cap_max", "cap_exp"):
            arr = _want_list(obj[key], f"{where}.{key}")
            if len(arr) != width:
                raise InstanceError(BAD_CAPACITY, f"{where}.{key}",
                                    f"expected {width} entries, got {len(arr)}")
            caps[key] = tuple(_want_int(v, f"{where}.{key}[{j}]", minimum=0)
                              for j, v in enumerate(arr))
        for t in range(width):
            if not caps["cap_min"][t] <= caps["cap_exp"][t] <= caps["cap_max"][t]:
                raise InstanceError(
                    BAD_CAPACITY, f"{where}.cap_exp[{t}]",
                    "capacities must satisfy cap_min <= cap_exp <= cap_max")
        resources.append(Resource(name, tuple(members), t_min, t_max,
                                  caps["cap_min"], caps["cap_max"], caps["cap_exp"]))

    return Instance(horizon, tuple(activities), pairs, tuple(resources))


def serialize_instance(instance: Instance) -> bytes:
    """Deterministic UTF-8 JSON; parse(serialize(x)) == x."""
    doc = {
        "format": FORMAT_VERSION,
        "horizon": instance.horizon,
        "activities": [
            {"id": a.id, "duration": a.duration, "enrollment": a.enrollment,
             "domain": [[slot, cost] for slot, cost in a.domain]}
            for a in instance.activities
        ],
        "soft_disjunctive": [
            {"a": p.a, "b": p.b, "weight": p.weight} for p in instance.pairs
        ],
        "resources": [
            {"name": r.name, "members": list(r.members),
             "t_min": r.t_min, "t_max": r.t_max,
             "cap_min": list(r.cap_min), "cap_max": list(r.cap_max),
             "cap_exp": list(r.cap_exp)}
            for r in instance.resources
        ],
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")
