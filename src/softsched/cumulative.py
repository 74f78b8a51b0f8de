"""Discrete-capacity resources: hard occupancy checks and penalty lower bounds.

A resource is a pool (think classrooms) over an inclusive slot window with
per-slot minimal, maximal and expected occupancy by its member activities.
The hard side is plain counting: occupancy may never exceed ``cap_max`` and,
once every member is placed, must reach ``cap_min``.  :class:`Occupancy`
holds that count for one resource and is the only code that decides which
window slots a placed member covers: search places members on it as it
assigns them, and ``softsched report`` places a whole solution on it.

The soft side turns the same windows into a lower bound on penalty.  If at
least ``c`` members must execute at slot t, each of them pays at least its
cheapest live start covering t (a start before the window counts when the
activity runs into it); summing the ``c`` smallest such excesses (scaled
by 1/duration, since an activity spans several slots) over all slots yields
a bound no feasible completion can beat.  MIN mode uses ``cap_min`` as the
per-slot count; EXP mode uses ``cap_exp`` and is the stronger bound — but it
is only valid when ``cap_exp`` genuinely understates the occupancy of every
feasible schedule, which is the caller's modelling obligation.

This module holds the per-resource step: :func:`contribution_with_quota`
ranks and sums the excesses for an explicit per-slot quota.  What the
bound reads of a resource that stays fixed through a solve — the declared
row its mode charges, each member's variable, duration, integer weight and
tie rank, and the lcm of the durations — is a :class:`ResourceLayout`,
built once per solve.  Per call the step reads each unassigned member
through one row of live state, a covering grid holding per slot the
cheapest live start that covers it, or None where none does.  A
unit-duration member's penalty list already is its covering grid, so its
row holds the variable's own list and nothing is copied; a longer member's
covering grid is built per call.  Each slot with a positive quota is then
one comprehension over the rows, ranking one integer key per member that
can run there.  :func:`slot_excess` is the same covering minimum for one
slot and one member, kept as the per-slot definition the kernel is tested
against.  The bound itself — quotas from the live occupancy, resources
charged in turn, each charged share raising its member's floor for the
next — is :func:`softsched.search.resource_bound`, the one
implementation: search evaluates its layouts at every node, and
``verify_bound`` checks it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import PreferenceVariable, SchedulingError, Trail
from .instance import Instance, Resource


class BoundMode(Enum):
    NONE = "none"
    MIN = "min"
    EXP = "exp"


class ResourceInfeasible(SchedulingError):
    """A slot demands more runnable members than currently exist."""

    def __init__(self, resource: str, slot: int, needed: int, runnable: int):
        super().__init__(
            f"resource {resource!r} needs {needed} activities at slot {slot}, "
            f"only {runnable} can run there")
        self.resource = resource
        self.slot = slot
        self.needed = needed
        self.runnable = runnable


class CapacityOverflow(SchedulingError):
    """Placing a member pushed a resource past ``cap_max`` at ``slot``."""

    def __init__(self, resource: str, slot: int):
        super().__init__(f"resource {resource!r} exceeds cap_max at slot {slot}")
        self.resource = resource
        self.slot = slot


# ---------------------------------------------------------------------------
# hard side: per-slot occupancy


class Occupancy:
    """Per-slot member counts of one resource, bumped through a trail.

    ``counts[i]`` is how many placed members execute at slot ``t_min + i``.
    A member id repeated in ``resource.members`` is placed once per copy.
    """

    __slots__ = ("resource", "counts")

    def __init__(self, resource: Resource):
        self.resource = resource
        self.counts = [0] * (resource.t_max - resource.t_min + 1)

    def place(self, start: int, duration: int, trail: Trail) -> None:
        """Count a member started at ``start`` at every window slot it covers.

        Each bump is one trail record, so undoing the trail unplaces it.
        Raises :class:`CapacityOverflow` at the first slot past ``cap_max``.
        """
        r = self.resource
        counts = self.counts
        cap_max = r.cap_max
        for i in range(max(start, r.t_min) - r.t_min,
                       min(start + duration - 1, r.t_max) - r.t_min + 1):
            counts[i] += 1
            trail.push_occupancy(counts, i)
            if counts[i] > cap_max[i]:
                raise CapacityOverflow(r.name, r.t_min + i)

    def deficit_slot(self) -> Optional[int]:
        """First slot whose count is below ``cap_min``, or None."""
        cap_min = self.resource.cap_min
        for i, count in enumerate(self.counts):
            if count < cap_min[i]:
                return self.resource.t_min + i
        return None


# ---------------------------------------------------------------------------
# soft side: lower bound


def slot_excess(t: int, var: PreferenceVariable, duration: int,
                floor: int) -> Optional[int]:
    """Extra penalty the activity must pay, beyond ``floor``, to execute at t.

    Considers the live starts s with t-duration+1 <= s <= t: exactly those
    putting the activity in execution at t, wherever the resource window
    begins.  Returns None when no such start is live, otherwise
    max(0, cheapest covering penalty - floor).
    """
    penalty = var._penalty
    best = None
    for s in range(max(t - duration + 1, 0), min(t + 1, len(penalty))):
        p = penalty[s]
        if p is not None and (best is None or p < best):
            best = p
    if best is None:
        return None
    return best - floor if best > floor else 0


def _covering_grid(var: PreferenceVariable, duration: int) -> List[Optional[int]]:
    """Per slot t, the cheapest live start covering t, or None if none does.

    A start s covers the slots s .. s+duration-1, so the grid runs
    ``duration - 1`` slots past the variable's own; its entry at t is what
    :func:`slot_excess` finds for t with a floor of 0.
    """
    penalty = var._penalty
    cover: List[Optional[int]] = [None] * (len(penalty) + duration - 1)
    for s, p in enumerate(penalty):
        if p is not None:
            for t in range(s, s + duration):
                c = cover[t]
                if c is None or p < c:
                    cover[t] = p
    return cover


class ResourceLayout:
    """What the bound reads of one resource that stays fixed through a solve.

    ``declared`` is the per-slot occupancy the bound ``mode`` charges:
    ``cap_min`` in MIN mode, ``cap_exp`` in EXP mode; NONE charges nothing
    and raises KeyError.  ``members`` holds one entry per member copy (an
    id repeated in ``resource.members`` gets one per copy): its variable,
    id, duration, covering-grid length, integer weight and tie rank.
    ``scale`` is the lcm of the member durations, and a member's ratio
    excess/duration is ``excess * (scale // duration)`` in units of
    ``1 / scale``.  ``ids`` are the distinct member ids ascending, and a
    member's rank is the index of its id there, so ``ratio * len(ids) +
    rank`` orders members by ratio and then by id, whatever the ids are;
    the weight is ``(scale // duration) * len(ids)``.  Per call only live
    state is read: the penalty list and cached cheapest penalty of each
    unassigned variable.  An unassigned variable holds its own list (an
    assignment swaps in a one-hot list of the same length, and backtracking
    puts the old one back), so the grid lengths recorded here stay valid.
    """

    __slots__ = ("resource", "declared", "scale", "ids", "members")

    def __init__(self, resource: Resource, instance: Instance,
                 variables: Mapping[int, PreferenceVariable], mode: BoundMode):
        durations = [instance.by_id[aid].duration for aid in resource.members]
        ids = sorted(set(resource.members))
        rank = {aid: i for i, aid in enumerate(ids)}
        scale = math.lcm(*durations)
        self.resource = resource
        self.declared = {BoundMode.MIN: resource.cap_min,
                         BoundMode.EXP: resource.cap_exp}[mode]
        self.scale = scale
        self.ids = ids
        self.members = [
            (variables[aid], aid, dur, len(variables[aid]._penalty) + dur - 1,
             scale // dur * len(ids), rank[aid])
            for aid, dur in zip(resource.members, durations)]


def contribution_with_quota(
    layout: ResourceLayout,
    quota: Sequence[int],
    carry: Optional[Mapping[int, int]] = None,
) -> Tuple[int, Dict[int, int]]:
    """Per-slot smallest-excess selection over an explicit quota.

    ``quota`` gives, per window slot, how many unassigned members must
    execute there.  A member's floor is its cheapest live penalty plus its
    entry in ``carry``, if any.  For every slot with positive quota the
    excess/duration ratios of the members that can run there are sorted
    ascending (ties by activity id) and the first ``quota[t]`` are summed.  Returns the total
    plus each activity's selected share, as integers in units of
    ``1 / layout.scale``.  Raises :class:`ResourceInfeasible` when a slot
    has fewer members that can run there than its quota.

    Each unassigned member is read through one row built per call: its
    covering grid (the variable's own penalty list for a unit member,
    :func:`_covering_grid` for a longer one), grid length, weight, floor and
    rank.  Each slot then ranks one integer key per member whose grid entry
    there is not None, ``ratio * len(layout.ids) + rank``.
    """
    rows = [(var._penalty if dur == 1 else _covering_grid(var, dur), n, weight,
             var._min_pen + carry.get(aid, 0) if carry else var._min_pen, rank)
            for var, aid, dur, n, weight, rank in layout.members
            if var.assignment is None]
    count = len(layout.ids)
    t_min = layout.resource.t_min
    total = 0
    selected: Dict[int, int] = {}
    for offset, need in enumerate(quota):
        if need <= 0:
            continue
        t = t_min + offset
        keys = [(c - floor) * weight + rank if c > floor else rank
                for cover, n, weight, floor, rank in rows
                if t < n and (c := cover[t]) is not None]
        if len(keys) < need:
            raise ResourceInfeasible(layout.resource.name, t, need, len(keys))
        keys.sort()
        # keys below ``count`` carry a zero ratio and add nothing
        for key in keys[bisect_left(keys, count, 0, need):need]:
            ratio, rank = divmod(key, count)
            total += ratio
            selected[rank] = selected.get(rank, 0) + ratio
    ids = layout.ids
    return total, {ids[rank]: share for rank, share in selected.items()}
