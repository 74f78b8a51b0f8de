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
ranks and sums the excesses for an explicit per-slot quota.  It reads each
member through one row built per call, a runnable flag and a covering
minimum per slot.  A unit-duration member's start grid already is its
covering grid, so its row holds the variable's own lists and nothing is
copied; a longer member's covering grid is built once per call.  Each slot
with a positive quota is then one comprehension over the rows.
:func:`slot_excess` is the same covering minimum for one slot and one
member, kept as the per-slot definition the kernel is tested against.  The
bound itself — quotas from the live occupancy, resources charged in turn
over one shared minimal-weight table — is
:func:`softsched.search.resource_bound`, the one function both search and
``verify_bound`` use.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
            trail.push_occupancy(counts, i, 1)
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
    live = var._live
    penalty = var._penalty
    best = None
    for s in range(max(t - duration + 1, 0), min(t + 1, len(live))):
        if live[s]:
            p = penalty[s]
            if best is None or p < best:
                best = p
    if best is None:
        return None
    return best - floor if best > floor else 0


def _covering_grid(var: PreferenceVariable,
                   duration: int) -> Tuple[List[bool], List[Optional[int]]]:
    """Per slot t, whether some live start covers t, and the cheapest one.

    A start s covers the slots s .. s+duration-1, so the grid runs
    ``duration - 1`` slots past the variable's own; its entry at t is what
    :func:`slot_excess` finds for t with a floor of 0, or None.
    """
    penalty = var._penalty
    cover: List[Optional[int]] = [None] * (len(var._live) + duration - 1)
    for s, alive in enumerate(var._live):
        if alive:
            p = penalty[s]
            for t in range(s, s + duration):
                c = cover[t]
                if c is None or p < c:
                    cover[t] = p
    return [c is not None for c in cover], cover


def contribution_with_quota(
    resource: Resource,
    instance: Instance,
    variables: Mapping[int, PreferenceVariable],
    table: Mapping[int, int],
    quota: Sequence[int],
    members: Optional[Iterable[int]] = None,
) -> Tuple[Fraction, Dict[int, Fraction]]:
    """Per-slot smallest-excess selection over an explicit quota.

    ``quota`` gives, per window slot, how many members must execute there.
    For every slot with positive quota the runnable members' excess/duration
    ratios are sorted ascending (ties by activity id) and the first
    ``quota[t]`` are summed.  Returns the exact rational total plus each
    activity's selected share.  Raises :class:`ResourceInfeasible` when a
    slot has fewer runnable members than its quota.

    Each member is read through one row built per call: its runnable flags
    and covering minima (the variable's own lists for a unit member,
    :func:`_covering_grid` for a longer one), grid length, lcm weight,
    floor and id.  The ratios are ranked and summed as integers scaled by
    the lcm of the member durations, which keeps them exact; only the
    returned total and shares are built as fractions.
    """
    if members is None:
        members = resource.members
    info = [(aid, variables[aid], instance.activity(aid).duration)
            for aid in members]
    scale = math.lcm(*(dur for _aid, _var, dur in info))
    rows = []
    for aid, var, dur in info:
        if dur == 1:
            live, cover = var._live, var._penalty
        else:
            live, cover = _covering_grid(var, dur)
        rows.append((live, cover, len(live), scale // dur, table[aid], aid))
    total = 0
    selected: Dict[int, int] = {}
    for offset, need in enumerate(quota):
        if need <= 0:
            continue
        t = resource.t_min + offset
        ratios = [((c - floor) * weight if (c := cover[t]) > floor else 0, aid)
                  for live, cover, n, weight, floor, aid in rows
                  if t < n and live[t]]
        if len(ratios) < need:
            raise ResourceInfeasible(resource.name, t, need, len(ratios))
        ratios.sort()
        for ratio, aid in ratios[:need]:
            if ratio:
                total += ratio
                selected[aid] = selected.get(aid, 0) + ratio
    return (Fraction(total, scale),
            {aid: Fraction(share, scale) for aid, share in selected.items()})
