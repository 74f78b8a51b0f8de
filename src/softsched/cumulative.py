"""Discrete-capacity resources: hard occupancy checks and penalty lower bounds.

A resource is a pool (think classrooms) over an inclusive slot window with
per-slot minimal, maximal and expected occupancy by its member activities.
The hard side is plain counting: occupancy may never exceed ``cap_max`` and,
once every member is placed, must reach ``cap_min``.

The soft side turns the same windows into a lower bound on penalty.  If at
least ``c`` members must execute at slot t, each of them pays at least its
cheapest start covering t; summing the ``c`` smallest such excesses (scaled
by 1/duration, since an activity spans several slots) over all slots yields
a bound no feasible completion can beat.  MIN mode uses ``cap_min`` as the
per-slot count; EXP mode uses ``cap_exp`` and is the stronger bound — but it
is only valid when ``cap_exp`` genuinely understates the occupancy of every
feasible schedule, which is the caller's modelling obligation.

This module holds the per-resource step: :func:`contribution_with_quota`
ranks and sums the excesses for an explicit per-slot quota.  The bound
itself — quotas from the live occupancy, resources charged in turn over one
shared minimal-weight table — is :func:`softsched.search.resource_bound`,
the one function both search and ``verify_bound`` use.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import PreferenceVariable, SchedulingError
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


class _NotRunnable:
    __slots__ = ()

    def __repr__(self):
        return "NOT_RUNNABLE"


#: Sentinel returned by :func:`slot_excess` when no live start covers the slot.
NOT_RUNNABLE = _NotRunnable()


# ---------------------------------------------------------------------------
# hard checks (pure counting over an assignment mapping)


def _occupancy(resource: Resource, instance: Instance,
               assignment: Mapping[int, int], complete: bool) -> List[int]:
    width = resource.t_max - resource.t_min + 1
    occ = [0] * width
    for aid in resource.members:
        if not complete and aid not in assignment:
            continue
        start = assignment[aid]
        dur = instance.activity(aid).duration
        lo = max(start, resource.t_min)
        hi = min(start + dur - 1, resource.t_max)
        for t in range(lo, hi + 1):
            occ[t - resource.t_min] += 1
    return occ


def check_cumulative_max(resource: Resource, instance: Instance,
                         assignment: Mapping[int, int]) -> Optional[int]:
    """First slot where assigned members exceed cap_max, or None if within caps.

    Partial assignments are fine; unassigned members simply do not count.
    A member id repeated in ``resource.members`` occupies one unit per copy.
    """
    occ = _occupancy(resource, instance, assignment, complete=False)
    for idx, count in enumerate(occ):
        if count > resource.cap_max[idx]:
            return resource.t_min + idx
    return None


def check_atleast(resource: Resource, instance: Instance,
                  assignment: Mapping[int, int]) -> Optional[int]:
    """First slot whose occupancy falls short of cap_min, or None.

    The assignment must cover every member (KeyError otherwise).
    """
    occ = _occupancy(resource, instance, assignment, complete=True)
    for idx, count in enumerate(occ):
        if count < resource.cap_min[idx]:
            return resource.t_min + idx
    return None


# ---------------------------------------------------------------------------
# lower bound


def slot_excess(t: int, window_start: int, var: PreferenceVariable,
                duration: int, floor: int):
    """Extra penalty the activity must pay, beyond ``floor``, to execute at t.

    Considers the live starts s with max(window_start, t-duration+1) <= s <= t
    — exactly those putting the activity in execution at t, clamped at the
    window start.  Returns :data:`NOT_RUNNABLE` when no such start is live,
    otherwise max(0, cheapest covering penalty - floor).
    """
    live = var._live
    penalty = var._penalty
    best = None
    for s in range(max(window_start, t - duration + 1, 0), min(t + 1, len(live))):
        if live[s]:
            p = penalty[s]
            if best is None or p < best:
                best = p
    if best is None:
        return NOT_RUNNABLE
    return best - floor if best > floor else 0


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

    The ratios are ranked and summed as integers scaled by the lcm of the
    member durations, which keeps them exact; only the returned total and
    shares are built as fractions.
    """
    if members is None:
        members = resource.members
    info = [(aid, variables[aid], instance.activity(aid).duration)
            for aid in members]
    scale = math.lcm(*(dur for _aid, _var, dur in info))
    info = [(aid, var, dur, scale // dur) for aid, var, dur in info]
    total = 0
    selected: Dict[int, int] = {}
    for offset, need in enumerate(quota):
        if need <= 0:
            continue
        t = resource.t_min + offset
        ratios = []
        for aid, var, dur, weight in info:
            excess = slot_excess(t, resource.t_min, var, dur, table[aid])
            if excess is not NOT_RUNNABLE:
                ratios.append((excess * weight, aid))
        if len(ratios) < need:
            raise ResourceInfeasible(resource.name, t, need, len(ratios))
        ratios.sort()
        for ratio, aid in ratios[:need]:
            if ratio:
                total += ratio
                selected[aid] = selected.get(aid, 0) + ratio
    return (Fraction(total, scale),
            {aid: Fraction(share, scale) for aid, share in selected.items()})
