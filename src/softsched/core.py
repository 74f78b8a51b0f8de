"""Domain store: preference variables over discrete time slots plus an undo trail.

Time is a dense integer grid of slots (0, 1, 2, ...); one slot is one
teaching period.  A preference variable holds one penalty entry per slot
of its grid.  A live slot carries a natural-number penalty; a slot outside
the domain, never offered or removed since, carries None.  Penalty 0 means
the slot is fully preferred; larger penalties mean the slot is
discouraged, either by an initial cost supplied at construction or by
weights pushed onto it during propagation.

All mutation goes through a :class:`Trail` so that search can restore the
exact prior state on backtrack.  Each variable keeps its cheapest live value
up to date through those mutations, and the trail keeps the running sum of
those cheapest penalties over the unassigned variables: search reads its
base bound from it in O(1) instead of rescanning every domain.  An
assignment swaps in a one-hot penalty list, None but at the chosen slot, and
its one trail record keeps the replaced list and cheapest value, so
backtracking puts both back in O(1).  A variable holds at most one soft
constraint, ``PreferenceVariable.constraint``, set when a
:class:`softsched.disjunctive.SoftDisjunctive` is constructed on it, and
an assignment fires it directly.

A removal and a penalty increment are the same change to the store: one
slot's entry is overwritten, with None or with a larger penalty, and the
trail record keeps the entry it replaced.  Soft-pair charges are the bulk of
the trail, and ``disjunctive`` writes them inline, leaving the records
:meth:`PreferenceVariable.add_penalty` and
:meth:`PreferenceVariable.remove_value` would.  :meth:`Trail.undo_to` writes
each replaced entry back inline too: an undo can only lower a penalty or
bring a slot back, so one comparison against the cached cheapest value keeps
the cache and the base bound exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # disjunctive imports this module
    from .disjunctive import SoftDisjunctive


class SchedulingError(Exception):
    """Base class for solver errors."""


class DomainWipeout(SchedulingError):
    """A propagation step emptied a variable's domain; the caller must backtrack."""

    def __init__(self, var_id: int):
        super().__init__(f"domain of variable {var_id} wiped out")
        self.var_id = var_id


class Trail:
    """Reversible log of store mutations.

    Keeps three kinds of record, undone newest first:

    - a slot: one slot of a variable and the penalty entry it held before
      it was raised or removed (set to None);
    - an assignment: the variable, the penalty list the assignment
      replaced, and the cheapest ``(slot, penalty)`` it had before;
    - an occupancy bump: one counter of a resource and its increment.

    Undoing a suffix of entries restores the touched objects bit-for-bit.
    Records older than an assignment act on the list it replaced, which is
    back in place by the time they are undone.

    ``base_bound`` is the running sum of the cheapest live penalty over the
    unassigned variables.  Every mutation and every undo adds the change it
    makes to its variable's term: an unassigned variable counts its
    cheapest penalty, an assigned or wiped-out one counts 0.  Seed it with
    the sum over the variables the trail will serve, and it stays equal to
    that sum.
    """

    __slots__ = ("_entries", "base_bound")

    _SLOT = 0
    _ASSIGN = 1
    _OCCUPANCY = 2

    def __init__(self):
        self._entries: List[tuple] = []
        self.base_bound = 0

    def __len__(self) -> int:
        return len(self._entries)

    def mark(self) -> int:
        """Current position; pass to :meth:`undo_to` to rewind."""
        return len(self._entries)

    def push_occupancy(self, counts: List[int], index: int, delta: int) -> None:
        self._entries.append((Trail._OCCUPANCY, counts, index, delta))

    def undo_to(self, mark: int) -> None:
        """Rewind to a previous :meth:`mark`, newest entries first."""
        entries = self._entries
        bound = self.base_bound
        # Bound once per call, not looked up once per entry.
        slot_tag, assign_tag = Trail._SLOT, Trail._ASSIGN
        for entry in reversed(entries[mark:]):
            tag = entry[0]
            if tag == slot_tag:
                _, var, slot, pen = entry
                var._penalty[slot] = pen
            elif tag == assign_tag:
                _, var, penalty, min_slot, min_pen = entry
                var._penalty = penalty
                var._min_slot, var._min_pen = min_slot, min_pen
                var.assignment = None
                bound += min_pen
                continue
            else:
                _, counts, index, delta = entry
                counts[index] -= delta
                continue
            # The live slot got cheaper or came back: it may be the new cheapest.
            best_slot, best = var._min_slot, var._min_pen
            if best_slot < 0 or pen < best or (pen == best and slot < best_slot):
                if var.assignment is None:
                    bound += pen - best
                var._min_slot, var._min_pen = slot, pen
        self.base_bound = bound
        del entries[mark:]


class PreferenceVariable:
    """Finite-domain start-time variable whose values carry penalties.

    The domain is stored as one penalty list over the slot grid, None at
    every slot outside it, giving ordered iteration and O(1) membership.
    The initial costs passed at construction are kept frozen alongside the
    current penalties, so the share added by constraint propagation is
    always recoverable: a live slot's penalty minus its initial cost.

    The cheapest live ``(slot, penalty)`` is cached.  A removal or a penalty
    increment rescans the domain only when it hits the cached slot; an undo
    can only lower a penalty or bring a value back, so it updates the cache
    with one comparison.  An empty domain caches ``(-1, 0)``.
    """

    __slots__ = ("id", "assignment", "constraint", "_penalty", "_initial",
                 "_min_slot", "_min_pen")

    def __init__(self, var_id: int, pairs: List[Tuple[int, int]]):
        if not pairs:
            raise ValueError(f"variable {var_id}: domain must not be empty")
        grid = max(slot for slot, _ in pairs) + 1
        penalty: List[Optional[int]] = [None] * grid
        for slot, cost in pairs:
            if slot < 0:
                raise ValueError(f"variable {var_id}: negative slot {slot}")
            if cost < 0:
                raise ValueError(f"variable {var_id}: negative penalty for slot {slot}")
            if penalty[slot] is not None:
                raise ValueError(f"variable {var_id}: duplicate slot {slot}")
            penalty[slot] = cost
        self.id = var_id
        self.assignment: Optional[int] = None
        self.constraint: Optional[SoftDisjunctive] = None
        self._penalty = penalty
        self._initial = list(penalty)
        cost, slot = min((cost, slot) for slot, cost in pairs)
        self._min_slot, self._min_pen = slot, cost

    # -- queries ---------------------------------------------------------

    def __repr__(self) -> str:
        dom = ", ".join(f"{s}:{p}" for s, p in self.items())
        return f"PreferenceVariable({self.id}, {{{dom}}}, assigned={self.assignment})"

    def contains(self, slot: int) -> bool:
        penalty = self._penalty
        return 0 <= slot < len(penalty) and penalty[slot] is not None

    def items(self) -> Iterator[Tuple[int, int]]:
        """(slot, penalty) pairs for live slots, ascending."""
        for slot, pen in enumerate(self._penalty):
            if pen is not None:
                yield slot, pen

    def min_penalty(self) -> Tuple[int, int]:
        """(slot, penalty) with the smallest penalty; ties go to the smallest slot."""
        if self._min_slot < 0:
            raise ValueError(f"variable {self.id} has an empty domain")
        return self._min_slot, self._min_pen

    # -- trailed mutation --------------------------------------------------

    def remove_value(self, slot: int, trail: Trail) -> None:
        """Drop a live slot; raises :class:`DomainWipeout` if the domain empties.

        Only removing the cached cheapest slot can empty the domain, and
        then its rescan finds no live slot.
        """
        if not self.contains(slot):
            raise ValueError(f"slot {slot} not in domain of variable {self.id}")
        trail._entries.append((Trail._SLOT, self, slot, self._penalty[slot]))
        self._penalty[slot] = None
        if slot == self._min_slot:
            self._rescan(trail)
            if self._min_slot < 0:
                raise DomainWipeout(self.id)

    def add_penalty(self, slot: int, delta: int, trail: Trail) -> None:
        """Increase a live slot's penalty.

        A slot no longer in the domain is silently ignored (the candidate
        was already eliminated, nothing to discourage).  A zero delta is a
        no-op and leaves no trail record.
        """
        if delta < 0:
            raise ValueError("penalty delta must be >= 0")
        if delta == 0 or not self.contains(slot):
            return
        pen = self._penalty[slot]
        trail._entries.append((Trail._SLOT, self, slot, pen))
        self._penalty[slot] = pen + delta
        if slot == self._min_slot:
            self._rescan(trail)

    def assign(self, slot: int, trail: Trail) -> None:
        """Bind the variable to one slot and fire its constraint.

        A one-hot penalty list, None but at ``slot``, replaces the domain's,
        and one trail record keeps the replaced list with the cheapest value
        it held.  Then the soft constraint suspended on the variable, if
        any, propagates before control returns.  It may raise
        :class:`DomainWipeout`; the trail still covers everything done so
        far.
        """
        if self.assignment is not None:
            raise ValueError(f"variable {self.id} is already assigned")
        if not self.contains(slot):
            raise ValueError(f"slot {slot} not in domain of variable {self.id}")
        penalty = self._penalty
        one_hot: List[Optional[int]] = [None] * len(penalty)
        one_hot[slot] = pen = penalty[slot]
        trail._entries.append(
            (Trail._ASSIGN, self, penalty, self._min_slot, self._min_pen))
        self._penalty = one_hot
        trail.base_bound -= self._min_pen  # leaves the unassigned sum
        self._min_slot, self._min_pen = slot, pen
        self.assignment = slot
        constraint = self.constraint
        if constraint is not None:
            constraint.propagate(trail)

    # -- cheapest-value cache -----------------------------------------------

    def _rescan(self, trail: Trail) -> None:
        """Recompute the cheapest live value after the cached one got dearer or died."""
        best_slot, best = -1, 0
        for slot, pen in enumerate(self._penalty):
            if pen is not None and (best_slot < 0 or pen < best):
                best_slot, best = slot, pen
        if self.assignment is None:
            trail.base_bound += best - self._min_pen
        self._min_slot, self._min_pen = best_slot, best
