"""Soft-scheduling constraint solver.

Schedules activities on a discrete slot grid under weighted soft
non-overlap preferences and hard resource capacities, via an anytime
branch and bound with preference-based lower bounds.  Small instances can
be cross-checked against an exhaustive oracle.

The package exports the library entry points and the types they take,
return or raise; everything else is imported from its submodule.
"""

from .cumulative import BoundMode
from .generator import generate
from .instance import (Activity, Instance, InstanceError, Resource, SoftPair,
                       parse_instance)
from .oracle import (BoundReport, BoundViolation, Objective, OracleResult,
                     enumerate_optimum, verify_bound)
from .search import (Incumbent, SearchConfig, SolveResult, Status, solve,
                     solve_min_worst_violation)

__version__ = "0.1.0"

__all__ = [
    "Activity", "BoundMode", "BoundReport", "BoundViolation", "Incumbent",
    "Instance", "InstanceError", "Objective", "OracleResult", "Resource",
    "SearchConfig", "SoftPair", "SolveResult", "Status", "enumerate_optimum",
    "generate", "parse_instance", "solve", "solve_min_worst_violation",
    "verify_bound",
]
