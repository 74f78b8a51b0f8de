"""Soft-scheduling constraint solver.

Schedules activities on a discrete slot grid under weighted soft
non-overlap preferences and hard resource capacities, via an anytime
branch and bound with preference-based lower bounds.  Small instances can
be cross-checked against an exhaustive oracle.
"""

from .core import (DomainWipeout, PreferenceVariable, SchedulingError, Trail,
                   new_pref_var)
from .cumulative import (NOT_RUNNABLE, BoundMode, ResourceInfeasible,
                         base_lower_bound, check_atleast, check_cumulative_max,
                         combined_lower_bound, contribution_with_quota,
                         resource_contribution, slot_excess,
                         unit_capacity_expand, update_min_weights)
from .disjunctive import (SoftDisjunctive, activity_violation, overlaps,
                          post_network, post_soft_disjunctive,
                          violation_profile, violation_ratio,
                          weighted_violation, worst_case_satisfaction)
from .generator import generate
from .instance import (Activity, Instance, InstanceError, Resource, SoftPair,
                       parse_instance, serialize_instance)
from .oracle import (BoundReport, BoundViolation, Objective, OracleResult,
                     enumerate_optimum, verify_bound)
from .search import (Incumbent, SearchConfig, SolveResult, Status,
                     order_values, rank_variables, restart_tightening,
                     select_variable, solve, solve_min_worst_violation)

__version__ = "0.1.0"

__all__ = [
    "Activity", "BoundMode", "BoundReport", "BoundViolation", "DomainWipeout",
    "Incumbent", "Instance", "InstanceError", "NOT_RUNNABLE", "Objective",
    "OracleResult", "PreferenceVariable", "Resource", "ResourceInfeasible",
    "SchedulingError", "SearchConfig", "SoftDisjunctive", "SoftPair",
    "SolveResult", "Status", "Trail", "activity_violation",
    "base_lower_bound", "check_atleast", "check_cumulative_max",
    "combined_lower_bound", "contribution_with_quota", "enumerate_optimum",
    "generate", "new_pref_var", "order_values", "overlaps", "parse_instance",
    "post_network", "post_soft_disjunctive", "rank_variables",
    "resource_contribution", "restart_tightening", "select_variable",
    "serialize_instance", "slot_excess", "solve", "solve_min_worst_violation",
    "unit_capacity_expand", "update_min_weights", "verify_bound",
    "violation_profile", "violation_ratio", "weighted_violation",
    "worst_case_satisfaction",
]
