"""Machine-checkable reports tying the reductions to independent oracles.

Each check here compares two routes to the same answer: a brute-force
oracle on the small side against the search solver on the constructed
side. Reports never guess: when an input is too big for the oracles the
verdict is "skipped" with the reason, and a "fail" always carries enough
detail to reproduce the disagreement.
"""

import hashlib
from dataclasses import dataclass, field

from .cnf import CnfFormula, duplicate_for_min_occurrences, render_dimacs, sat_brute_force
from .formats import render_instance, render_minones
from .gadgets import (
    LIFT_FAMILIES,
    check_c4_completion_gadgets,
    check_c4_deletion_gadgets,
    check_c5_deletion_gadgets,
    lift_specific,
    reduce_3sat_to_c4comp,
    reduce_3sat_to_c4del,
    reduce_3sat_to_c5del,
    reduce_c4comp_to_house_comp,
)
from .graphs import Graph
from .minones import (
    MinOnesInstance,
    minones_brute_force,
    quarantined_instance,
    reduce_minones_to_quarantined,
)
from .reductions import (
    Polynomial,
    complement_instance,
    reduce_3sat_to_sandwich_comp,
    reduce_3sat_to_sandwich_del,
)
from .solver import (
    DELETION,
    BudgetedInstance,
    SandwichInstance,
    solve_budgeted,
    solve_min,
    solve_sandwich,
)

EQUIVALENCE_VARIABLE_GUARD = 4
EQUIVALENCE_CLAUSE_GUARD = 3
GAP_FREE_GUARD = 8
DUALITY_VERTEX_GUARD = 7
DUALITY_BUDGET_GUARD = 3
SCALING_FREE_GUARD = 40

EQUIVALENCE_TARGETS = (
    "general-del",
    "general-comp",
    "c4-del",
    "c5-del",
    "c4-comp",
    "house-comp-via-c4",
)


@dataclass
class VerificationReport:
    check: str
    digest: str
    verdict: str
    details: dict = field(default_factory=dict)

    def result_line(self) -> str:
        parts = " ".join(f"{key}={value}" for key, value in self.details.items())
        return f"RESULT {self.verdict} {self.check} digest={self.digest}" + (
            f" {parts}" if parts else ""
        )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def verify_sat_equivalence(f: CnfFormula, target: str, pattern=None) -> VerificationReport:
    """Compare satisfiability against solvability of the reduced instance.

    The general targets take the pattern to reduce onto; the specific
    targets build their own and reject one. Formulas beyond the brute
    force guards come back "skipped".
    """
    if target not in EQUIVALENCE_TARGETS:
        raise ValueError(f"unknown equivalence target {target!r}")
    general = target in ("general-del", "general-comp")
    if general and pattern is None:
        raise ValueError(f"target {target!r} needs a pattern")
    if not general and pattern is not None:
        raise ValueError(f"target {target!r} fixes its own pattern")
    digest = _digest(render_dimacs(f) + target + (pattern.name if pattern else ""))
    details = {"target": target, "variables": f.variable_count, "clauses": f.clause_count}
    if f.variable_count > EQUIVALENCE_VARIABLE_GUARD or f.clause_count > EQUIVALENCE_CLAUSE_GUARD:
        details["reason"] = (
            f"guard is {EQUIVALENCE_VARIABLE_GUARD} variables / {EQUIVALENCE_CLAUSE_GUARD} clauses"
        )
        return VerificationReport("sat-equivalence", digest, "skipped", details)

    satisfiable = sat_brute_force(f) is not None
    if target == "general-del":
        instance, _ = reduce_3sat_to_sandwich_del(f, pattern)
    elif target == "general-comp":
        instance, _ = reduce_3sat_to_sandwich_comp(f, pattern)
    elif target == "c4-del":
        instance, _ = reduce_3sat_to_c4del(f)
    elif target == "c5-del":
        instance, _ = reduce_3sat_to_c5del(f)
    elif target == "c4-comp":
        # the ladder construction wants two occurrences per variable, and
        # duplicating clauses changes nothing about satisfiability
        instance, _ = reduce_3sat_to_c4comp(duplicate_for_min_occurrences(f, 2))
    else:
        squares, _ = reduce_3sat_to_c4comp(duplicate_for_min_occurrences(f, 2))
        instance = reduce_c4comp_to_house_comp(squares)
    solvable = solve_sandwich(instance) is not None
    details["sat"] = "yes" if satisfiable else "no"
    details["sandwich"] = "yes" if solvable else "no"
    if satisfiable != solvable:
        details["witness"] = render_dimacs(f).replace("\n", "|")
        return VerificationReport("sat-equivalence", digest, "fail", details)
    return VerificationReport("sat-equivalence", digest, "pass", details)


def verify_gap(instance: SandwichInstance, family: str, polynomial: Polynomial) -> VerificationReport:
    """Check the budget gap a lift promises.

    A solvable source must stay solvable within the lifted budget k, and
    an unsolvable one must admit nothing even at the relaxed cap p(k).
    """
    if family not in LIFT_FAMILIES:
        raise ValueError(f"unknown lift family {family!r}")
    digest = _digest(render_instance(instance) + family + repr(polynomial))
    details = {"family": family, "free": len(instance.free)}
    if len(instance.free) > GAP_FREE_GUARD:
        details["reason"] = f"guard is {GAP_FREE_GUARD} free elements"
        return VerificationReport("gap-lift", digest, "skipped", details)

    solvable = solve_sandwich(instance) is not None
    lifted = lift_specific(instance, family, polynomial)
    details["side"] = "yes" if solvable else "no"
    details["budget"] = lifted.budget
    if solvable:
        held = solve_budgeted(lifted) is not None
        details["checked"] = f"cost<={lifted.budget}"
    else:
        cap = polynomial(lifted.budget)
        held = solve_sandwich(lifted.instance, budget=cap) is None
        details["checked"] = f"absent<={cap}"
    if not held:
        details["witness"] = render_instance(instance).replace("\n", "|")
        return VerificationReport("gap-lift", digest, "fail", details)
    return VerificationReport("gap-lift", digest, "pass", details)


def verify_duality(g: Graph, pattern, k: int) -> VerificationReport:
    """Budgeted deletion on the graph against budgeted completion on the
    complement, with the complemented pattern."""
    digest = _digest(f"{g.vertex_count};{sorted(g.edges)};{pattern.name};{k}")
    details = {"vertices": g.vertex_count, "pattern": pattern.name or "unnamed", "budget": k}
    if g.vertex_count > DUALITY_VERTEX_GUARD or k > DUALITY_BUDGET_GUARD:
        details["reason"] = (
            f"guard is {DUALITY_VERTEX_GUARD} vertices and budget {DUALITY_BUDGET_GUARD}"
        )
        return VerificationReport("duality", digest, "skipped", details)

    deletion = SandwichInstance(g, pattern, DELETION, g.edges)
    completion = complement_instance(deletion)
    primal = solve_budgeted(BudgetedInstance(deletion, k)) is not None
    dual = solve_budgeted(BudgetedInstance(completion, k)) is not None
    details["deletion"] = "yes" if primal else "no"
    details["completion"] = "yes" if dual else "no"
    if primal != dual:
        details["witness"] = f"edges={sorted(g.edges)}"
        return VerificationReport("duality", digest, "fail", details)
    return VerificationReport("duality", digest, "pass", details)


def verify_opt_scaling(inst: MinOnesInstance, n: int = 5, pendant_base=None) -> VerificationReport:
    """Quarantined deletion optimum against group size times the ones optimum."""
    digest = _digest(render_minones(inst) + f";{n};{pendant_base}")
    details = {"variables": inst.variable_count, "constraints": len(inst.constraints)}
    graph, quarantine, groups = reduce_minones_to_quarantined(inst, n, pendant_base)
    details["group_size"] = groups.group_size
    free = groups.group_size * inst.variable_count
    if free > SCALING_FREE_GUARD:
        details["reason"] = f"{free} deletable edges exceed the guard {SCALING_FREE_GUARD}"
        return VerificationReport("opt-scaling", digest, "skipped", details)

    result = minones_brute_force(inst)
    solution = solve_min(quarantined_instance(graph, quarantine, n))
    details["ones"] = "none" if result is None else result[1]
    details["cost"] = "none" if solution is None else len(solution)
    agreed = (
        result is None and solution is None
        if result is None or solution is None
        else len(solution) == groups.group_size * result[1]
    )
    if not agreed:
        details["witness"] = render_minones(inst).replace("\n", "|")
        return VerificationReport("opt-scaling", digest, "fail", details)
    return VerificationReport("opt-scaling", digest, "pass", details)


def verify_gadget_contracts() -> VerificationReport:
    """Run every cached exhaustive gadget certification in one sweep."""
    contracts = (
        check_c4_deletion_gadgets()
        + check_c5_deletion_gadgets()
        + check_c4_completion_gadgets()
    )
    digest = _digest(";".join(c.name for c in contracts))
    details = {
        "contracts": len(contracts),
        "subsets": sum(c.checked_subsets for c in contracts),
    }
    return VerificationReport("gadget-contracts", digest, "pass", details)
