"""Machine-checkable reports tying the reductions to independent oracles.

Each check here compares two routes to the same answer: a brute-force
oracle on the small side against the search solver on the constructed
side. Reports never guess: when an input is too big for the oracles the
verdict is "skipped" with the reason, and a "fail" always carries enough
detail to reproduce the disagreement.
"""

import hashlib
from dataclasses import dataclass, field

from .cnf import CnfFormula, normalize_3cnf, render_dimacs, sat_brute_force
from .formats import render_instance, render_minones
from .gadgets import (
    FORMULA_TARGETS,
    LIFT_FAMILIES,
    _check_pattern_rule,
    check_c4_completion_gadgets,
    check_c4_deletion_gadgets,
    check_c5_deletion_gadgets,
    lift_specific,
    reduce_formula,
)
from .graphs import Graph
from .minones import MinOnesInstance, minones_brute_force, reduce_minones_to_quarantined
from .reductions import Polynomial, complement_instance
from .solver import (
    DELETION,
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

# public target name: the `hfree reduce` target it checks
EQUIVALENCE_TARGETS = {row[2]: target for target, row in FORMULA_TARGETS.items()}


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


def _skipped(check: str, digest: str, details: dict, reason: str) -> VerificationReport:
    details["reason"] = reason
    return VerificationReport(check, digest, "skipped", details)


def _judged(check: str, digest: str, details: dict, held: bool, witness) -> VerificationReport:
    """Pass when held; otherwise fail with witness(), a text that pins the
    input, flattened to one line. Only a fail renders it."""
    if held:
        return VerificationReport(check, digest, "pass", details)
    details["witness"] = witness().replace("\n", "|")
    return VerificationReport(check, digest, "fail", details)


def _beyond_equivalence_guards(f: CnfFormula) -> bool:
    return f.variable_count > EQUIVALENCE_VARIABLE_GUARD or f.clause_count > EQUIVALENCE_CLAUSE_GUARD


def verify_sat_equivalence(f: CnfFormula, target: str, pattern=None) -> VerificationReport:
    """Compare satisfiability against solvability of the reduced instance.

    The general targets take the pattern to reduce onto; the specific
    targets build their own and reject one. The formula is normalized as
    `hfree reduce` does, and when that leaves it beyond the brute force
    guards it comes back "skipped"; reports describe the formula as given.
    """
    if target not in EQUIVALENCE_TARGETS:
        raise ValueError(f"unknown equivalence target {target!r}")
    reduce_target = EQUIVALENCE_TARGETS[target]
    _check_pattern_rule(reduce_target, pattern, target)
    digest = _digest(render_dimacs(f) + target + (pattern.name if pattern else ""))
    details = {"target": target, "variables": f.variable_count, "clauses": f.clause_count}
    normal = normalize_3cnf(f)
    if _beyond_equivalence_guards(normal):
        reason = f"guard is {EQUIVALENCE_VARIABLE_GUARD} variables / {EQUIVALENCE_CLAUSE_GUARD} clauses"
        if not _beyond_equivalence_guards(f):
            reason += f", {normal.variable_count} / {normal.clause_count} once normalized"
        return _skipped("sat-equivalence", digest, details, reason)

    satisfiable = sat_brute_force(f) is not None
    instance, _ = reduce_formula(reduce_target, normal, pattern)
    solvable = solve_sandwich(instance) is not None
    details["sat"] = "yes" if satisfiable else "no"
    details["sandwich"] = "yes" if solvable else "no"
    return _judged("sat-equivalence", digest, details, satisfiable == solvable, lambda: render_dimacs(f))


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
        return _skipped("gap-lift", digest, details, f"guard is {GAP_FREE_GUARD} free elements")

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
    return _judged("gap-lift", digest, details, held, lambda: render_instance(instance))


def verify_duality(g: Graph, pattern, k: int) -> VerificationReport:
    """Budgeted deletion on the graph against budgeted completion on the
    complement, with the complemented pattern."""
    digest = _digest(f"{g.vertex_count};{sorted(g.edges)};{pattern.name};{k}")
    details = {"vertices": g.vertex_count, "pattern": pattern.name or "unnamed", "budget": k}
    if g.vertex_count > DUALITY_VERTEX_GUARD or k > DUALITY_BUDGET_GUARD:
        reason = f"guard is {DUALITY_VERTEX_GUARD} vertices and budget {DUALITY_BUDGET_GUARD}"
        return _skipped("duality", digest, details, reason)

    deletion = SandwichInstance(g, pattern, DELETION, g.edges)
    completion = complement_instance(deletion)
    primal = solve_sandwich(deletion, budget=k) is not None
    dual = solve_sandwich(completion, budget=k) is not None
    details["deletion"] = "yes" if primal else "no"
    details["completion"] = "yes" if dual else "no"
    return _judged("duality", digest, details, primal == dual, lambda: f"edges={sorted(g.edges)}")


def verify_opt_scaling(inst: MinOnesInstance, n: int = 5, pendant_base=None) -> VerificationReport:
    """Quarantined deletion optimum against group size times the ones optimum."""
    digest = _digest(render_minones(inst) + f";{n};{pendant_base}")
    details = {"variables": inst.variable_count, "constraints": len(inst.constraints)}
    instance, groups = reduce_minones_to_quarantined(inst, n, pendant_base)
    details["group_size"] = groups.group_size
    free = groups.group_size * inst.variable_count
    if free > SCALING_FREE_GUARD:
        reason = f"{free} deletable edges exceed the guard {SCALING_FREE_GUARD}"
        return _skipped("opt-scaling", digest, details, reason)

    result = minones_brute_force(inst)
    solution = solve_min(instance)
    details["ones"] = "none" if result is None else result[1]
    details["cost"] = "none" if solution is None else len(solution)
    agreed = (
        result is None and solution is None
        if result is None or solution is None
        else len(solution) == groups.group_size * result[1]
    )
    return _judged("opt-scaling", digest, details, agreed, lambda: render_minones(inst))


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
