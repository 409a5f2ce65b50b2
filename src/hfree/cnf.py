"""Propositional CNF with DIMACS round-tripping.

Literals follow the DIMACS convention: nonzero integers, sign for polarity,
variables numbered from 1. Assignments are bool tuples indexed by
variable-1. The reductions downstream want exact-3CNF (every clause exactly
three literals), so normalization pads short clauses by repeating the last
literal and splits long clauses with fresh variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple

    def __post_init__(self):
        if self.variable_count < 0:
            raise ValueError("variable_count must be nonnegative")
        for clause in self.clauses:
            if len(clause) == 0:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise ValueError(f"literal {lit} out of range")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def is_exact_3cnf(self) -> bool:
        return all(len(c) == 3 for c in self.clauses)


def formula(variable_count: int, clauses) -> CnfFormula:
    return CnfFormula(variable_count, tuple(tuple(c) for c in clauses))


def literal_value(lit: int, assignment) -> bool:
    value = assignment[abs(lit) - 1]
    return value if lit > 0 else not value


def satisfies(f: CnfFormula, assignment) -> bool:
    if len(assignment) != f.variable_count:
        raise ValueError("assignment length does not match variable count")
    return all(any(literal_value(lit, assignment) for lit in clause) for clause in f.clauses)


def sat_brute_force(f: CnfFormula):
    """First satisfying assignment in lexicographic (False < True) order,
    or None. Exponential in variable_count; keep inputs small."""
    for bits in product((False, True), repeat=f.variable_count):
        if satisfies(f, bits):
            return bits
    return None


def occurrence_counts(f: CnfFormula) -> dict:
    """Total literal occurrences per variable (repeats in a clause count)."""
    counts = {v: 0 for v in range(1, f.variable_count + 1)}
    for clause in f.clauses:
        for lit in clause:
            counts[abs(lit)] += 1
    return counts


def normalize_3cnf(f: CnfFormula) -> CnfFormula:
    """Equisatisfiable exact-3CNF.

    Clauses of length 1 or 2 are padded by repeating their last literal;
    longer clauses are chained through fresh variables in the usual way. A
    formula that is already exact-3CNF comes back unchanged.
    """
    if f.is_exact_3cnf():
        return f
    next_var = f.variable_count + 1
    out = []
    for clause in f.clauses:
        if len(clause) <= 3:
            padded = list(clause) + [clause[-1]] * (3 - len(clause))
            out.append(tuple(padded))
            continue
        rest = list(clause)
        out.append((rest[0], rest[1], next_var))
        rest = rest[2:]
        while len(rest) > 2:
            out.append((-next_var, rest[0], next_var + 1))
            next_var += 1
            rest = rest[1:]
        out.append((-next_var, rest[0], rest[1]))
        next_var += 1
    return CnfFormula(next_var - 1, tuple(out))


def duplicate_for_min_occurrences(f: CnfFormula, minimum: int) -> CnfFormula:
    """Repeat clauses until every variable occurs at least `minimum` times.

    Duplicating a clause leaves the satisfying set unchanged. Variables that
    never occur cannot be helped by duplication, so they are rejected.
    """
    counts = occurrence_counts(f)
    missing = [v for v, c in counts.items() if c == 0]
    if missing:
        raise ValueError(f"variables never occur: {missing}")
    clauses = list(f.clauses)
    for v in range(1, f.variable_count + 1):
        while counts[v] < minimum:
            donor = next(c for c in f.clauses if any(abs(lit) == v for lit in c))
            clauses.append(donor)
            for lit in donor:
                counts[abs(lit)] += 1
    return CnfFormula(f.variable_count, tuple(clauses))


def render_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.variable_count} {f.clause_count}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: comment lines, one problem line before any clause,
    clauses ended by 0 (a clause may span lines), and an optional SATLIB
    "%" trailer. Errors name the offending line."""
    variable_count = None
    declared_clauses = None
    literals = []
    clauses = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            # SATLIB files end with a "%" line and a stray "0" after it.
            break
        if line.startswith("p"):
            if variable_count is not None:
                raise ValueError(f"line {number}: second problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {number}: bad problem line: {raw!r}")
            try:
                variable_count, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"line {number}: bad count in problem line: {raw!r}") from None
            continue
        if variable_count is None:
            raise ValueError(f"line {number}: missing problem line before this clause")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ValueError(f"line {number}: invalid literal {token!r}") from None
            if lit == 0:
                if not literals:
                    raise ValueError(f"line {number}: empty clause")
                clauses.append(tuple(literals))
                literals = []
            elif abs(lit) > variable_count:
                raise ValueError(f"line {number}: literal {lit} out of range")
            else:
                literals.append(lit)
                open_line = number
    if variable_count is None:
        raise ValueError("missing problem line")
    if literals:
        raise ValueError(f"line {open_line}: trailing literals without terminating 0")
    if declared_clauses != len(clauses):
        raise ValueError(f"declared {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(variable_count, tuple(clauses))
