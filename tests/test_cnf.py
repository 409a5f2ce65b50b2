import random
from itertools import product

import pytest

from hfree.cnf import (
    CnfFormula,
    duplicate_for_min_occurrences,
    formula,
    normalize_3cnf,
    occurrence_counts,
    parse_dimacs,
    render_dimacs,
    sat_brute_force,
    satisfies,
)


def test_formula_validation():
    with pytest.raises(ValueError):
        formula(2, [(1, 3, 2)])
    with pytest.raises(ValueError):
        formula(2, [(1, 0, 2)])
    with pytest.raises(ValueError):
        formula(2, [()])


def test_satisfies_and_brute_force():
    f = formula(2, [(1, 2, 2), (-1, -2, -2)])
    assert satisfies(f, (True, False))
    assert not satisfies(f, (True, True))
    assert sat_brute_force(f) == (False, True)

    unsat = formula(1, [(1, 1, 1), (-1, -1, -1)])
    assert sat_brute_force(unsat) is None


def test_occurrence_counts_include_repeats():
    f = formula(3, [(1, 1, 2), (-2, 3, 1)])
    assert occurrence_counts(f) == {1: 3, 2: 2, 3: 1}


def test_normalize_pads_short_clauses():
    f = formula(2, [(1,), (1, -2)])
    norm = normalize_3cnf(f)
    assert norm.clauses == ((1, 1, 1), (1, -2, -2))
    assert norm.variable_count == 2


def test_normalize_splits_long_clauses_equisatisfiably():
    rng = random.Random(11)
    for _ in range(30):
        nvars = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            width = rng.randint(1, 6)
            clauses.append(tuple(rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(width)))
        f = formula(nvars, clauses)
        norm = normalize_3cnf(f)
        assert norm.is_exact_3cnf()
        # Same satisfiability, and every original model extends to the split form.
        assert (sat_brute_force(f) is None) == (sat_brute_force(norm) is None)
        for bits in product((False, True), repeat=nvars):
            if satisfies(f, bits):
                extended_ok = any(
                    satisfies(norm, bits + extra)
                    for extra in product((False, True), repeat=norm.variable_count - nvars)
                )
                assert extended_ok


def test_normalize_leaves_exact_3cnf_alone():
    f = formula(3, [(1, -2, 3)])
    assert normalize_3cnf(f) is f


def test_duplicate_for_min_occurrences():
    f = formula(3, [(1, 2, 3)])
    doubled = duplicate_for_min_occurrences(f, 2)
    assert doubled.clauses == ((1, 2, 3), (1, 2, 3))
    assert all(c >= 2 for c in occurrence_counts(doubled).values())
    with pytest.raises(ValueError, match="never occur"):
        duplicate_for_min_occurrences(formula(2, [(1, 1, 1)]), 2)


def test_dimacs_round_trip():
    f = formula(3, [(1, -3, 2), (-1, -2, -2)])
    text = render_dimacs(f)
    assert text == "p cnf 3 2\n1 -3 2 0\n-1 -2 -2 0\n"
    assert parse_dimacs(text) == f


def test_dimacs_parser_accepts_comments_and_multiline_clauses():
    text = "c a comment\np cnf 2 1\n1\n-2 2 0\n"
    assert parse_dimacs(text) == formula(2, [(1, -2, 2)])


def test_dimacs_parser_stops_at_satlib_trailer():
    text = "p cnf 3 1\n1 -2 3 0\n%\n0\n"
    assert parse_dimacs(text) == formula(3, [(1, -2, 3)])


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 2 0\n", "missing problem line"),
        ("p cnf 3 2\n1 -2 3 0\n%\n0\n", "declared 2 clauses"),
        ("p cnf 3 1\n1 -2 3 0 %\n", "invalid literal"),
        ("p cnf 3 1\n1 -2 3 0\n%%\n", "invalid literal"),
        ("p cnf 2 1\n1 2\n", "trailing literals"),
        ("p cnf 2 1\n1 2\n", "^line 2: trailing literals without terminating 0$"),
        ("p cnf 2 1\n0\n", "^line 2: empty clause$"),
        ("p cnf 2 2\n1 2 0\n", "declared 2 clauses"),
        ("p dnf 2 1\n1 2 0\n", "bad problem line"),
        ("p dnf 2 1\n1 2 0\n", "^line 1: bad problem line: 'p dnf 2 1'$"),
        ("c note\np cnf 2\n1 2 0\n", "^line 2: bad problem line: 'p cnf 2'$"),
        ("p cnf 2 1\n1 x 0\n", "line 2: invalid literal 'x'"),
        ("c note\np cnf 2 1\n\n1 2 0 x\n", "line 4: invalid literal 'x'"),
        ("p cnf x 1\n1 0\n", "line 1: bad count in problem line"),
        ("p cnf 2 y\n1 0\n", "line 1: bad count in problem line"),
        ("p cnf 1_0 1\n1 0\n", "line 1: bad count in problem line"),
        ("p cnf 2 +1\n1 0\n", "line 1: bad count in problem line"),
        ("p cnf \u00b2 1\n1 0\n", "line 1: bad count in problem line"),
        ("p cnf -1 0\n", "^line 1: bad count in problem line: 'p cnf -1 0'$"),
        ("p cnf 2 -1\n", "^line 1: bad count in problem line: 'p cnf 2 -1'$"),
        ("p cnf 2 1\n+1 0\n", r"line 2: invalid literal '\+1'"),
        ("p cnf 12 1\n1_2 0\n", "line 2: invalid literal '1_2'"),
        ("p cnf 2 1\n-\u0662 0\n", "line 2: invalid literal"),
        ("p cnf 2 1\np cnf 3 1\n1 3 0\n", "line 2: second problem line"),
        ("1 2 0\np cnf 2 1\n", "line 1: missing problem line"),
        ("c note\np cnf 2 1\n1 -3 0\n", "line 3: literal -3 out of range"),
        ("p cnf 2 1\n1\n3 0\n", "line 3: literal 3 out of range"),
    ],
)
def test_dimacs_parser_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        parse_dimacs(text)
