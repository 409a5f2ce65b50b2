"""Command line front end over the reductions, lifts, oracles, and checks.

Formulas travel as DIMACS CNF, sandwich instances as hfi text, and counting
instances as minones text. Every command reads one input (`-i FILE`, stdin
when absent) and writes one output (`-o FILE`, stdout when absent). Output
is deterministic: the same input bytes and flags produce the same output
bytes.

Exit codes: 0 on success or a passing check, 1 on a failing check, 2 on a
usage or parse error, 3 when a guard or the node limit cut the run short,
4 on an internal error.
"""

from __future__ import annotations

import argparse
import itertools
import random
import re
import sys

from .cnf import parse_dimacs
from .formats import parse_instance, parse_minones, render_instance, render_minones
from .gadgets import FORMULA_TARGETS, LIFT_FAMILIES, lift_specific, reduce_formula
from .graphs import Graph
from .minones import (
    quarantined_instance,
    reduce_knexdel_to_minones,
    reduce_minones_to_quarantined,
)
from .patterns import complement_pattern, named_pattern
from .reductions import Polynomial, complement_instance
from .solver import (
    DEFAULT_NODE_LIMIT,
    DELETION,
    SearchLimitError,
    solve_min,
    solve_sandwich,
)
from .verify import (
    DUALITY_VERTEX_GUARD,
    EQUIVALENCE_TARGETS,
    verify_duality,
    verify_gadget_contracts,
    verify_gap,
    verify_opt_scaling,
    verify_sat_equivalence,
)

REDUCE_TARGETS = (*FORMULA_TARGETS, "house-del", "minones2graph", "graph2minones")
VERIFY_CHECKS = ("equivalence", "gap", "duality", "scaling", "gadgets")
_VERDICT_EXIT = {"pass": 0, "fail": 1, "skipped": 3}


def _read_text(args) -> str:
    if args.input is None:
        return sys.stdin.buffer.read().decode("ascii")
    with open(args.input, encoding="ascii") as handle:
        return handle.read()


def _write_text(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)


def _flag_pattern(args):
    return named_pattern(args.pattern) if args.pattern else None


def _clique_order(args) -> int:
    """Clique order for the counting translations, taken from --pattern."""
    name = args.pattern or "k5e"
    match = re.fullmatch(r"k(\d+)e", name)
    if match is None or int(match.group(1)) < 5:
        raise ValueError("counting translations need a k<n>e pattern with n >= 5")
    return int(match.group(1))


def _variable_labels(pairs):
    """Label entries for per-variable (true, false) marker pairs."""
    labels = []
    for i, (true_pair, false_pair) in enumerate(pairs, start=1):
        labels.append((f"x{i}-true", true_pair))
        labels.append((f"x{i}-false", false_pair))
    return labels


def _cmd_reduce(args) -> int:
    target = args.target
    if target == "minones2graph":
        n = _clique_order(args)
        inst = parse_minones(_read_text(args))
        graph, quarantine, groups = reduce_minones_to_quarantined(inst, n)
        labels = [
            (f"x{i}", pair)
            for i, group in enumerate(groups.groups)
            for pair in sorted(group)
        ]
        _write_text(args, render_instance(quarantined_instance(graph, quarantine, n), labels=labels))
        return 0
    if target == "graph2minones":
        n = _clique_order(args)
        file = parse_instance(_read_text(args), named_pattern(f"k{n}e"))
        inst, _ = reduce_knexdel_to_minones(file.instance.graph, n)
        _write_text(args, render_minones(inst))
        return 0

    general = target in FORMULA_TARGETS and FORMULA_TARGETS[target][1]
    if general and args.pattern is None:
        raise ValueError(f"reduce {target} needs --pattern")
    if not general and args.pattern is not None:
        raise ValueError(f"reduce {target} fixes its own pattern")
    if target == "house-del":
        if args.poly is None:
            raise ValueError("reduce house-del needs --poly")
        return _lift(args, "house-del", named_pattern("c4"))

    instance, trace = reduce_formula(target, parse_dimacs(_read_text(args)), _flag_pattern(args))
    _write_text(args, render_instance(instance, labels=_variable_labels(trace.variable_pairs)))
    return 0


def _lift(args, family, default_pattern) -> int:
    file = parse_instance(_read_text(args), default_pattern)
    budgeted = lift_specific(file.instance, family, Polynomial.parse(args.poly))
    _write_text(
        args,
        render_instance(budgeted.instance, budget=budgeted.budget, labels=file.labels),
    )
    return 0


def _cmd_lift(args) -> int:
    return _lift(args, args.family, _flag_pattern(args))


def _cmd_complement(args) -> int:
    file = parse_instance(_read_text(args), _flag_pattern(args))
    flipped = complement_instance(file.instance)
    _write_text(args, render_instance(flipped, budget=file.budget, labels=file.labels))
    return 0


def _cmd_solve(args) -> int:
    file = parse_instance(_read_text(args), _flag_pattern(args))
    budget = args.budget if args.budget is not None else file.budget
    if budget is None and not args.existence:
        solution = solve_min(file.instance, node_limit=args.node_limit)
    else:
        solution = solve_sandwich(file.instance, budget=budget, node_limit=args.node_limit)
    if solution is None:
        _write_text(args, "RESULT no solve\n")
        return 0
    if args.existence:
        _write_text(args, "RESULT yes solve\n")
        return 0
    verb = "delete" if file.instance.mode == DELETION else "fill"
    lines = [f"RESULT yes solve cost={len(solution)}"]
    lines.extend(f"{verb} {u} {v}" for u, v in sorted(solution))
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def _report_text(report) -> str:
    if report.verdict == "pass":
        prose = "every compared route agreed"
    elif report.verdict == "fail":
        prose = "the routes disagree; the witness field above pins the input"
    else:
        prose = f"skipped, {report.details.get('reason', 'guard tripped')}"
    return f"{report.result_line()}\n{report.check}: {prose}\n"


def _random_duality_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(4, DUALITY_VERTEX_GUARD)
    edges = {pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.5}
    return Graph(n, edges)


def _cmd_verify(args) -> int:
    if args.check == "equivalence":
        if args.target is None:
            raise ValueError("verify equivalence needs --target")
        report = verify_sat_equivalence(
            parse_dimacs(_read_text(args)), args.target, _flag_pattern(args)
        )
    elif args.check == "gap":
        if args.family is None or args.poly is None:
            raise ValueError("verify gap needs --family and --poly")
        file = parse_instance(_read_text(args), _flag_pattern(args))
        report = verify_gap(file.instance, args.family, Polynomial.parse(args.poly))
    elif args.check == "duality":
        budget = args.budget if args.budget is not None else 2
        if args.input is None:
            g = _random_duality_graph(args.seed)
            pattern = named_pattern(args.pattern or "house")
        else:
            file = parse_instance(_read_text(args), _flag_pattern(args))
            g = file.instance.graph
            pattern = _flag_pattern(args) or file.instance.pattern
        report = verify_duality(g, pattern, budget)
    elif args.check == "scaling":
        report = verify_opt_scaling(parse_minones(_read_text(args)), n=_clique_order(args))
    else:
        report = verify_gadget_contracts()
    _write_text(args, _report_text(report))
    return _VERDICT_EXIT[report.verdict]


def _cmd_pattern(args) -> int:
    pattern = named_pattern(args.name)
    lines = [
        f"pattern {pattern.name}",
        f"vertices {pattern.vertex_count}",
        f"edges {pattern.edge_count}",
        f"non-edges {len(pattern.non_edges)}",
        f"three-connected {'yes' if pattern.three_connected else 'no'}",
        f"complement {complement_pattern(pattern).name}",
    ]
    lines.extend(f"edge {u} {v}" for u, v in sorted(pattern.edges))
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", metavar="FILE", help="read from FILE instead of stdin")
    common.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")
    common.add_argument(
        "--pattern", metavar="NAME", help="pattern name, e.g. house, c4, k5e, co-p5"
    )

    parser = argparse.ArgumentParser(
        prog="hfree",
        description="Reductions, gap lifts, and exact oracles for pattern-free edge modification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser(
        "reduce", parents=[common], help="translate between problem encodings"
    )
    reduce_p.add_argument("target", choices=REDUCE_TARGETS)
    reduce_p.add_argument(
        "--poly", metavar="A,D,C", help="amplification polynomial for house-del"
    )
    reduce_p.set_defaults(handler=_cmd_reduce)

    lift_p = sub.add_parser("lift", parents=[common], help="amplify an instance's gap")
    lift_p.add_argument("--family", required=True, choices=LIFT_FAMILIES)
    lift_p.add_argument("--poly", required=True, metavar="A,D,C")
    lift_p.set_defaults(handler=_cmd_lift)

    comp_p = sub.add_parser(
        "complement", parents=[common], help="swap the deletion and completion views"
    )
    comp_p.set_defaults(handler=_cmd_complement)

    solve_p = sub.add_parser("solve", parents=[common], help="run the exact sandwich oracle")
    solve_p.add_argument("--budget", type=int, metavar="K", help="cap the solution size")
    solve_p.add_argument(
        "--existence", action="store_true", help="report yes or no without a witness"
    )
    solve_p.add_argument(
        "--node-limit",
        type=int,
        default=DEFAULT_NODE_LIMIT,
        help="abort oracle searches after this many nodes",
    )
    solve_p.set_defaults(handler=_cmd_solve)

    verify_p = sub.add_parser(
        "verify", parents=[common], help="machine-check one documented claim"
    )
    verify_p.add_argument("check", choices=VERIFY_CHECKS)
    verify_p.add_argument(
        "--target", choices=EQUIVALENCE_TARGETS, help="equivalence route to check"
    )
    verify_p.add_argument("--family", choices=LIFT_FAMILIES, help="gap lift family")
    verify_p.add_argument("--poly", metavar="A,D,C", help="gap certification polynomial")
    verify_p.add_argument("--budget", type=int, metavar="K", help="duality budget, default 2")
    verify_p.add_argument("--seed", type=int, default=0, help="seed for the generated duality graph")
    verify_p.set_defaults(handler=_cmd_verify)

    pattern_p = sub.add_parser("pattern", parents=[common], help="describe a named pattern")
    pattern_p.add_argument("action", choices=("info",))
    pattern_p.add_argument("name")
    pattern_p.set_defaults(handler=_cmd_pattern)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SearchLimitError:
        _write_text(args, f"RESULT skipped {args.command} node-limit\n")
        return 3
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        _write_text(args, f"RESULT error {args.command} {type(error).__name__}\n")
        print(f"error: {error}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
