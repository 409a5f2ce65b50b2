"""Command line front end over the reductions, lifts, oracles, and checks.

Formulas travel as DIMACS CNF, sandwich instances as hfi text, and counting
instances as minones text. Every route but `pattern info` and `verify
gadgets` reads one input (`-i FILE`, stdin when absent; `verify duality`
makes a graph from `--seed` instead), and every route writes one output
(`-o FILE`, stdout when absent). Output is deterministic: the same input
bytes and flags produce the same output bytes. Each reduce target and
verify check is a sub-parser that declares exactly the flags its handler
reads.

Exit codes: 0 on success or a passing check, 1 on a failing check, 2 on a
usage or parse error, 3 when a guard or the node limit cut the run short,
4 on an internal error. A flag the route does not take, or a required one
left out, exits 2 from argparse before any file is read; content that
cannot be read (a malformed file, an unknown pattern name, a pattern a
target fixes itself) exits 2 from the ValueError it raises.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys

from .cnf import _read_int, parse_dimacs
from .formats import parse_instance, parse_minones, render_instance, render_minones
from .gadgets import FORMULA_TARGETS, LIFT_FAMILIES, lift_specific, reduce_formula
from .graphs import Graph
from .minones import reduce_knexdel_to_minones, reduce_minones_to_quarantined
from .patterns import complement_pattern, complete_minus_edge, named_pattern
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
    pattern = named_pattern(args.pattern or "k5e")
    if pattern.vertex_count < 5 or pattern.graph != complete_minus_edge(pattern.vertex_count):
        raise ValueError("counting translations need a k<n>e pattern with n >= 5")
    return pattern.vertex_count


def _cmd_formula(args) -> int:
    instance, trace = reduce_formula(args.target, parse_dimacs(_read_text(args)), _flag_pattern(args))
    # each variable's (true, false) marker pairs
    labels = [
        (f"x{i}-{side}", pair)
        for i, pairs in enumerate(trace.variable_pairs, start=1)
        for side, pair in zip(("true", "false"), pairs)
    ]
    _write_text(args, render_instance(instance, labels=labels))
    return 0


def _cmd_minones2graph(args) -> int:
    n = _clique_order(args)
    inst = parse_minones(_read_text(args))
    instance, groups = reduce_minones_to_quarantined(inst, n)
    labels = [(f"x{i}", pair) for i, group in enumerate(groups.groups) for pair in sorted(group)]
    _write_text(args, render_instance(instance, labels=labels))
    return 0


def _cmd_graph2minones(args) -> int:
    n = _clique_order(args)
    file = parse_instance(_read_text(args), named_pattern(f"k{n}e"))
    inst, _ = reduce_knexdel_to_minones(file.instance.graph, n)
    _write_text(args, render_minones(inst))
    return 0


def _cmd_lift(args) -> int:
    file = parse_instance(_read_text(args), _flag_pattern(args))
    budgeted = lift_specific(file.instance, args.family, Polynomial.parse(args.poly))
    _write_text(
        args,
        render_instance(budgeted.instance, budget=budgeted.budget, labels=file.labels),
    )
    return 0


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


def _verify_equivalence(args):
    return verify_sat_equivalence(parse_dimacs(_read_text(args)), args.target, _flag_pattern(args))


def _verify_gap(args):
    file = parse_instance(_read_text(args), _flag_pattern(args))
    return verify_gap(file.instance, args.family, Polynomial.parse(args.poly))


def _verify_duality(args):
    """Duality on the -i graph, or on one generated from --seed."""
    if args.input is None:
        rng = random.Random(args.seed)
        n = rng.randint(4, DUALITY_VERTEX_GUARD)
        g = Graph(n, {pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.5})
        return verify_duality(g, named_pattern(args.pattern or "house"), args.budget)
    file = parse_instance(_read_text(args), _flag_pattern(args))
    return verify_duality(file.instance.graph, _flag_pattern(args) or file.instance.pattern, args.budget)


def _verify_scaling(args):
    return verify_opt_scaling(parse_minones(_read_text(args)), n=_clique_order(args))


def _verify_gadgets(args):
    return verify_gadget_contracts()


def _cmd_verify(args) -> int:
    report = globals()[args.checker](args)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every route, built on first use and kept for the process.

    Each route declares exactly the flags its handler reads, so argparse
    alone refuses a flag that a route would ignore. No parser takes a
    prefix of a long flag for the flag itself. Routes record their handler
    by name, and main looks it up on this module at call time.
    """

    def flag(*names, **kwargs):
        # a parent parser holding one option, for the routes that read it
        holder = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        holder.add_argument(*names, **kwargs)
        return holder

    def route(routes, name, handler, parents, help=None, **defaults):
        parser = routes.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        parser.set_defaults(handler=handler, **defaults)
        return parser

    source = flag("-i", "--input", metavar="FILE", help="read from FILE instead of stdin")
    output = flag("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")
    pattern_help = "pattern name, e.g. house, c4, k5e, co-p5"
    pattern = flag("--pattern", metavar="NAME", help=pattern_help)
    named = [source, output, pattern]
    general = [source, output, flag("--pattern", required=True, metavar="NAME", help=pattern_help)]
    poly = flag("--poly", required=True, metavar="A,D,C", help="polynomial a*k^d + c")
    lifting = [*named, flag("--family", required=True, choices=LIFT_FAMILIES, help="lift family"), poly]

    parser = argparse.ArgumentParser(
        prog="hfree",
        description="Reductions, gap lifts, and exact oracles for pattern-free edge modification.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    reduce_p = commands.add_parser("reduce", help="translate between problem encodings", allow_abbrev=False)
    targets = reduce_p.add_subparsers(dest="target", required=True)
    for target, (_, takes_pattern, _) in FORMULA_TARGETS.items():
        route(targets, target, "_cmd_formula", general if takes_pattern else [source, output], pattern=None)
    route(targets, "house-del", "_cmd_lift", [source, output, poly], family="house-del", pattern="c4")
    route(targets, "minones2graph", "_cmd_minones2graph", named)
    route(targets, "graph2minones", "_cmd_graph2minones", named)

    route(commands, "lift", "_cmd_lift", lifting, help="amplify an instance's gap")
    route(commands, "complement", "_cmd_complement", named, help="swap the deletion and completion views")

    solve_p = route(commands, "solve", "_cmd_solve", named, help="run the exact sandwich oracle")
    solve_p.add_argument("--budget", type=_read_int, metavar="K", help="cap the solution size")
    solve_p.add_argument(
        "--existence", action="store_true", help="report yes or no without a witness"
    )
    solve_p.add_argument(
        "--node-limit",
        type=_read_int,
        default=DEFAULT_NODE_LIMIT,
        help="abort oracle searches after this many nodes",
    )

    verify_p = commands.add_parser("verify", help="machine-check one documented claim", allow_abbrev=False)
    checks = verify_p.add_subparsers(dest="check", required=True)
    equivalence_p = route(checks, "equivalence", "_cmd_verify", named, checker="_verify_equivalence")
    equivalence_p.add_argument("--target", required=True, choices=EQUIVALENCE_TARGETS, help="route to check")
    route(checks, "gap", "_cmd_verify", lifting, checker="_verify_gap")
    duality_p = route(checks, "duality", "_cmd_verify", [output, pattern], checker="_verify_duality")
    duality_p.add_argument("--budget", type=_read_int, default=2, metavar="K", help="budget, default 2")
    # the graph comes from the file or from the seed, never both
    graph_source = duality_p.add_mutually_exclusive_group()
    graph_source.add_argument("-i", "--input", metavar="FILE", help="read the graph from FILE")
    graph_source.add_argument("--seed", type=_read_int, default=0, help="seed for the graph made without -i")
    route(checks, "scaling", "_cmd_verify", named, checker="_verify_scaling")
    route(checks, "gadgets", "_cmd_verify", [output], checker="_verify_gadgets")

    pattern_p = route(commands, "pattern", "_cmd_pattern", [output], help="describe a named pattern")
    pattern_p.add_argument("action", choices=("info",))
    pattern_p.add_argument("name")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
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
