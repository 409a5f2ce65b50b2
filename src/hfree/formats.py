"""Line-based text formats for instances and constraint systems.

Both formats are diff-friendly: one record per line, fixed section order,
pairs written smaller endpoint first, records sorted. Lines starting with
"c " (or a bare "c") and blank lines are comments and are skipped, so
files survive hand annotation; writers never emit them, keeping output
byte-identical across runs.

Instance files ("hfi") start with `hfi 1`, then `mode`, an optional
`pattern` naming line, `vertices`, the edge section, an optional `budget`,
and optional `label` lines. Deletable edges carry a trailing `free` token
and fillable pairs appear as `nonedge ... free`; a non-edge never listed
is not fillable. Constraint files start with `minones 1` and `nvars`,
followed by one constraint per line in instance order: `f1 a b c`,
`f2 a`, `fn <n> v...`, or `gn <n> v...`.

parse_instance checks every line itself, and names both lines of a fault
across lines: a fillable pair that is also an edge, or a label given
twice. It records each pair's and each label's line as it reads it, so
the instance constructor finds nothing left to refuse. render_instance
writes the edge lines from the graph's adjacency, row by row, and never
reads the graph's edge set, so a complement renders in time linear in its
output.
"""

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from .cnf import _read_count, _read_int
from .graphs import Graph
from .minones import MinOnesInstance, _checked_args, constraint_arity
from .patterns import named_pattern
from .solver import COMPLETION, DELETION, SandwichInstance


class FormatError(ValueError):
    """Unparseable or internally inconsistent instance text."""


@dataclass(frozen=True)
class InstanceFile:
    """Everything one hfi file carries: the instance, an optional budget,
    and labeled pairs in sorted order."""

    instance: SandwichInstance
    budget: int = None
    labels: tuple = field(default_factory=tuple)


def render_instance(instance: SandwichInstance, budget=None, labels=()) -> str:
    """Serialize an instance to hfi text.

    The pattern line is written only when the pattern has a name; nameless
    patterns round-trip only if the parser is handed the pattern back.
    Labels may repeat a name across several pairs but not an entire entry.
    """
    lines = ["hfi 1", f"mode {instance.mode}"]
    if instance.pattern.name:
        lines.append(f"pattern {instance.pattern.name}")
    graph = instance.graph
    n = graph.vertex_count
    lines.append(f"vertices {n}")
    # Edges come row by row from the adjacency, each row sorted on its own:
    # far cheaper than sorting the edge tuples when the graph is dense. Each
    # vertex name is made once, and a row with no free pair or only free
    # pairs, like each row of fillable pairs, is written in one join. Free
    # pairs in deletion are edges, so as many of them as edges means every
    # edge is free, and no per-row index of them is needed.
    names = [str(v) for v in range(n)]
    deleting = instance.mode == DELETION
    all_free = deleting and len(instance.free) == graph.edge_count
    free_above = defaultdict(list)
    if not all_free:
        for u, v in instance.free:
            free_above[u].append(v)
    for u in range(n):
        row = sorted(graph.neighbors(u))
        above = row[bisect_right(row, u):]
        if not above:
            continue
        head = f"edge {names[u]} "
        marked = above if all_free else free_above.get(u) if deleting else None
        if not marked or len(marked) == len(above):
            lines.append(_joined(head, above, names, " free" if marked else ""))
        else:
            marked = set(marked)
            lines += [head + names[v] + " free" if v in marked else head + names[v] for v in above]
    if not deleting:
        for u in sorted(free_above):
            lines.append(_joined(f"nonedge {names[u]} ", sorted(free_above[u]), names, " free"))
    if budget is not None:
        if budget < 0:
            raise FormatError("budget must be nonnegative")
        lines.append(f"budget {budget}")
    entries = sorted((str(name), (min(u, v), max(u, v))) for name, (u, v) in labels)
    if len(set(entries)) != len(entries):
        raise FormatError("duplicate label entry")
    for name, (u, v) in entries:
        if not name or any(ch.isspace() for ch in name):
            raise FormatError(f"label name {name!r} must be a single token")
        # What parse_instance reads back: two distinct vertices in range.
        if not 0 <= u < v < n:
            raise FormatError(f"label {name} pair ({u}, {v}) is not two distinct vertices of {n}")
        lines.append(f"label {name} {u} {v}")
    return "\n".join(lines) + "\n"


def _joined(head, vertices, names, tail):
    """One line head + name + tail per vertex, as a single string."""
    return head + (tail + "\n" + head).join([names[v] for v in vertices]) + tail


def _meaningful_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield number, line.split()


def _parse_pair(a, b, number, vertex_count):
    """The pair of endpoint tokens a and b as (min, max). Tokens of ASCII
    digits, what writers emit, skip _read_int's call; any other token gets
    its rule and its error."""
    if a.isdigit() and b.isdigit() and a.isascii() and b.isascii():
        u, v = int(a), int(b)
    else:
        try:
            u, v = _read_int(a), _read_int(b)
        except ValueError:
            raise FormatError(f"line {number}: endpoints must be integers") from None
    if u == v:
        raise FormatError(f"line {number}: pair endpoints must differ")
    if not (0 <= u < vertex_count and 0 <= v < vertex_count):
        raise FormatError(f"line {number}: endpoint out of range")
    return (u, v) if u < v else (v, u)


def _count(words, number, message):
    """The value of words when it is one unsigned integer token, else
    FormatError(message) for that line."""
    try:
        (token,) = words
        return _read_count(token)
    except ValueError:
        raise FormatError(f"line {number}: {message}") from None


def parse_instance(text: str, default_pattern=None) -> InstanceFile:
    """Parse hfi text back into an InstanceFile.

    default_pattern fills in for files without a pattern line; a file that
    names none and gets none is an error, because the instance cannot be
    interpreted without its pattern.
    """
    lines = _meaningful_lines(text)
    try:
        number, words = next(lines)
    except StopIteration:
        raise FormatError("empty instance file") from None
    if words != ["hfi", "1"]:
        raise FormatError(f"line {number}: expected 'hfi 1' header")

    mode = None
    pattern = default_pattern
    vertex_count = None
    # each pair and each label entry, with the line that gave it
    edges = {}
    free = {}
    budget = None
    labels = {}
    seen = set()
    for number, words in lines:
        # edge lines come first: nearly every line of a large file is one
        key = words[0]
        if key == "edge" or key == "nonedge":
            if mode is None or vertex_count is None:
                raise FormatError(f"line {number}: {key} before mode and vertices")
            marked = len(words) == 4
            if len(words) not in (3, 4) or marked and words[3] != "free":
                raise FormatError(f"line {number}: expected '{key} u v [free]'")
            pair = _parse_pair(words[1], words[2], number, vertex_count)
            if key == "edge":
                if pair in edges:
                    raise FormatError(f"line {number}: duplicate edge {pair}")
                edges[pair] = number
                if marked:
                    if mode != DELETION:
                        raise FormatError(f"line {number}: free edges belong to deletion instances")
                    free[pair] = number
            else:
                if not marked:
                    raise FormatError(f"line {number}: a nonedge line must be marked free")
                if mode != COMPLETION:
                    raise FormatError(f"line {number}: fillable pairs belong to completion instances")
                if pair in free:
                    raise FormatError(f"line {number}: duplicate nonedge {pair}")
                free[pair] = number
            continue
        rest = words[1:]
        if key in ("mode", "pattern", "vertices", "budget"):
            if key in seen:
                raise FormatError(f"line {number}: {key} given twice")
            seen.add(key)
        if key == "mode":
            if rest not in ([DELETION], [COMPLETION]):
                raise FormatError(f"line {number}: mode must be {DELETION} or {COMPLETION}")
            mode = rest[0]
        elif key == "pattern":
            if len(rest) != 1:
                raise FormatError(f"line {number}: pattern takes one name")
            try:
                pattern = named_pattern(rest[0])
            except ValueError as error:
                raise FormatError(f"line {number}: {error}") from None
        elif key == "vertices":
            vertex_count = _count(rest, number, "vertices takes one count")
        elif key == "budget":
            budget = _count(rest, number, "budget takes one nonnegative integer")
        elif key == "label":
            if len(rest) != 3 or vertex_count is None:
                raise FormatError(f"line {number}: expected 'label name u v' after vertices")
            entry = rest[0], _parse_pair(rest[1], rest[2], number, vertex_count)
            if entry in labels:
                raise FormatError(f"line {number}: duplicate label entry, given at line {labels[entry]}")
            labels[entry] = number
        else:
            raise FormatError(f"line {number}: unknown directive {key!r}")

    if mode is None or vertex_count is None:
        raise FormatError("instance file needs mode and vertices lines")
    if pattern is None:
        raise FormatError("instance file names no pattern and no default was given")
    if mode == COMPLETION:
        clash = free.keys() & edges.keys()
        if clash:
            pair = min(clash, key=free.__getitem__)
            raise FormatError(f"line {free[pair]}: free pair {pair} is already an edge, given at line {edges[pair]}")
    try:
        instance = SandwichInstance(Graph(vertex_count, edges), pattern, mode, frozenset(free))
    except ValueError as error:
        raise FormatError(str(error)) from None
    return InstanceFile(instance, budget, tuple(sorted(labels)))


def render_minones(inst: MinOnesInstance) -> str:
    lines = ["minones 1", f"nvars {inst.variable_count}"]
    for kind, args in inst.constraints:
        body = " ".join(str(x) for x in args)
        if kind in ("f1", "f2"):
            lines.append(f"{kind} {body}".rstrip())
        else:
            lines.append(f"{kind[:2]} {kind[2:]} {body}")
    return "\n".join(lines) + "\n"


def parse_minones(text: str) -> MinOnesInstance:
    lines = _meaningful_lines(text)
    try:
        number, words = next(lines)
    except StopIteration:
        raise FormatError("empty constraint file") from None
    if words != ["minones", "1"]:
        raise FormatError(f"line {number}: expected 'minones 1' header")
    variable_count = None
    constraints = []
    for number, words in lines:
        key, rest = words[0], words[1:]
        if key == "nvars":
            if variable_count is not None:
                raise FormatError(f"line {number}: nvars given twice")
            variable_count = _count(rest, number, "nvars takes one count")
            continue
        if variable_count is None:
            raise FormatError(f"line {number}: constraints before nvars")
        if key in ("f1", "f2"):
            kind = key
        elif key in ("fn", "gn"):
            order = _count(rest[:1], number, f"{key} needs its clique order first")
            kind, rest = f"{key}{order}", rest[1:]
        else:
            raise FormatError(f"line {number}: unknown constraint {key!r}")
        try:
            constraint_arity(kind)
        except ValueError:
            raise FormatError(f"line {number}: unsupported constraint kind {kind!r}") from None
        try:
            args = tuple(_read_int(x) for x in rest)
        except ValueError:
            raise FormatError(f"line {number}: arguments must be integers") from None
        try:
            constraints.append((kind, _checked_args(kind, args, variable_count)))
        except ValueError as error:
            raise FormatError(f"line {number}: {error}") from None
    if variable_count is None:
        raise FormatError("constraint file needs an nvars line")
    return MinOnesInstance(variable_count, tuple(constraints))
