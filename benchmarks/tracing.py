"""Span tracing around hfree's public functions, installed from outside.

`Tracer.install()` rebinds every public function of every hfree module,
including the names one module imported from another (so
`hfree.solver.find_embedding` is traced where the solver calls it). Each
call records a span: name, start, end, parent span and item id, kept in
flat arrays and written out once at the end. A span's self time is its
duration minus its children's. hfree's source is left as it is; the
rebinding is undone by `uninstall()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = (
    "harness", "cli", "formats", "cnf", "reductions", "gadgets", "minones",
    "graphs", "solver", "verify", "patterns",
)
MODULES = LAYERS[1:]

# Per-element helpers that run inside inner loops: a span each would cost
# more than the work they do, so their time stays with their caller.
UNTRACED = frozenset({
    "edge_key", "match_plan", "match_plan_seeded", "literal_value",
    "constraint_arity", "eval_constraint",
})
MATCHER = "graphs.find_embedding"
COPY_SEARCH = frozenset({"graphs.find_induced_copy", "graphs.is_h_free", "graphs.enumerate_induced_copies"})
CONTRACTS = frozenset({
    "gadgets.check_c4_deletion_gadgets", "gadgets.check_c5_deletion_gadgets",
    "gadgets.check_c4_completion_gadgets",
})
PARSERS = frozenset({"formats.parse_instance", "formats.parse_minones"})
RENDERERS = frozenset({"formats.render_instance", "formats.render_minones"})
BUILDER_LAYERS = frozenset({"reductions", "gadgets", "minones"})
ITEM_SPAN = "harness.item"

# find_embedding span flags
ANCHORED, FOUND, VIA_SOLVER = 1, 2, 4


def built_elements(result):
    """(object, size) for what a builder returned: vertices plus edges of a
    graph, variables plus constraints of a counting instance."""
    while isinstance(result, tuple) and result:
        result = result[0]
    instance = getattr(result, "instance", result)
    graph = getattr(instance, "graph", instance)
    if hasattr(graph, "vertex_count") and hasattr(graph, "edges"):
        return graph, graph.vertex_count + len(graph.edges)
    if hasattr(graph, "variable_count") and hasattr(graph, "constraints"):
        return graph, graph.variable_count + len(graph.constraints)
    return None, 0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.item_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.info = array("q")
        self.error_spans = []
        self.error_types = []
        self.stack = [-1]
        self._builds = []
        self._saved = []
        self.current = [-1]  # item id of new spans; -1 outside items

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def clear(self) -> None:
        """Drop every recorded span; wrappers keep pointing at the same arrays."""
        for column in (self.name_ids, self.parents, self.item_ids, self.starts, self.ends, self.info):
            del column[:]
        del self.error_spans[:]
        del self.error_types[:]
        del self.stack[1:]

    def begin_item(self, item_id: int) -> None:
        self.current[0] = item_id
        idx = len(self.name_ids)
        self.name_ids.append(self._name_id(ITEM_SPAN))
        self.parents.append(self.stack[-1])
        self.item_ids.append(item_id)
        self.info.append(0)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.stack.append(idx)

    def end_item(self) -> None:
        idx = self.stack.pop()
        self.ends[idx] = time.perf_counter()
        self.current[0] = -1
        if len(self.stack) != 1 or self.name_ids[idx] != self._name_id(ITEM_SPAN):
            raise RuntimeError("span stack out of balance at the end of an item")

    def _wrap(self, fn, name: str, site: str):
        name_id = self._name_id(name)
        clock = time.perf_counter
        names, parents, items, starts, ends, info = (
            self.name_ids, self.parents, self.item_ids, self.starts, self.ends, self.info,
        )
        stack, current = self.stack, self.current
        error_spans, error_types, builds = self.error_spans, self.error_types, self._builds
        owner = name.split(".")[0]

        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the caller's work between resumes is
            # not billed to the generator.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(names)
                    names.append(name_id)
                    parents.append(stack[-1])
                    items.append(current[0])
                    info.append(0)
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        value = next(gen)
                    except StopIteration:
                        ends[idx] = clock()
                        stack.pop()
                        return
                    except BaseException as error:
                        ends[idx] = clock()
                        stack.pop()
                        error_spans.append(idx)
                        error_types.append(error.__class__.__name__)
                        raise
                    ends[idx] = clock()
                    stack.pop()
                    yield value

            return traced_generator

        if name == MATCHER:
            via = VIA_SOLVER if site == "solver" else 0

            # Kept to C-level calls between entry and exit, so a
            # RecursionError raised inside the matcher cannot leave the
            # span stack unbalanced.
            @functools.wraps(fn)
            def traced_matcher(*args, **kwargs):
                fixed = args[6] if len(args) > 6 else kwargs.get("fixed")
                idx = len(names)
                names.append(name_id)
                parents.append(stack[-1])
                items.append(current[0])
                info.append(via | (ANCHORED if fixed is not None else 0))
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                except BaseException as error:
                    ends[idx] = clock()
                    stack.pop()
                    error_spans.append(idx)
                    error_types.append(error.__class__.__name__)
                    raise
                ends[idx] = clock()
                stack.pop()
                if result is not None:
                    info[idx] |= FOUND
                return result

            return traced_matcher

        parse = name in PARSERS
        render = name in RENDERERS
        build = owner in BUILDER_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(current[0])
            info.append(len(args[0]) if parse and args else 0)
            ends.append(0.0)
            if build:
                builds.append([])
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                ends[idx] = clock()
                stack.pop()
                if build:
                    builds.pop()
                error_spans.append(idx)
                error_types.append(error.__class__.__name__)
                raise
            ends[idx] = clock()
            stack.pop()
            if render:
                info[idx] = len(result)
            elif build:
                _credit_build(builds, idx, info, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public hfree function in every hfree module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in MODULES:
            module = importlib.import_module(f"hfree.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in UNTRACED:
                    continue
                if not (inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith("hfree."):
                    continue
                name = f"{home.split('.')[1]}.{value.__name__}"
                setattr(module, attr, self._wrap(value, name, layer))
                self._saved.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- reading ---------------------------------------------------------

    def summarize(self, items=None) -> dict:
        """Per-layer figures over the spans of the given item ids (all when
        None). Counts are exact; times are seconds."""
        names, parents, item_ids = self.name_ids, self.parents, self.item_ids
        starts, ends, info = self.starts, self.ends, self.info
        n = len(names)
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        span_layer = [layer_index[name.split(".")[0]] for name in self.names]
        copy_bit = 1 << len(LAYERS)
        contract_bit = copy_bit << 1
        copy_ids = {self._name_ids[x] for x in COPY_SEARCH if x in self._name_ids}
        contract_ids = {self._name_ids[x] for x in CONTRACTS if x in self._name_ids}
        item_id = self._name_ids.get(ITEM_SPAN, -1)
        matcher = self._name_ids.get(MATCHER, -1)
        parse_ids = {self._name_ids[x] for x in PARSERS if x in self._name_ids}
        render_ids = {self._name_ids[x] for x in RENDERERS if x in self._name_ids}
        solve_min = self._name_ids.get("solver.solve_min", -1)
        solve_sandwich = self._name_ids.get("solver.solve_sandwich", -1)

        duration = [ends[i] - starts[i] for i in range(n)]
        children = [0.0] * n
        above = [0] * n  # bitmask of layers (and groups) among a span's ancestors
        for i in range(n):
            p = parents[i]
            if p >= 0:
                children[p] += duration[i]
                mark = 1 << span_layer[names[p]]
                if names[p] in copy_ids:
                    mark |= copy_bit
                if names[p] in contract_ids:
                    mark |= contract_bit
                above[i] = above[p] | mark

        wanted = None if items is None else set(items)
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "busy_s")}
        counts = {
            "graphs.match_calls": 0,
            "graphs.match_anchored_calls": 0,
            "solver.nodes": 0,
            "solver.packing_calls": 0,
            "solver.packing_hits": 0,
            "solver.rounds": 0,
            "solver.limit_hits": 0,
            "formats.bytes_parsed": 0,
            "formats.bytes_rendered": 0,
            "reductions.elements_built": 0,
            "gadgets.elements_built": 0,
            "minones.elements_built": 0,
            "trace.spans": 0,
        }
        calls = {}
        match_busy = copy_busy = contracts = item_s = self_sum = 0.0
        for i in range(n):
            if wanted is not None and item_ids[i] not in wanted:
                continue
            name = names[i]
            layer = LAYERS[span_layer[name]]
            own = duration[i] - children[i]
            self_sum += own
            out[f"{layer}.self_s"] += own
            if not above[i] >> span_layer[name] & 1:
                out[f"{layer}.busy_s"] += duration[i]
            counts["trace.spans"] += 1
            key = self.names[name]
            calls[key] = calls.get(key, 0) + 1
            if name == item_id:
                item_s += duration[i]
            elif name == matcher:
                match_busy += duration[i]
                flags = info[i]
                counts["graphs.match_calls"] += 1
                counts["graphs.match_anchored_calls"] += flags & ANCHORED
                if flags & VIA_SOLVER:
                    if flags & ANCHORED:
                        counts["solver.packing_calls"] += 1
                        counts["solver.packing_hits"] += (flags & FOUND) // FOUND
                    else:
                        counts["solver.nodes"] += 1
            elif name in parse_ids:
                counts["formats.bytes_parsed"] += info[i]
            elif name in render_ids:
                counts["formats.bytes_rendered"] += info[i]
            elif layer in BUILDER_LAYERS:
                counts[f"{layer}.elements_built"] += info[i]
            if name in copy_ids and not above[i] & copy_bit:
                copy_busy += duration[i]
            if name in contract_ids and not above[i] & contract_bit:
                contracts += duration[i]
            if name == solve_sandwich and parents[i] >= 0 and names[parents[i]] == solve_min:
                counts["solver.rounds"] += 1
        for idx, kind in zip(self.error_spans, self.error_types):
            if (wanted is None or item_ids[idx] in wanted) and names[idx] == solve_sandwich:
                counts["solver.limit_hits"] += kind == "SearchLimitError"
        packing = counts["solver.packing_calls"]
        out.update(counts)
        out.update({
            "graphs.match_busy_s": match_busy,
            "graphs.copy_search_busy_s": copy_busy,
            "gadgets.contracts_s": contracts,
            "solver.packing_hit_ratio": counts["solver.packing_hits"] / packing if packing else 0.0,
            "trace.item_s": item_s,
            "trace.self_sum_s": self_sum,
        })
        return {"metrics": out, "counts": {**counts, **{f"calls.{k}": v for k, v in calls.items()}}}

    def write(self, path) -> None:
        """All spans as tab-separated text, times relative to the first span."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            for i in range(len(self.name_ids)):
                handle.write(
                    f"{i}\t{self.parents[i]}\t{self.item_ids[i]}\t{self.names[self.name_ids[i]]}"
                    f"\t{self.starts[i] - origin:.9f}\t{self.ends[i] - origin:.9f}\n"
                )


def _credit_build(builds, idx, info, result):
    """Credit a builder span with what it built, unless a nested builder
    span already returned the same object."""
    inner = builds.pop()
    built, size = built_elements(result)
    if built is not None and not any(built is other for other in inner):
        info[idx] = size
    if builds:
        builds[-1].append(built)
        builds[-1].extend(inner)
