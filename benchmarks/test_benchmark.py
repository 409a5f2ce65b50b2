"""Tests for the benchmark itself: reproducible inputs, span arithmetic,
failure accounting and counter determinism.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hfree.graphs as graphs  # noqa: E402
import hfree.solver as solver  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from harness import CAPPED, ERROR, PASS, SKIPPED, WRONG, Item, run_item, summarize  # noqa: E402
from hfree.verify import VerificationReport  # noqa: E402
from run import warm_up  # noqa: E402
from tracing import FOUND, ITEM_SPAN, Tracer  # noqa: E402

CAPPED_ERRORS = (solver.SearchLimitError,)


def names(items):
    return [item.name for item in items]


# -- generators --------------------------------------------------------------


def test_rounds_are_reproducible_for_a_seed(tmp_path):
    for cls in (workloads.Certify, workloads.Ladders):
        assert names(cls(7, tmp_path).round(2)) == names(cls(7, tmp_path).round(2))
        assert names(cls(7, tmp_path).round(0)) != names(cls(8, tmp_path).round(0))
    assert workloads.formula_population(3) == workloads.formula_population(3)
    assert workloads.gap_population(3) == workloads.gap_population(3)
    assert workloads.small_population(3) == workloads.small_population(3)
    assert workloads.translate_pool() == workloads.translate_pool()


def test_other_seeds_rename_seed_zero():
    """A seed renames seed 0's inputs: new inputs of the same shape and
    answer."""
    import reference

    base, renamed = workloads.formula_population(0), workloads.formula_population(5)
    assert base != renamed
    for f, g in zip(base, renamed):
        assert (f.variable_count, len(f.clauses)) == (g.variable_count, len(g.clauses))
        assert reference.satisfiable(f.variable_count, f.clauses) == reference.satisfiable(
            g.variable_count, g.clauses
        )
    for family, bucket in workloads.gap_population(5).items():
        for a, b in zip(workloads.gap_population(0)[family], bucket):
            assert a.graph.degree_sequence() == b.graph.degree_sequence()
            assert (a.pattern, a.mode, len(a.free)) == (b.pattern, b.mode, len(b.free))
    small0, small5 = workloads.small_population(0), workloads.small_population(5)
    assert small0 != small5
    for spec in small0:
        assert [opt for _, opt in small0[spec]] == [opt for _, opt in small5[spec]]


def test_translate_rounds_only_use_recorded_outputs(tmp_path):
    translate = workloads.Translate(11, tmp_path)
    for r in range(3):
        for item in translate.round(r):
            assert item.name.removeprefix("translate/") in translate.digests


def test_seed_zero_is_the_acceptance_corpora():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        acceptance = pytest.importorskip("test_acceptance")
    finally:
        sys.path.remove(str(ROOT / "tests"))
    assert workloads.formula_population(0) == acceptance.formula_corpus()
    assert workloads.gap_population(0) == acceptance.gap_corpus()
    assert workloads.full_rigid_kernel("house-del") == acceptance.gap_corpus()["house-del"][46]


# -- failure accounting ------------------------------------------------------


def stubbed(item, call):
    return dataclasses.replace(item, call=call)


def raise_(error):
    def call():
        raise error

    return call


def test_stub_outcomes_count_as_failed(tmp_path):
    certify = workloads.Certify(0, tmp_path)
    item = next(i for i in certify.round(0) if i.name.startswith("eq/"))
    wrong_sat = VerificationReport("sat-equivalence", "0", "pass", {"sat": "maybe", "sandwich": "maybe"})
    skipped = VerificationReport("sat-equivalence", "0", "skipped", {"reason": "guard"})
    outcomes = [
        run_item(item, CAPPED_ERRORS),
        run_item(stubbed(item, raise_(ValueError("boom"))), CAPPED_ERRORS),
        run_item(stubbed(item, raise_(RecursionError())), CAPPED_ERRORS),
        run_item(stubbed(item, raise_(solver.SearchLimitError("cap"))), CAPPED_ERRORS),
        run_item(stubbed(item, lambda: wrong_sat), CAPPED_ERRORS),
        run_item(stubbed(item, lambda: skipped), CAPPED_ERRORS),
    ]
    assert [o.status for o in outcomes] == [PASS, ERROR, ERROR, CAPPED, WRONG, SKIPPED]
    s = summarize(outcomes)
    assert (s["attempted"], s["failed"], s["wrong"]) == (6, 5, 1)
    assert s["pass_ratio"] == pytest.approx(1 / 6)


def test_wrong_costs_and_outputs_are_caught(tmp_path):
    ladders = workloads.Ladders(0, tmp_path)
    rung = ladders._min_rung("c4", 4)
    assert run_item(rung, CAPPED_ERRORS).status == PASS
    too_many = frozenset(sorted(ladders.rungs[("c4", 4)].free)[:5])
    assert run_item(stubbed(rung, lambda: too_many), CAPPED_ERRORS).status == WRONG
    small = ladders._small(workloads.RANDOM_SPECS[0], [0])
    assert run_item(small, CAPPED_ERRORS).status == PASS
    assert run_item(stubbed(small, lambda: [frozenset(range(99))]), CAPPED_ERRORS).status == WRONG
    assert run_item(stubbed(small, lambda: []), CAPPED_ERRORS).status == WRONG
    instance, optimum = ladders.small[workloads.RANDOM_SPECS[0]][0]
    # Right size, but not free pairs; right size, free, but leaving a copy.
    not_free = frozenset(sorted(set(instance.graph.non_edges()))[:optimum])
    leaves_copy = next(
        frozenset(chosen) for chosen in combinations(sorted(instance.free), optimum)
        if not workloads._solves(frozenset(chosen), instance)
    )
    for wrong in (not_free, leaves_copy):
        assert len(wrong) == optimum
        assert run_item(stubbed(small, lambda wrong=wrong: [wrong]), CAPPED_ERRORS).status == WRONG

    translate = workloads.Translate(0, tmp_path)
    item = translate.round(0)[0]
    assert run_item(item, CAPPED_ERRORS).status == PASS
    out = Path(next(iter(translate.round0))[1])

    def scribble():
        out.write_text(out.read_text() + "c changed\n")
        return 0

    assert run_item(stubbed(item, scribble), CAPPED_ERRORS).status == WRONG
    assert run_item(stubbed(item, lambda: 2), CAPPED_ERRORS).status == WRONG


def test_speed_probes_are_taken_out_of_item_times():
    def spin():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass

    speed.start()
    try:
        start = time.perf_counter()
        outcome = run_item(Item("spin", spin, lambda _: PASS))
        wall = time.perf_counter() - start
    finally:
        speed.stop()
    assert len(speed.samples) >= 4
    assert outcome.seconds == pytest.approx(wall - speed.stolen_s, abs=1e-3)
    # Probes every 100 ms: a fast spell, then a slow one with one preempted
    # probe (at 3.0 s), which counts for nothing.
    assert speed.MARGIN_S == 0.25
    speed.starts[:] = [i * 0.1 for i in range(40)]
    speed.samples[:] = [1e-3] * 20 + [2e-3] * 10 + [50e-3] + [2e-3] * 9
    ref = speed.REFERENCE_S
    assert speed.factor() == pytest.approx(ref / (58e-3 / 39))
    assert speed.factor(0.5, 1.0) == pytest.approx(ref / 1e-3)
    assert speed.factor(3.2, 3.3) == pytest.approx(ref / 2e-3)
    assert speed.factor(1.92, 1.93) == pytest.approx(ref / 1.4e-3)  # probes at 1.7 to 2.1


# -- spans -------------------------------------------------------------------


def add_span(tracer, name, parent, start, end, info=0, item=1):
    tracer.name_ids.append(tracer._name_id(name))
    tracer.parents.append(parent)
    tracer.item_ids.append(item)
    tracer.starts.append(start)
    tracer.ends.append(end)
    tracer.info.append(info)
    return len(tracer.name_ids) - 1


def test_self_time_arithmetic_on_synthetic_spans():
    tracer = Tracer()
    root = add_span(tracer, ITEM_SPAN, -1, 0.0, 10.0)
    solve = add_span(tracer, "solver.solve_sandwich", root, 1.0, 4.0)
    add_span(tracer, "graphs.find_embedding", solve, 2.0, 3.0, info=4 | FOUND)
    nested = add_span(tracer, "solver.solve_sandwich", solve, 3.0, 3.5)
    add_span(tracer, "graphs.find_embedding", nested, 3.1, 3.2, info=4 | 1)
    add_span(tracer, "formats.parse_instance", root, 5.0, 9.0, info=123)
    add_span(tracer, ITEM_SPAN, -1, 20.0, 21.0, item=2)
    m = tracer.summarize(items=[1])["metrics"]
    assert m["harness.self_s"] == pytest.approx(10 - 3 - 4)
    assert m["solver.self_s"] == pytest.approx((3 - 1 - 0.5) + (0.5 - 0.1))
    assert m["solver.busy_s"] == pytest.approx(3.0)
    assert m["graphs.self_s"] == pytest.approx(1.1)
    assert m["formats.self_s"] == pytest.approx(4.0)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.item_s"]) == pytest.approx(10.0)
    assert (m["solver.nodes"], m["solver.packing_calls"], m["solver.packing_hit_ratio"]) == (1, 1, 0.0)
    assert (m["graphs.match_calls"], m["graphs.match_anchored_calls"]) == (2, 1)
    assert m["formats.bytes_parsed"] == 123
    assert tracer.summarize()["metrics"]["trace.item_s"] == pytest.approx(11.0)


def test_traced_calls_nest_and_restore(tmp_path):
    original = graphs.find_embedding
    instance = workloads.disjoint_copies("c4", 3)
    tracer = Tracer()
    tracer.install()
    try:
        assert graphs.find_embedding is not original
        tracer.begin_item(1)
        assert len(solver.solve_min(instance)) == 3
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert graphs.find_embedding is original
    m = tracer.summarize()["metrics"]
    assert m["solver.rounds"] == 4  # existence, then budgets 0, 1 and 2
    assert m["solver.nodes"] > 0 and m["graphs.match_calls"] >= m["solver.nodes"]
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.item_s"], abs=1e-9)


def test_recursion_error_keeps_spans_balanced():
    instance = workloads.disjoint_copies("c4", 300)
    tracer = Tracer()
    tracer.install()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        tracer.begin_item(1)
        with pytest.raises(RecursionError):
            solver.solve_sandwich(instance)
        tracer.end_item()
    finally:
        sys.setrecursionlimit(limit)
        tracer.uninstall()
    assert tracer.stack == [-1]
    m = tracer.summarize()["metrics"]
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.item_s"], abs=1e-9)


def test_counts_repeat_exactly(tmp_path):
    certify = workloads.Certify(0, tmp_path)
    items = [i for i in certify.round(1) if not i.name.startswith("gap/house-del")][:25]
    warm_up()  # hfree's first-use work, which only the first pass would pay
    tracer = Tracer()
    tracer.install()
    counts = []
    try:
        for _ in range(2):
            tracer.clear()
            for item_id, item in enumerate(items, start=1):
                tracer.begin_item(item_id)
                assert run_item(item, CAPPED_ERRORS).status == PASS
                tracer.end_item()
            counts.append(tracer.summarize()["counts"])
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["graphs.match_calls"] > 0


# -- the command -------------------------------------------------------------


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    import run

    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER_UNITS)
    for m in spec["per_layer"]:
        assert run.PER_LAYER_UNITS[m["name"]] == m["unit"]
