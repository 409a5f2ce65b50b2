"""Benchmark for hfree: one workload, one seed, one process, closed loop.

    python3 benchmarks/run.py --workload certify --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: hfree is imported from its `src/`, never
from an installed copy. Items run one at a time, in rounds, until the timed
item work reaches --seconds and at least MIN_ITEMS items were attempted.

--trace 0 prints the end-to-end metrics, each time scaled by the
machine's speed while it was taken, as `speed.py` samples it. --trace 1
runs round 0 three times instead: twice with every public hfree function traced and once
untraced, to measure the tracing overhead, and has a child process with
another hash seed trace it once more. All traced passes must give
identical counts, or the run exits with code 3. It prints the per-layer
metrics and writes every span of both traced passes under .bench_work/
(one file per workload and pass, overwritten by the next run). The last
line of standard output is one JSON object; a human summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from harness import PASS, Item, summarize
from harness import run_item as grade
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Fresh-interpreter set-up samples per run, spread evenly over the timed
# item work so that drift in machine speed during the run hits them alike.
SETUP_SAMPLES = 5
# Ten items must lie beyond p90 for it to be reported.
MIN_ITEMS = 100
# The child samples its own speed, as the workload process does, and
# prints when its work ended, the probes' time and its speed factor.
SETUP_SCRIPT = (
    "import speed, time\n"
    "speed.start()\n"
    "import hfree.cli, hfree.verify\n"
    "from hfree.gadgets import check_c4_deletion_gadgets, check_c5_deletion_gadgets, "
    "check_c4_completion_gadgets\n"
    "check_c4_deletion_gadgets(); check_c5_deletion_gadgets(); check_c4_completion_gadgets()\n"
    "end = time.perf_counter()\n"
    "speed.stop()\n"
    "print(end, speed.stolen_s, speed.factor())\n"
)


def warm_up():
    """hfree's first-use work, done in this process before any timed item."""
    import hfree.gadgets as gadgets

    gadgets.check_c4_deletion_gadgets()
    gadgets.check_c5_deletion_gadgets()
    gadgets.check_c4_completion_gadgets()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "ladders", "translate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: trace round 0 once and print its counts (the traced run's
    # cross-process determinism check runs this in a child).
    parser.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports hfree and finishes its
    first-use work (the exhaustive gadget contracts), less its speed
    probes, scaled by its speed factor."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))), cwd=ROOT,
        check=True, timeout=120, capture_output=True, text=True,
    )
    # The child reads the same monotonic clock when its work is done, so
    # the sample does not depend on how soon the wait notices the exit.
    end, stolen, factor = map(float, done.stdout.split())
    return (end - start - stolen) * factor


def run_rounds(workload, seconds, run_item, after_item):
    """Run rounds until the timed item work, scaled to the reference speed,
    reaches `seconds` and MIN_ITEMS items ran; after_item gets the scaled
    work so far after every item. Scaled, a run holds the same rounds
    however fast the host is while it runs, and so the same items.

    The harness's own objects (inputs, cached references) are frozen out of
    the garbage collector, and each item starts after an untimed collection,
    as a fresh `hfree` process would: an item's time then holds the
    collections of its own garbage, not of what the harness or earlier items
    left behind."""
    outcomes = []
    busy = 0.0
    r = 0
    gc.collect()
    gc.freeze()
    while r == 0 or busy < seconds or len(outcomes) < MIN_ITEMS:
        for item in workload.round(r):
            gc.collect()
            outcomes.append(run_item(item))
            o = outcomes[-1]
            busy += o.seconds * speed.factor(o.began, o.ended)
            after_item(busy)
        r += 1
    return outcomes, r


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_failures(outcomes):
    failed = Counter((o.name, o.status, o.detail[:60]) for o in outcomes if o.failed)
    for (name, status, detail), count in sorted(failed.items()):
        print(f"  failed x{count}: {name} [{status}] {detail}", file=sys.stderr)


def untraced(workload, args, run_item):
    speed.start()
    try:
        setup = [time_setup()]

        def sample_setup(busy):
            if len(setup) < SETUP_SAMPLES and busy >= args.seconds * len(setup) / SETUP_SAMPLES:
                setup.append(time_setup())

        warm_up()
        outcomes, rounds = run_rounds(workload, args.seconds, run_item, sample_setup)
        while len(setup) < SETUP_SAMPLES:
            setup.append(time_setup())
    finally:
        speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = workload.final_checks()
    unscaled = summarize(outcomes)
    s = summarize([dataclasses.replace(o, seconds=o.seconds * speed.factor(o.began, o.ended)) for o in outcomes])
    print(
        f"{args.workload} seed={args.seed}: {s['attempted']} items in {rounds} rounds, "
        f"{unscaled['busy_s']:.2f} s timed, {s['failed']} failed, {s['beyond_p90']} beyond p90",
        file=sys.stderr,
    )
    print(
        f"  speed factor {speed.factor():.4f} over {len(speed.samples)} probes; unscaled: "
        f"items_per_s {unscaled['items_per_s']:.6g}, item_p50_ms {unscaled['item_p50_ms']:.6g}, "
        f"item_p90_ms {unscaled['item_p90_ms']:.6g}",
        file=sys.stderr,
    )
    report_failures(outcomes)
    for problem in problems:
        print(f"  check: {problem}", file=sys.stderr)
    metrics = {
        "items_per_s": metric(s["items_per_s"], "1/s"),
        "item_p50_ms": metric(s["item_p50_ms"], "ms"),
        "item_p90_ms": metric(s["item_p90_ms"], "ms"),
        "pass_ratio": metric(s["pass_ratio"], "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    samples = {"peak_rss_mb": 1, "setup_s": len(setup)}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={samples.get(name, s['attempted'])})", file=sys.stderr)
    correct = s["wrong"] == 0 and not problems
    return correct, s["attempted"], s["failed"], metrics


# A layer that a workload never enters reads 0 s and 0 counts.
PER_LAYER_UNITS = {
    "graphs.match_calls": "count",
    "graphs.match_anchored_calls": "count",
    "graphs.match_busy_s": "s",
    "graphs.copy_search_busy_s": "s",
    "gadgets.contracts_s": "s",
    "solver.nodes": "count",
    "solver.self_s": "s",
    "solver.rounds": "count",
    "solver.packing_calls": "count",
    "solver.packing_hit_ratio": "ratio",
    "solver.limit_hits": "count",
    "formats.busy_s": "s",
    "formats.bytes_parsed": "B",
    "formats.bytes_rendered": "B",
    "reductions.busy_s": "s",
    "reductions.elements_built": "count",
    "gadgets.busy_s": "s",
    "gadgets.elements_built": "count",
    "cli.self_s": "s",
    "minones.busy_s": "s",
    "minones.elements_built": "count",
    "cnf.busy_s": "s",
    "verify.self_s": "s",
    "trace.spans": "count",
    "trace.item_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_item_s": "s",
    "trace.overhead_s": "s",
    "trace.ips_delta": "1/s",
}
# Measured over the set-up item (import plus gadget contracts), since they
# should move setup_s; every other figure is over the items of round 0.
SETUP_METRICS = ("graphs.copy_search_busy_s", "gadgets.contracts_s")


def with_span(tracer, item_id, item):
    """The item with a root span around its call only, not its check."""

    def call():
        tracer.begin_item(item_id)
        try:
            return item.call()
        finally:
            tracer.end_item()

    return dataclasses.replace(item, call=call)


def start_tracing(tracer, items):
    """Install the tracer, run the first-use work as traced item 0, and
    return the items with their root spans (ids 1, 2, ...)."""
    tracer.install()
    with_span(tracer, 0, Item("setup", warm_up, lambda _: PASS)).call()
    return [with_span(tracer, item_id, item) for item_id, item in enumerate(items, start=1)]


def run_pass(tracer, items_traced, items, run_item, interleave: bool):
    """Run round 0 traced; with interleave, follow each traced item with an
    untraced run of the same item. Every traced pass, the child's too, is
    called from the same stack depth, which fixes where a RecursionError
    strikes."""
    traced_outcomes, plain_outcomes = [], []
    for item, plain_item in zip(items_traced, items):
        traced_outcomes.append(run_item(item))
        if interleave:
            tracer.uninstall()
            plain_outcomes.append(run_item(plain_item))
            tracer.install()
    return traced_outcomes, plain_outcomes


def traced_counts(workload, args, run_item):
    """The counts of one traced pass of round 0, as in a traced run."""
    items = workload.round(0)
    tracer = Tracer()
    items_traced = start_tracing(tracer, items)
    run_pass(tracer, items_traced, items, run_item, interleave=False)
    tracer.uninstall()
    return tracer.summarize(items=range(1, len(items) + 1))["counts"]


def counts_in_child(args) -> dict:
    """traced_counts in a fresh process with another hash seed, so that
    counts which hang on hash order or process state show up as a
    difference."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--counts"],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed), cwd=ROOT, check=True, timeout=150,
        capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_differences(counts, reference) -> list:
    return sorted(k for k in set(counts) | set(reference) if counts.get(k) != reference.get(k))


def traced_run(workload, args, run_item):
    items = workload.round(0)
    ids = range(1, len(items) + 1)
    tracer = Tracer()
    items_traced = start_tracing(tracer, items)

    # The first traced pass also warms what later passes find warm. The
    # second interleaves each traced item with an untraced run of the same
    # item, so drift in machine speed hits both sides of the overhead alike.
    first, _ = run_pass(tracer, items_traced, items, run_item, interleave=False)
    setup_summary = tracer.summarize(items=[0])
    reference_counts = tracer.summarize(items=ids)["counts"]
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-pass1.tsv"
    tracer.write(spans_path)
    tracer.clear()
    second, plain = run_pass(tracer, items_traced, items, run_item, interleave=True)
    tracer.uninstall()
    summary = tracer.summarize(items=ids)
    tracer.write(WORK / f"spans-{args.workload}-pass2.tsv")
    problems = workload.final_checks()
    child_counts = counts_in_child(args)

    errors = []
    for label, counts in (("two traced passes", summary["counts"]), ("two processes", child_counts)):
        diff = count_differences(counts, reference_counts)
        if diff:
            errors.append(f"counts differ between {label}: {diff[:10]}")
    statuses = [[o.status for o in run] for run in (first, second, plain)]
    if not statuses[0] == statuses[1] == statuses[2]:
        errors.append("item outcomes differ between the traced and untraced passes")

    m = summary["metrics"]
    for name in SETUP_METRICS:
        m[name] = setup_summary["metrics"][name]
    s_traced, s_plain = summarize(second), summarize(plain)
    m["trace.untraced_item_s"] = s_plain["busy_s"]
    m["trace.overhead_s"] = m["trace.item_s"] - s_plain["busy_s"]
    m["trace.ips_delta"] = s_plain["items_per_s"] - s_traced["items_per_s"]
    # Self times are durations minus children, so over whole items they
    # must add up to the traced item time: the untraced item time plus the
    # overhead. A span left open or closed twice would break the sum.
    if abs(m["trace.self_sum_s"] - m["trace.item_s"]) > 1e-6 * max(1, m["trace.spans"]) ** 0.5:
        errors.append(f"self times add up to {m['trace.self_sum_s']:.6f} s, items took {m['trace.item_s']:.6f} s")

    print(
        f"{args.workload} seed={args.seed} traced: {len(items)} items, {m['trace.spans']} spans "
        f"written to {spans_path.relative_to(ROOT)}, overhead "
        f"{m['trace.overhead_s'] / s_plain['busy_s']:.1%}",
        file=sys.stderr,
    )
    report_failures(second)
    for problem in problems + errors:
        print(f"  check: {problem}", file=sys.stderr)
    if errors:
        return None
    metrics = {name: metric(m[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    correct = s_traced["wrong"] == 0 and not problems
    return correct, s_traced["attempted"], s_traced["failed"], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hfree" / "__init__.py").is_file():
        print(f"error: no hfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hfree
    import hfree.solver

    if Path(hfree.__file__).resolve().parent != (SRC / "hfree").resolve():
        print(f"error: imported hfree from {hfree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)

        def run_item(item):
            return grade(item, capped_errors=(hfree.solver.SearchLimitError,))

        if args.counts:
            print(json.dumps(traced_counts(workload, args, run_item)))
            return 0
        result = (traced_run if args.trace else untraced)(workload, args, run_item)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        return 3
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
