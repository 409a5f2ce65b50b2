"""Closed-loop item runner and the statistics the benchmark reports.

An item is one call into hfree plus a check of its answer against a
reference that is not the code under test. Items run one at a time in one
process. An item fails when it raises (RecursionError included), hits the
solver's node cap, is skipped by a verify guard, or gives a wrong answer;
only the last also makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import speed

PASS = "pass"
WRONG = "wrong"
SKIPPED = "skipped"
ERROR = "error"
CAPPED = "capped"


@dataclass(frozen=True)
class Item:
    """One unit of work: `call` runs it, `check` grades what `call` returned
    with PASS, WRONG or SKIPPED."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str]


@dataclass(frozen=True)
class Outcome:
    name: str
    status: str
    seconds: float
    detail: str = ""
    # perf_counter when the call began and ended
    began: float = 0.0
    ended: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status != PASS


def run_item(item: Item, capped_errors=()) -> Outcome:
    """Time item.call(), less the speed probes that interrupted it, and
    grade it; capped_errors are the exception types that mean the node cap
    was hit."""
    stolen = speed.stolen_s
    began = time.perf_counter()

    def outcome(status, detail=""):
        ended = time.perf_counter()
        seconds = ended - began - (speed.stolen_s - stolen)
        return Outcome(item.name, status, seconds, detail, began, ended)

    try:
        result = item.call()
    except capped_errors as error:
        return outcome(CAPPED, str(error))
    except Exception as error:  # noqa: BLE001 - every crash is an item failure
        return outcome(ERROR, type(error).__name__)
    timed = outcome(PASS)
    status = item.check(result)
    if status not in (PASS, WRONG, SKIPPED):
        raise ValueError(f"check for {item.name} returned {status!r}")
    return dataclasses.replace(timed, status=status)


def quantile(values, q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def summarize(outcomes) -> dict:
    """End-to-end figures over a list of Outcomes (times in seconds)."""
    times = [o.seconds for o in outcomes]
    busy = sum(times)
    passed = sum(1 for o in outcomes if not o.failed)
    p90 = quantile(times, 0.9)
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - passed,
        "wrong": sum(1 for o in outcomes if o.status == WRONG),
        "busy_s": busy,
        "items_per_s": passed / busy if busy > 0 else 0.0,
        "item_p50_ms": quantile(times, 0.5) * 1000,
        "item_p90_ms": p90 * 1000,
        "pass_ratio": passed / len(outcomes),
        "beyond_p90": sum(1 for t in times if t > p90),
    }
