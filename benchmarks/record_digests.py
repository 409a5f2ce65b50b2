"""Record the sha256 and counts of every translate output over the whole pool.

    python3 benchmarks/record_digests.py

The translate workload requires each CLI output to match the record byte
for byte. Recording again at a later commit would accept whatever that
commit prints, so the script refuses to overwrite an existing record;
delete it first only for a change that means to alter the output format,
and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from harness import PASS, WRONG, Item, run_item  # noqa: E402


def main() -> int:
    if workloads.DIGESTS.exists():
        print(
            f"error: {workloads.DIGESTS.name} exists; delete it to re-record "
            "(only for an intended change of the output format)",
            file=sys.stderr,
        )
        return 2
    workdir = ROOT / ".bench_work" / "record-digests"
    record = {}
    try:
        translate = workloads.Translate(0, workdir, digests={})
        formulas, lifts, counting, graphs = translate.pool
        jobs = workloads.translate_jobs(
            translate.pool,
            range(len(formulas)),
            [(family, i) for family, bucket in lifts.items() for i in range(len(bucket))],
            range(len(counting)),
            range(len(graphs)),
        )
        for item, (key, _, _, _, target) in zip(translate.items_for(jobs), jobs):
            outcome = run_item(Item(item.name, item.call, lambda code: PASS if code == 0 else WRONG))
            if outcome.failed:
                print(f"error: {key} failed ({outcome.status} {outcome.detail})", file=sys.stderr)
                return 1
            record[key] = workloads.output_record((workdir / target).read_text(encoding="ascii"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n", encoding="ascii")
    print(f"recorded {len(record)} outputs in {workloads.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
