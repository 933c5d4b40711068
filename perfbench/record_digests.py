#!/usr/bin/env python3
"""Record the reference computation's table digests in ``digests.json``.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

For the default and the held-out seed it collects every input a run of
``run_seconds`` (from ``BENCHMARK.json``) checks against the reference,
runs the reference configuration (inline executor, dict stores) on each
and writes the SHA-256 digests of the final Tracker tables.  A benchmark
run fails its check when a reference table no longer matches.  Record
again only in a change that means to alter the system's output, and say
so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import host  # noqa: E402 - needs the path above
from perfbench.measure import RecordedDigests, table_digest  # noqa: E402
from perfbench.spec import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    host.add_import_paths()
    from perfbench.batch import BatchBenchmark, generate, reference_config, run_segment
    from perfbench.served import ServedBenchmark

    seconds = json.loads((host.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    inputs: set[tuple[int, int]] = set()
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in WORKLOADS.values():
            benchmark = (ServedBenchmark if workload.served else BatchBenchmark)(
                workload, seed, seconds)
            try:
                inputs.update(benchmark.reference_inputs())
            finally:
                benchmark.close()

    host.WORK_DIR.mkdir(parents=True, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix="record-", dir=host.WORK_DIR)
    digests = {}
    try:
        for generator_seed, documents in sorted(inputs):
            run = run_segment(reference_config({}, spill_dir), generate(generator_seed, documents))
            digests[RecordedDigests.key(generator_seed, documents)] = table_digest(run.table)
            print(f"{generator_seed}:{documents} {len(run.table)} entries", flush=True)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    RecordedDigests.PATH.write_text(json.dumps({
        "run_seconds": seconds,
        "seeds": [DEFAULT_SEED, HELD_OUT_SEED],
        "digests": digests,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {RecordedDigests.PATH.relative_to(host.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
