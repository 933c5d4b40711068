#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-inline --seed 7 --seconds 10 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off; ``--trace
1`` runs the workload once untraced and once with spans around each
layer's public calls and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines before it are a human-readable table of every
metric (``absent`` where it does not apply to the workload).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import host  # noqa: E402 - needs the path above
from perfbench.spec import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    GATED,
    HELD_OUT_SEED,
    PER_LAYER,
    WORKLOADS,
)


def _format(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_end_to_end(name: str, result: dict) -> None:
    metrics = result["metrics"]
    print(f"# workload {name}: end-to-end metrics (tracing off)")
    for metric in END_TO_END:
        value = metrics.get(metric.name)
        note = result.get("notes", {}).get(metric.name, "")
        print(f"  {metric.name:<22} {_format(value):>14} {metric.unit:<22} "
              f"{metric.better} is better{'  ' + note if note else ''}")
    for key, value in sorted(result.get("details", {}).items()):
        print(f"  [{key}] {value}")


def print_per_layer(name: str, result: dict) -> None:
    metrics = result["metrics"]
    print(f"# workload {name}: per-layer metrics (traced run)")
    for metric, (unit, better) in PER_LAYER.items():
        print(f"  {metric:<28} {_format(metrics[metric]):>14} {unit:<6} {better} is better")
    print("# self-time share per layer (traced run)")
    for layer, seconds, share in result.get("shares", []):
        print(f"  {layer:<14} {seconds:10.4f} s {share:7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed "
                             f"for re-checking a claim: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        host.add_import_paths()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if workload.served:
        from perfbench.served import ServedBenchmark as Benchmark
    else:
        from perfbench.batch import BatchBenchmark as Benchmark
    from perfbench.tracing import write_spans

    bench = Benchmark(workload, args.seed, args.seconds)
    try:
        result = bench.trace() if args.trace else bench.measure()
    finally:
        bench.close()
    for note in bench.notes:
        print(f"# note: {note}")

    if args.trace:
        path = host.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(result["spans"], path)
        print(f"# spans written to {path.relative_to(host.ROOT)}")
        print_per_layer(args.workload, result)
        metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
                   for name, (unit, _better) in PER_LAYER.items()}
    else:
        print_end_to_end(args.workload, result)
        units = {metric.name: metric.unit for metric in END_TO_END}
        metrics = {name: {"value": float(result["metrics"][name]), "unit": units[name]}
                   for name in GATED}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(bench.attempted),
        "failed": int(bench.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
