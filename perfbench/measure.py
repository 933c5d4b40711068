"""Pure measurement helpers: percentiles, result lag, output comparison.

Nothing here imports the system under test, so the self-tests exercise
every helper without building a topology.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

#: A p99 is only meaningful with at least this many samples (ten beyond it).
P99_MIN_SAMPLES = 1000

#: Percentiles tried, highest first, when a p99 is not supported.
_FALLBACK_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples: Sequence[float]) -> dict:
    """Median, p99 and the highest percentile the sample count supports.

    ``p99`` is ``None`` (and ``flagged`` true) below
    :data:`P99_MIN_SAMPLES`; ``top_pct``/``top`` then name the highest
    percentile with at least ten samples beyond it.
    """
    n = len(samples)
    summary = {"samples": n, "p50": None, "p99": None, "flagged": n < P99_MIN_SAMPLES,
               "top_pct": None, "top": None}
    if n == 0:
        return summary
    summary["p50"] = percentile(samples, 50.0)
    if n >= P99_MIN_SAMPLES:
        summary["p99"] = percentile(samples, 99.0)
    for pct in _FALLBACK_PERCENTILES:
        if n * (100.0 - pct) >= 1000.0 or pct == 50.0:
            summary["top_pct"] = pct
            summary["top"] = percentile(samples, pct)
            break
    return summary


def result_lags(
    due_times: Sequence[float],
    first_round: int,
    replies: Iterable[tuple[float, int]],
) -> list[float | None]:
    """Per-request result lag from query replies.

    Request ``i`` (scheduled at ``due_times[i]``) is the daemon's batch
    ``first_round + i + 1``; the daemon publishes one snapshot round per
    drained batch, so its result is visible in the first reply (received
    at ``t``) whose ``round`` is at least that.  The lag is ``t -
    due_times[i]``; ``None`` when no reply ever showed it.
    """
    ordered = sorted(replies)
    times = [t for t, _ in ordered]
    # Highest round seen up to each reply: non-decreasing, so bisectable.
    seen: list[int] = []
    for _, round_index in ordered:
        seen.append(max(round_index, seen[-1]) if seen else round_index)
    lags: list[float | None] = []
    for i, due in enumerate(due_times):
        position = bisect.bisect_left(seen, first_round + i + 1)
        lags.append(times[position] - due if position < len(seen) else None)
    return lags


def time_to_reach(samples: Iterable[tuple[float, float]], start: float,
                  target: float) -> float | None:
    """When a count sampled as ``(time, count)`` first reached ``target``,
    interpolated linearly between samples; the count is 0 at ``start``.
    ``None`` if no sample reached it."""
    previous = (start, 0.0)
    for t, count in sorted(samples):
        if count >= target:
            t0, c0 = previous
            if count == c0:
                return t
            return t0 + (target - c0) * (t - t0) / (count - c0)
        previous = (t, count)
    return None


def table_digest(table: Mapping[frozenset, tuple[float, int]]) -> str:
    """Order-independent SHA-256 of a ``tagset -> (jaccard, support)`` table."""
    lines = sorted(
        f"{','.join(sorted(tagset))}={jaccard!r}/{support}"
        for tagset, (jaccard, support) in table.items()
    )
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


class RecordedDigests:
    """Table digests of the reference computation recorded in
    ``digests.json`` (by ``record_digests.py``), keyed by the input: the
    generator seed and the number of documents.  They pin the reference's
    output, so a change in it fails the check instead of following the
    code under test."""

    PATH = Path(__file__).with_name("digests.json")

    def __init__(self) -> None:
        self.entries: dict[str, str] = json.loads(
            self.PATH.read_text(encoding="utf-8"))["digests"]

    @staticmethod
    def key(seed: int, documents: int) -> str:
        return f"{seed}:{documents}"

    def get(self, seed: int, documents: int) -> str | None:
        return self.entries.get(self.key(seed, documents))


def compare_tables(
    reference: Mapping[frozenset, tuple[float, int]],
    observed: Mapping[frozenset, tuple[float, int]],
) -> dict[str, int]:
    """Count entries of ``observed`` that differ from ``reference``.

    ``changed`` entries exist in both with another ``(jaccard, support)``;
    ``ties`` is the subset of those with equal support (the Tracker keeps
    the maximum-support coefficient, so equal-support entries may differ
    by arrival order).  ``mismatched`` = changed + missing + extra.
    """
    changed = ties = missing = 0
    for tagset, expected in reference.items():
        got = observed.get(tagset)
        if got is None:
            missing += 1
        elif got != expected:
            changed += 1
            if got[1] == expected[1]:
                ties += 1
    extra = sum(1 for tagset in observed if tagset not in reference)
    return {
        "changed": changed,
        "ties": ties,
        "missing": missing,
        "extra": extra,
        "mismatched": changed + missing + extra,
    }


def route_residual(run_seconds: float, child_seconds: Iterable[float]) -> float:
    """Routing time: the ``cluster.run()`` wall time not inside a wrapped
    bolt or executor call (the direct children of the run span)."""
    return run_seconds - sum(child_seconds)
