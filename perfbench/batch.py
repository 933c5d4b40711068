"""Batch workloads: ``stream-inline``, ``stream-process``, ``stream-spill``.

A run measures independent document segments generated from the seed.
Each segment run builds a fresh system and times
``cluster.run() + collect_report``.  The set-up time is that of a cold
start in a child process (``perfbench.coldstart``).  Reference runs come
after every measured segment, so their memory never counts in a measured
peak.
"""

from __future__ import annotations

import collections
import gc
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

from .host import ROOT, WORK_DIR, PeakRss, child_env
from .layers import cluster_facts, layer_metrics, share_table
from .measure import RecordedDigests, compare_tables, table_digest
from .spec import BASE_CONFIG, TOPIC_STREAM, TWEETS_PER_SECOND, Workload, segment_seed
from .tracing import Recorder, SpanNestingError


def generate(seed: int, documents: int) -> list:
    """The first ``documents`` documents of the topic stream seeded
    ``seed`` (a shorter run gives a prefix of a longer one)."""
    config = WorkloadConfig(seed=seed, tweets_per_second=TWEETS_PER_SECOND,
                            **TOPIC_STREAM)
    return TwitterLikeGenerator(config).generate(documents)


def make_config(overrides: dict, spill_dir: str) -> SystemConfig:
    return SystemConfig(**{**BASE_CONFIG, "spill_dir": spill_dir, **overrides})


def reference_config(overrides: dict, spill_dir: str) -> SystemConfig:
    """The reference computation: inline executor, dict stores."""
    return make_config({**overrides, "executor": "inline", "counter_store": "dict",
                        "tracker_store": "dict"}, spill_dir)


def quality(report) -> dict[str, float]:
    """The paper's quality figures of a run report."""
    return {
        "communication_avg": report.communication_avg,
        "load_gini": report.load_gini,
        "jaccard_coverage": report.jaccard_coverage,
        "jaccard_mae": report.jaccard_mean_error,
    }


@dataclass
class SegmentRun:
    run_s: float
    peak_rss_mb: float
    documents: int
    quality: dict[str, float]
    table: dict | None
    facts: collections.Counter


def tracker_table(cluster) -> dict:
    """The Tracker's final ``tagset -> (jaccard, support)`` table; closes
    a spilling Tracker's store afterwards."""
    table = {}
    for bolt in cluster.instances_of(streams.TRACKER):
        if isinstance(bolt, TrackerBolt):
            for tagset, jaccard, support in bolt.export_triples():
                table[tagset] = (jaccard, support)
            bolt.close()
    return table


def cold_start_s(overrides: dict) -> float:
    """Seconds from spawning ``perfbench.coldstart`` until it is ready:
    interpreter start, ``import repro``, system construction and
    ``build_cluster``.  Building a cluster alone takes under a
    millisecond, too short to time steadily on a shared host."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "perfbench.coldstart", json.dumps(overrides)],
                          stdout=subprocess.PIPE, cwd=str(ROOT), env=child_env()) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    if line.strip() != b"ready":
        raise RuntimeError(f"cold start exited with {child.returncode} before it was ready")
    return elapsed


def run_segment(config: SystemConfig, documents: list,
                recorder: Recorder | None = None) -> SegmentRun:
    gc.collect()  # garbage of earlier runs must not count in this peak
    with PeakRss() as rss:
        system = TagCorrelationSystem(config)
        cluster = system.build_cluster(documents)
        if recorder is not None:
            recorder.instrument_cluster(cluster)
        cpu = time.process_time()
        started = time.perf_counter()
        if recorder is None:
            cluster.run()
            report = system.collect_report(cluster)
        else:
            with recorder.span("cluster.run", "phase"):
                cluster.run()
            cpu = time.process_time() - cpu
            with recorder.span("pipeline.collect", "phase"):
                report = system.collect_report(cluster)
        elapsed = time.perf_counter() - started
    facts = cluster_facts(cluster, report)
    if recorder is not None and config.executor == "process":
        facts["executor.driver_busy_s"] += cpu
    return SegmentRun(elapsed, rss.mb, len(documents), quality(report),
                      tracker_table(cluster), facts)


class BatchBenchmark:
    """One batch workload run at one seed.

    A run measures ``--seconds / segment_seconds`` fresh segments (at
    least ``MIN_SEGMENTS``; segment ``i`` is generated just before its run,
    outside timing), so many independent inputs damp seed-to-seed input
    variance.  Each measured table is parked on disk; once every segment
    is measured, each is compared with the reference run (inline executor,
    dict stores) on the same documents, whose digest must equal the one
    recorded in ``digests.json``, and segment 0 runs once more and must
    reproduce its digest.
    """

    #: Segments a run measures at least (one median needs a few).
    MIN_SEGMENTS = 4
    #: Segments of the traced run (and of its untraced twin).
    TRACE_SEGMENTS = 3

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.spill_dir = tempfile.mkdtemp(prefix="spill-", dir=WORK_DIR)
        self.config = make_config(workload.config, self.spill_dir)
        self.attempted = 0
        self.failed = 0
        self.comparison: collections.Counter = collections.Counter()
        #: Segments whose reference digest is recorded in digests.json.
        self.pinned = 0
        self.notes: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.spill_dir, ignore_errors=True)

    def segment_count(self) -> int:
        return max(self.MIN_SEGMENTS, round(self.seconds / self.workload.segment_seconds))

    def reference_inputs(self) -> list[tuple[int, int]]:
        """``(generator seed, documents)`` of every measured segment."""
        return [(segment_seed(self.seed, index), self.workload.documents)
                for index in range(self.segment_count())]

    def segment(self, index: int) -> list:
        return generate(segment_seed(self.seed, index), self.workload.documents)

    # ------------------------------------------------------------------ #
    def _run(self, documents: list, recorder=None) -> SegmentRun | None:
        self.attempted += 1
        try:
            return run_segment(self.config, documents, recorder)
        except Exception:  # noqa: BLE001 - a crashed run is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def _table_path(self, index: int) -> str:
        return f"{self.spill_dir}/table-{index}.pickle"

    def _segments(self, count: int, recorder=None,
                  cold_starts: list | None = None) -> list[tuple[int, SegmentRun, str]]:
        """Measure segments ``0 .. count-1``; returns ``(index, run, table
        digest)`` triples (crashed runs are counted and skipped).  Untraced
        tables are parked on disk for :meth:`_check_references`.  Given
        ``cold_starts``, a cold start is timed into it before each segment."""
        done: list[tuple[int, SegmentRun, str]] = []
        for index in range(count):
            if cold_starts is not None:
                cold_starts.append(
                    cold_start_s({**self.workload.config, "spill_dir": self.spill_dir}))
            run = self._run(self.segment(index), recorder)
            if run is None:
                continue
            digest = table_digest(run.table)
            if recorder is None:
                with open(self._table_path(index), "wb") as handle:
                    pickle.dump(run.table, handle, protocol=pickle.HIGHEST_PROTOCOL)
            run.table = None
            done.append((index, run, digest))
        return done

    def _check_references(self, done: list[tuple[int, SegmentRun, str]]) -> None:
        """Compare each measured table with its reference run, and the
        reference's digest with the recorded one."""
        recorded_digests = RecordedDigests()
        for index, _run, digest in done:
            with open(self._table_path(index), "rb") as handle:
                table = pickle.load(handle)
            documents = self.segment(index)
            if self.workload.config:
                reference = run_segment(reference_config(self.workload.config, self.spill_dir),
                                        documents).table
                reference_digest = table_digest(reference)
            else:  # the workload runs the reference configuration itself
                reference, reference_digest = table, digest
            self.comparison.update(compare_tables(reference, table))
            recorded = recorded_digests.get(segment_seed(self.seed, index), len(documents))
            if recorded is not None:
                self.pinned += 1
                if recorded != reference_digest:
                    self.failed += 1
                    self.notes.append(f"segment {index}: reference table differs from "
                                      "the digest recorded in digests.json")

    def _repeat_matches(self, index: int, digest: str) -> None:
        """Run segment ``index`` again; a different digest is a failed run."""
        run = self._run(self.segment(index))
        if run is not None and table_digest(run.table) != digest:
            self.failed += 1
            self.notes.append(f"segment {index}: table digest differs between runs")

    def _correct(self) -> bool:
        totals = self.comparison
        return (
            self.failed == 0
            and totals["missing"] == 0
            and totals["extra"] == 0
            and (totals["changed"] == 0
                 or (self.workload.ties_may_differ and totals["changed"] == totals["ties"]))
        )

    # ------------------------------------------------------------------ #
    def measure(self) -> dict:
        """The untraced run: every end-to-end metric of a batch workload."""
        cold_starts: list[float] = []
        done = self._segments(self.segment_count(), cold_starts=cold_starts)
        if not done:
            raise RuntimeError("every segment run failed")
        self._check_references(done)
        index, _run, digest = done[0]
        self._repeat_matches(index, digest)
        runs = [run for _index, run, _digest in done]
        metrics = {
            "docs_per_s": sum(r.documents for r in runs) / sum(r.run_s for r in runs),
            # The fastest cold start: on a shared host other load slows
            # whole stretches of a run by up to 50%, and never speeds it up.
            "setup_s": min(cold_starts),
            "peak_rss_mb": max(r.peak_rss_mb for r in runs),
            **{name: statistics.fmean(r.quality[name] for r in runs) for name in runs[0].quality},
            "ref_mismatch_coeffs": self.comparison["mismatched"],
            "failed_ratio": self.failed / self.attempted,
        }
        details = {
            "segments": len(runs),
            "documents_per_segment": self.workload.documents,
            "comparison": dict(self.comparison),
            "segments pinned by digests.json": self.pinned,
        }
        notes = {}
        if self.workload.ties_may_differ and self.comparison["ties"]:
            notes["ref_mismatch_coeffs"] = (
                f"known defect: {self.comparison['ties']} equal-support Tracker ties "
                "resolved by arrival order")
        return {"metrics": metrics, "correct": self._correct(), "notes": notes,
                "details": details}

    def trace(self) -> dict:
        """Untraced, then traced runs of the same segments: per-layer metrics.

        The untraced segments get the reference check, and every traced
        segment must reproduce its untraced digest."""
        plain = self._segments(self.TRACE_SEGMENTS)
        recorder = Recorder()
        recorder.instrument_stores()
        try:
            traced = self._segments(self.TRACE_SEGMENTS, recorder=recorder)
        finally:
            recorder.restore()
        self._check_references(plain)
        for (_i, _run, digest), (_j, _traced, traced_digest) in zip(plain, traced):
            if digest != traced_digest:
                self.failed += 1
                self.notes.append("a traced segment's table digest differs from its untraced run")
        correct = self._correct()
        try:
            recorder.check_flat()
        except SpanNestingError as exc:
            correct = False
            self.notes.append(f"span nesting: {exc}")
        facts = collections.Counter()
        for _index, run, _digest in traced:
            facts.update(run.facts)
        facts["executor.msgs_shipped"] = recorder.counts["executor.deliver_remote"]
        metrics = layer_metrics(recorder.spans, facts)

        def rate(done):
            return (sum(r.documents for _i, r, _d in done)
                    / sum(r.run_s for _i, r, _d in done))

        metrics["trace.overhead_ratio"] = rate(plain) / rate(traced) - 1.0
        return {"metrics": metrics, "correct": correct, "spans": recorder.spans,
                "shares": share_table(recorder.spans)}
