"""What the benchmark runs and reports: workloads, metrics, seeds.

``GLOSSARY.md`` explains each entry; the self-tests keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Seed used when a claim is made, and one kept back for re-checking it.
DEFAULT_SEED = 7
HELD_OUT_SEED = 11


def segment_seed(seed: int, index: int) -> int:
    """Generator seed of segment ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


#: The throughput harness's topology, shared by every workload.
BASE_CONFIG = dict(
    algorithm="DS",
    k=8,
    n_partitioners=5,
    window_mode="count",
    window_size=1500,
    bootstrap_documents=600,
    quality_check_interval=250,
    repartition_threshold=0.5,
    report_interval_seconds=60.0,
    include_centralized_baseline=True,
)

#: ``TwitterLikeGenerator`` parameters of the throughput harness's legacy
#: topic stream, the input of every workload.
TOPIC_STREAM = dict(n_topics=120, tags_per_topic=15, new_topic_rate=5.0,
                    intra_topic_probability=0.92)
TWEETS_PER_SECOND = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Documents per independent segment (batch workloads).
    documents: int
    #: Seconds one segment run takes on a 2-core host: a run measures
    #: ``--seconds / segment_seconds`` segments, so its input depends on
    #: the seed and ``--seconds`` only, never on how fast the host is.
    segment_seconds: float = 1.0
    #: SystemConfig overrides on top of BASE_CONFIG; none means the
    #: reference configuration (inline executor, dict stores).
    config: dict = field(default_factory=dict)
    #: Equal-support Tracker ties may legitimately differ from the
    #: reference (a known defect: arrival order decides the tie).
    ties_may_differ: bool = False
    served: bool = False


#: Why each workload exists, and what it bypasses: see GLOSSARY.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-inline", documents=8000, segment_seconds=1.5),
        Workload("stream-process", documents=8000, segment_seconds=3.2,
                 config=dict(executor="process", workers=2),
                 ties_may_differ=True),
        Workload("stream-spill", documents=4000, segment_seconds=2.0,
                 config=dict(counter_store="spill", tracker_store="spill",
                             spill_threshold=8192)),
        Workload("served", documents=0, served=True),
    )
}

#: Served ladder: offered rates (documents/s) of the open-loop steps, the
#: documents ingested (unmeasured) before each step, so the first report
#: round (at document 3000) falls early in every step, and documents per
#: (warm-up) ingest request.
SERVED_RATES = (250, 500, 2000)
SERVED_WARMUP_DOCUMENTS = 2900
SERVED_REQUEST_DOCUMENTS = 10
SERVED_WARMUP_REQUEST_DOCUMENTS = 100
#: Documents (after the warm-up) over which an overloaded step's
#: processing rate is timed; they include the first report round.
SERVED_RATE_DOCUMENTS = 500
#: Segments whose top-rate step feeds the docs_per_s median (the ladder's
#: top step is one of them).
SERVED_TOP_SEGMENTS = 3
#: Result-lag limit (ms) for ``sustained_docs_per_s``.
SERVED_LAG_LIMIT_MS = 1000.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


END_TO_END = (
    Metric("docs_per_s", "docs/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("communication_avg", "notif/tagset", "lower"),
    Metric("load_gini", "gini", "lower"),
    Metric("jaccard_coverage", "fraction", "higher"),
    Metric("jaccard_mae", "jaccard", "lower"),
    Metric("ref_mismatch_coeffs", "count", "lower"),
    Metric("failed_ratio", "fraction", "lower"),
    Metric("sustained_docs_per_s", "docs/s", "higher"),
    Metric("result_lag_p50_ms", "ms", "lower"),
    Metric("result_lag_p99_ms", "ms", "lower"),
    Metric("ingest_ack_p50_ms", "ms", "lower"),
    Metric("ingest_ack_p99_ms", "ms", "lower"),
    Metric("query_p50_ms", "ms", "lower"),
    Metric("query_p99_ms", "ms", "lower"),
)

#: End-to-end metrics the final JSON line carries (and BENCHMARK.json
#: gates): those every workload measures, that are never zero and whose
#: run-to-run spread fits a bound on a shared 2-core host.  ``docs_per_s``
#: is printed but not gated: the host's speed drifts by 20% within
#: minutes, and its IQR/median over ten seeds reached 0.35-0.38 on
#: stream-spill and served, above the largest allowed bound (0.25).
GATED = ("setup_s", "peak_rss_mb", "communication_avg")

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    **{f"{layer}.{what}": (unit, "lower")
       for layer in ("parser", "partitioner", "merger", "disseminator")
       for what, unit in (("busy_s", "s"), ("msgs_in", "count"))},
    "calculator.ingest_s": ("s", "lower"),
    "calculator.report_s": ("s", "lower"),
    "calculator.report_max_s": ("s", "lower"),
    "calculator.msgs_in": ("count", "lower"),
    "calculator.report_rounds": ("count", "lower"),
    "tracker.ingest_s": ("s", "lower"),
    "tracker.triples_in": ("count", "lower"),
    "tracker.coefficients": ("count", "lower"),
    "tracker.snapshot_s": ("s", "lower"),
    "tracker.snapshots": ("count", "higher"),
    "centralized.busy_s": ("s", "lower"),
    "centralized.ground_truth_s": ("s", "lower"),
    "pipeline.collect_s": ("s", "lower"),
    "cluster.route_s": ("s", "lower"),
    "cluster.msgs": ("count", "lower"),
    "cluster.notification_msgs": ("count", "lower"),
    "executor.deliver_s": ("s", "lower"),
    "executor.deliver_calls": ("count", "lower"),
    "executor.msgs_shipped": ("count", "lower"),
    "executor.tick_s": ("s", "lower"),
    "executor.flush_s": ("s", "lower"),
    "executor.driver_busy_s": ("s", "lower"),
    "store.counter_spill_s": ("s", "lower"),
    "store.counter_report_s": ("s", "lower"),
    "store.tracker_ingest_s": ("s", "lower"),
    "store.tracker_spill_s": ("s", "lower"),
    "store.tracker_compact_s": ("s", "lower"),
    "store.runs_written": ("count", "lower"),
    "store.spilled_entries": ("count", "lower"),
    "store.merges": ("count", "lower"),
    "store.bytes_written": ("bytes", "lower"),
    "store.cache_hit_rate": ("ratio", "higher"),
    "store.tracker_probes": ("count", "lower"),
    "service.ingest_op_s": ("s", "lower"),
    "service.query_op_s": ("s", "lower"),
    "service.ops": ("count", "higher"),
    "service.writer_busy_s": ("s", "lower"),
    "service.writer_share": ("ratio", "lower"),
    "service.backlog_docs_max": ("docs", "lower"),
    "service.backlog_docs_end": ("docs", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.late_max_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
