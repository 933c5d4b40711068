"""Per-layer metrics from the traced run's spans and the system's counters."""

from __future__ import annotations

import collections

from repro.operators import BaseCalculatorBolt, TrackerBolt, streams

from .measure import route_residual
from .spec import PER_LAYER
from .tracing import children_seconds, summarize

_OPERATOR_LAYERS = ("parser", "partitioner", "merger", "disseminator")
_BOLT_METHODS = ("execute_batch", "tick", "flush")
_STORE_STATS = (
    ("store.runs_written", "runs_written"),
    ("store.spilled_entries", "spilled_entries"),
    ("store.merges", "merges"),
    ("store.bytes_written", "run_bytes_written"),
    ("store.tracker_probes", "membership_probes"),
)


def cluster_facts(cluster, report) -> collections.Counter:
    """Counts the system keeps itself, read after a run has finished."""
    facts: collections.Counter = collections.Counter()
    accounting = cluster.accounting
    for (producer, consumer), count in accounting.per_link.items():
        facts[f"msgs_in.{consumer}"] += count
    facts["cluster.msgs"] += accounting.total
    facts["cluster.notification_msgs"] += accounting.link(
        streams.DISSEMINATOR, streams.CALCULATOR
    )
    for bolt in cluster.instances_of(streams.CALCULATOR):
        if isinstance(bolt, BaseCalculatorBolt):
            facts["calculator.report_rounds"] += bolt.report_rounds
    for bolt in cluster.instances_of(streams.TRACKER):
        if isinstance(bolt, TrackerBolt):
            facts["tracker.triples_in"] += bolt.reports_received
            facts["tracker.coefficients"] += len(bolt)
    for stats in (report.store_stats, report.tracker_store_stats):
        if not stats:
            continue
        for metric, key in _STORE_STATS:
            facts[metric] += stats.get(key, 0)
        facts["cache.hits"] += stats.get("block_cache_hits", 0)
        facts["cache.misses"] += stats.get("block_cache_misses", 0)
    return facts


def layer_metrics(spans: list, facts: collections.Counter) -> dict[str, float]:
    """Every per-layer metric; layers the run did not exercise read 0."""
    table = summarize(spans)

    def total(*names: str) -> float:
        return sum(table.get(name, {}).get("total", 0.0) for name in names)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    metrics = {name: 0.0 for name in PER_LAYER}
    for layer in _OPERATOR_LAYERS:
        metrics[f"{layer}.busy_s"] = total(*(f"{layer}.{m}" for m in _BOLT_METHODS))
        metrics[f"{layer}.msgs_in"] = facts[f"msgs_in.{layer}"]
    metrics["calculator.ingest_s"] = total("calculator.execute_batch")
    metrics["calculator.report_s"] = total("calculator.tick")
    metrics["calculator.report_max_s"] = table.get("calculator.tick", {}).get("max", 0.0)
    metrics["calculator.msgs_in"] = facts[f"msgs_in.{streams.CALCULATOR}"]
    metrics["calculator.report_rounds"] = facts["calculator.report_rounds"]
    metrics["tracker.ingest_s"] = total("tracker.ingest")
    metrics["tracker.triples_in"] = facts["tracker.triples_in"]
    metrics["tracker.coefficients"] = facts["tracker.coefficients"]
    metrics["tracker.snapshot_s"] = total("tracker.snapshot")
    metrics["tracker.snapshots"] = calls("tracker.snapshot")
    metrics["centralized.busy_s"] = total(*(f"centralized.{m}" for m in _BOLT_METHODS))
    metrics["centralized.ground_truth_s"] = total("centralized.ground_truth")
    metrics["pipeline.collect_s"] = total("pipeline.collect")
    metrics["cluster.route_s"] = sum(
        route_residual(span[3] - span[2], children_seconds(spans, index))
        for index, span in enumerate(spans)
        if span is not None and span[0] == "cluster.run"
    )
    metrics["cluster.msgs"] = facts["cluster.msgs"]
    metrics["cluster.notification_msgs"] = facts["cluster.notification_msgs"]
    metrics["executor.deliver_s"] = total("executor.deliver_remote")
    metrics["executor.deliver_calls"] = calls("executor.deliver_remote")
    metrics["executor.msgs_shipped"] = facts["executor.msgs_shipped"]
    metrics["executor.tick_s"] = total("executor.tick_remote")
    metrics["executor.flush_s"] = total("executor.flush_remote")
    metrics["executor.driver_busy_s"] = facts["executor.driver_busy_s"]
    for suffix in ("counter_spill", "counter_report", "tracker_ingest",
                   "tracker_spill", "tracker_compact"):
        metrics[f"store.{suffix}_s"] = total(f"store.{suffix}")
    for metric, _key in _STORE_STATS:
        metrics[metric] = facts[metric]
    lookups = facts["cache.hits"] + facts["cache.misses"]
    metrics["store.cache_hit_rate"] = facts["cache.hits"] / lookups if lookups else 0.0
    return metrics


def share_table(spans: list, whole: float | None = None) -> list[tuple[str, float, float]]:
    """Self time per layer as ``(layer, seconds, share)``, largest first.

    The denominator is ``whole`` or else the phase spans (``cluster.run``
    plus ``pipeline.collect``); ``route`` is the run's residual and
    ``collect`` the collect phase's self time.
    """
    table = summarize(spans)
    by_layer: collections.Counter = collections.Counter()
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        if name == "cluster.run":
            by_layer["route"] += row["self"]
        elif name == "pipeline.collect":
            by_layer["collect"] += row["self"]
        elif layer != "service":
            by_layer[layer] += row["self"]
    if whole is None:
        whole = sum(table.get(n, {}).get("total", 0.0)
                    for n in ("cluster.run", "pipeline.collect"))
    return [
        (layer, seconds, seconds / whole if whole else 0.0)
        for layer, seconds in by_layer.most_common()
    ]
