"""Self-tests of the benchmark's helpers (no topology is built)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench.measure import (
    P99_MIN_SAMPLES,
    RecordedDigests,
    compare_tables,
    latency_summary,
    percentile,
    result_lags,
    route_residual,
    table_digest,
    time_to_reach,
)
from perfbench.spec import (
    DEFAULT_SEED,
    END_TO_END,
    GATED,
    HELD_OUT_SEED,
    PER_LAYER,
    WORKLOADS,
    segment_seed,
)
from perfbench.tracing import Recorder, SpanNestingError, children_seconds, summarize

HERE = Path(__file__).resolve().parent


class TestPercentiles:
    def test_nearest_rank(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
        assert percentile(list(range(1, 101)), 99.0) == 99
        assert percentile([5.0], 99.0) == 5.0

    def test_p99_needs_a_thousand_samples(self):
        short = latency_summary([float(i) for i in range(P99_MIN_SAMPLES - 1)])
        assert short["p99"] is None and short["flagged"]
        full = latency_summary([float(i) for i in range(P99_MIN_SAMPLES)])
        assert full["p99"] == 989.0 and not full["flagged"]
        assert full["top_pct"] == 99.0

    def test_highest_supported_percentile_keeps_ten_samples_beyond(self):
        assert latency_summary([1.0] * 100)["top_pct"] == 90.0
        assert latency_summary([1.0] * 200)["top_pct"] == 95.0
        assert latency_summary([1.0] * 20)["top_pct"] == 50.0

    def test_empty(self):
        summary = latency_summary([])
        assert summary["samples"] == 0 and summary["p50"] is None


class TestResultLag:
    def test_round_maps_to_request(self):
        # Requests 0, 1, 2 due at 0.0, 0.1, 0.2 after 5 warm-up rounds;
        # request i is visible once a reply shows round >= 5 + i + 1.
        replies = [(0.05, 5), (0.12, 6), (0.30, 8), (0.25, 5)]
        assert result_lags([0.0, 0.1, 0.2], 5, replies) == pytest.approx([0.12, 0.2, 0.1])

    def test_never_visible_is_none(self):
        assert result_lags([0.0, 0.1], 0, [(0.5, 1)]) == [pytest.approx(0.5), None]

    def test_out_of_order_rounds_use_the_highest_seen(self):
        assert result_lags([0.0], 0, [(0.2, 3), (0.4, 1)]) == [pytest.approx(0.2)]


class TestTimeToReach:
    def test_interpolates_between_samples(self):
        samples = [(1.0, 100.0), (2.0, 300.0), (3.0, 500.0)]
        assert time_to_reach(samples, 0.0, 200.0) == pytest.approx(1.5)
        assert time_to_reach(samples, 0.0, 50.0) == pytest.approx(0.5)
        assert time_to_reach(samples, 0.0, 600.0) is None


class TestTables:
    A = frozenset({"a", "b"})
    B = frozenset({"b", "c"})
    C = frozenset({"c", "d"})

    def test_mismatch_counting(self):
        reference = {self.A: (0.5, 3), self.B: (0.25, 2), self.C: (0.1, 1)}
        observed = {self.A: (0.4, 3), self.B: (0.2, 4), frozenset({"x", "y"}): (1.0, 1)}
        counts = compare_tables(reference, observed)
        assert counts == {"changed": 2, "ties": 1, "missing": 1, "extra": 1,
                          "mismatched": 4}

    def test_identical_tables_match(self):
        table = {self.A: (0.5, 3)}
        assert compare_tables(table, dict(table))["mismatched"] == 0

    def test_digest_ignores_order(self):
        one = {self.A: (0.5, 3), self.B: (0.25, 2)}
        two = {self.B: (0.25, 2), self.A: (0.5, 3)}
        assert table_digest(one) == table_digest(two)
        assert table_digest(one) != table_digest({self.A: (0.5, 4), self.B: (0.25, 2)})

    def test_recorded_digests_cover_both_seeds(self):
        recorded = RecordedDigests()
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for workload in WORKLOADS.values():
                if workload.documents:
                    # Segment 0 of every batch workload is measured on every run.
                    digest = recorded.get(segment_seed(seed, 0), workload.documents)
                    assert digest is not None and len(digest) == 64


class TestSpans:
    def test_residual_and_self_time(self):
        spans = [
            ("cluster.run", "phase", 0.0, 10.0, -1, 1),
            ("parser.execute_batch", "op", 1.0, 3.0, 0, 1),
            ("tracker.ingest", "op", 4.0, 8.0, 0, 1),
            ("store.tracker_ingest", "store", 5.0, 7.0, 2, 1),
        ]
        assert route_residual(10.0, children_seconds(spans, 0)) == pytest.approx(4.0)
        table = summarize(spans)
        assert table["cluster.run"]["self"] == pytest.approx(4.0)
        assert table["tracker.ingest"]["self"] == pytest.approx(2.0)
        assert table["tracker.ingest"]["total"] == pytest.approx(4.0)

    def test_wrap_records_and_restores(self):
        class Box:
            def work(self, n):
                return n + 1

        box = Box()
        recorder = Recorder()
        recorder.wrap(box, "work", "box.work", "op", count=lambda n: n)
        assert box.work(2) == 3
        recorder.restore()
        assert "work" not in vars(box)
        (span,) = recorder.spans
        assert span[0] == "box.work" and span[4] == -1
        assert recorder.counts["box.work"] == 2

    def test_nested_operator_spans_are_rejected(self):
        recorder = Recorder()
        with recorder.span("cluster.run", "phase"):
            with recorder.span("tracker.ingest", "op"):
                with recorder.span("store.tracker_ingest", "store"):
                    pass
        recorder.check_flat()  # store under op under phase is fine
        with recorder.span("parser.execute_batch", "op"):
            with recorder.span("calculator.tick", "op"):
                pass
        with pytest.raises(SpanNestingError):
            recorder.check_flat()


class TestDefinitions:
    def test_glossary_names_every_metric_and_workload(self):
        glossary = (HERE / "GLOSSARY.md").read_text(encoding="utf-8")
        names = [m.name for m in END_TO_END] + list(PER_LAYER) + list(WORKLOADS)
        missing = [name for name in names if f"`{name}`" not in glossary]
        assert missing == []

    def test_benchmark_json_matches_the_spec(self):
        path = HERE.parent / "BENCHMARK.json"
        spec = json.loads(path.read_text(encoding="utf-8"))
        units = {m.name: m.unit for m in END_TO_END}
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
        assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
        assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
        better = {m.name: m.better for m in END_TO_END}
        assert all(m["better"] == better[m["name"]] for m in spec["end_to_end"])

    def test_names_and_units_fit_the_benchmark_format(self):
        """BENCHMARK.json is refused whole if one name, unit or ``why``
        is outside these limits."""
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
        path = HERE.parent / "BENCHMARK.json"
        spec = json.loads(path.read_text(encoding="utf-8"))
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
        assert [n for n in names if not name.fullmatch(n)] == []
        assert len(set(names)) == len(names)
        assert [m["unit"] for m in metrics if not unit.fullmatch(m["unit"])] == []
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
