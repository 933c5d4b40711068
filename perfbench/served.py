"""The ``served`` workload: a ServiceDaemon in its own process, fed open-loop.

Each ladder step starts a fresh daemon process (``python -m
perfbench.served``) with the ``stream-inline`` configuration and drives it
over exactly two connections from this process:

* the **feeder** first ingests ``SERVED_WARMUP_DOCUMENTS`` (unmeasured, so
  report rounds fall inside the step), then sends one blocking
  ``SERVED_REQUEST_DOCUMENTS``-document ingest request per schedule slot at
  the step's offered rate; the ladder's steps share ``--seconds``.  Every latency is
  timed from the slot's scheduled time, so a stalled daemon delays later
  requests and the delay shows;
* the **querier** alternates ``top_k``/``stats`` in a closed loop.  Each
  reply's snapshot ``round`` gives result freshness (the daemon publishes
  one round per drained request) and each ``stats`` reply a backlog
  sample: documents due minus documents processed.

After the step the feeder requests ``shutdown`` (the daemon drains) and
the daemon process writes its final Tracker table to a file and sends back
its run-report quality figures and, when traced, its spans.  Once every
step has run, each table must equal an inline batch run over the same
documents, whose digest must equal the recorded one where there is one.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from repro.service import ServiceClient, ServiceError
from repro.service.protocol import document_to_wire

from .batch import (
    generate,
    make_config,
    quality,
    reference_config,
    run_segment,
    tracker_table,
)
from .host import ROOT, WORK_DIR, PeakRss, child_env
from .layers import cluster_facts, layer_metrics, share_table
from .measure import (
    RecordedDigests,
    compare_tables,
    latency_summary,
    result_lags,
    table_digest,
    time_to_reach,
)
from .spec import (
    SERVED_LAG_LIMIT_MS,
    SERVED_RATE_DOCUMENTS,
    SERVED_RATES,
    SERVED_REQUEST_DOCUMENTS,
    SERVED_TOP_SEGMENTS,
    SERVED_WARMUP_DOCUMENTS,
    SERVED_WARMUP_REQUEST_DOCUMENTS,
    Workload,
    segment_seed,
)
from .tracing import Recorder, SpanNestingError

#: Seconds to wait for the daemon process at start, drain and exit.
_PROCESS_TIMEOUT = 120.0
#: Seconds the querier keeps looking for the last request's round after
#: the step ends; a request still unseen by then counts as failed.
_DRAIN_GRACE = 10.0


class _Querier(threading.Thread):
    """The closed-loop query connection: alternates top_k and stats."""

    def __init__(self, address) -> None:
        super().__init__(name="perfbench-querier", daemon=True)
        self._address = address
        self.target_round: int | None = None
        self.deadline = float("inf")
        #: (sent, received, kind, round, documents_processed, ok)
        self.replies: list[tuple] = []
        self.error: str | None = None

    def finish(self, target_round: int, deadline: float) -> None:
        """Stop once a reply shows ``target_round`` or at ``deadline``."""
        self.target_round = target_round
        self.deadline = deadline

    def run(self) -> None:
        host, port = self._address
        try:
            with ServiceClient(host=host, port=port) as client:
                stats = False
                while True:
                    sent = time.perf_counter()
                    try:
                        reply = client.stats() if stats else client.top_k(k=10)
                        ok = True
                    except ServiceError:
                        reply, ok = {}, False
                    received = time.perf_counter()
                    round_index = reply.get("round", -1)
                    self.replies.append((sent, received, "stats" if stats else "top_k",
                                         round_index, reply.get("documents_processed"), ok))
                    stats = not stats
                    target = self.target_round
                    if (target is not None and round_index >= target) or received > self.deadline:
                        return
        except (OSError, ValueError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"


def _window_median(samples: list[tuple[float, float]], low: float, high: float) -> float:
    """Median value of samples with time in ``[low, high]``, else the
    value of the sample nearest to the window."""
    inside = [value for t, value in samples if low <= t <= high]
    if inside:
        return statistics.median(inside)
    middle = (low + high) / 2.0
    return min(samples, key=lambda sample: abs(sample[0] - middle))[1]


class ServedBenchmark:
    """The served workload at one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        # The ladder on segment 0, then extra top-rate steps on segments
        # 1.. so docs_per_s is a median over independent inputs.
        self.plan = [(rate, 0) for rate in SERVED_RATES] + [
            (SERVED_RATES[-1], segment) for segment in range(1, SERVED_TOP_SEGMENTS)
        ]
        self.step_seconds = seconds / len(self.plan)
        most = int(max(SERVED_RATES) * self.step_seconds) + SERVED_REQUEST_DOCUMENTS
        self.documents = [
            generate(segment_seed(seed, segment), SERVED_WARMUP_DOCUMENTS + most)
            for segment in range(SERVED_TOP_SEGMENTS)
        ]
        self.wire = [[document_to_wire(d) for d in documents] for documents in self.documents]
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.table_dir = tempfile.mkdtemp(prefix="served-", dir=WORK_DIR)
        self.steps_run = 0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.table_dir, ignore_errors=True)

    def step_documents(self, rate: float) -> int:
        """Documents a step at ``rate`` ingests when every slot goes out."""
        return SERVED_WARMUP_DOCUMENTS + SERVED_REQUEST_DOCUMENTS * int(
            rate * self.step_seconds / SERVED_REQUEST_DOCUMENTS)

    def reference_inputs(self) -> list[tuple[int, int]]:
        """``(generator seed, documents)`` of the ladder steps below the top
        rate when every slot goes out.  A step that falls behind sends
        fewer requests, so its input depends on timing and is not pinned."""
        return [(segment_seed(self.seed, 0), self.step_documents(rate))
                for rate in SERVED_RATES[:-1]]

    # ------------------------------------------------------------------ #
    # One ladder step
    # ------------------------------------------------------------------ #
    def _spawn(self, trace: bool, table_path: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "perfbench.served", json.dumps(self.workload.config),
             "1" if trace else "0", table_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=child_env(),
        )

    def run_step(self, rate: float, segment: int = 0, trace: bool = False) -> dict:
        table_path = os.path.join(self.table_dir, f"table-{self.steps_run}.pickle")
        self.steps_run += 1
        started = time.perf_counter()
        process = self._spawn(trace, table_path)
        try:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError("daemon process exited before listening")
            address = tuple(json.loads(line)["address"])
            feeder = ServiceClient(host=address[0], port=address[1])
            try:
                feeder.ping()
                setup_s = time.perf_counter() - started
                step = self._drive(feeder, address, rate, self.wire[segment])
                step["segment"] = segment
                step["setup_s"] = setup_s
                feeder.shutdown()
            finally:
                feeder.close()
            process.stdin.write(b"collect\n")
            process.stdin.flush()
            step["daemon"] = pickle.load(process.stdout)
            step["table_path"] = table_path
        finally:
            process.stdin.close()
            try:
                process.wait(timeout=_PROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        return step

    def _drive(self, feeder: ServiceClient, address, rate: float, wire: list) -> dict:
        warmup = SERVED_WARMUP_DOCUMENTS
        block = SERVED_WARMUP_REQUEST_DOCUMENTS
        for start in range(0, warmup, block):
            feeder.ingest(wire[start:start + block], block=True, timeout=60.0)
        deadline = time.perf_counter() + _PROCESS_TIMEOUT
        while feeder.stats()["documents_processed"] < warmup:
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not finish the warm-up documents")
            time.sleep(0.005)
        first_round = -(-warmup // block)

        size = SERVED_REQUEST_DOCUMENTS
        interval = size / rate
        count = (self.step_documents(rate) - warmup) // size
        querier = _Querier(address)
        t_start = time.perf_counter() + 0.02
        t_end = t_start + self.step_seconds
        querier.start()
        sends = []  # (due, sent, acked, ok)
        for i in range(count):
            due = t_start + i * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            elif now >= t_end:
                break  # overloaded: the remaining slots never went out
            sent = time.perf_counter()
            offset = warmup + i * size
            try:
                feeder.ingest(wire[offset:offset + size], block=True, timeout=30.0)
                ok = True
            except ServiceError:
                ok = False
            sends.append((due, sent, time.perf_counter(), ok))
        querier.finish(first_round + len(sends), max(t_end, time.perf_counter()) + _DRAIN_GRACE)
        querier.join(timeout=_PROCESS_TIMEOUT)
        if querier.error is not None:
            raise RuntimeError(f"query connection failed: {querier.error}")
        return {
            "rate": rate,
            "slots": count,
            "interval": interval,
            "t_start": t_start,
            "t_end": t_end,
            "first_round": first_round,
            "sends": sends,
            "replies": querier.replies,
        }

    # ------------------------------------------------------------------ #
    # Step analysis
    # ------------------------------------------------------------------ #
    def _analyse(self, step: dict) -> dict:
        sends, replies = step["sends"], step["replies"]
        t_start, t_end = step["t_start"], step["t_end"]
        size = SERVED_REQUEST_DOCUMENTS
        dues = [due for due, _sent, _ack, _ok in sends]
        lags = result_lags(dues, step["first_round"],
                           [(received, rnd) for _s, received, _k, rnd, _p, ok in replies if ok])
        errors = sum(1 for *_rest, ok in sends if not ok)
        query_errors = sum(1 for *_rest, ok in replies if not ok)
        # Requests whose result never showed, or that failed, miss any limit.
        unseen = sum(1 for lag, send in zip(lags, sends) if lag is None and send[3])
        lag_ms = [lag * 1000.0 for lag, send in zip(lags, sends) if lag is not None and send[3]]
        ack_ms = [(ack - due) * 1000.0 for due, _sent, ack, ok in sends if ok]
        late_ms = [(sent - due) * 1000.0 for due, sent, _ack, _ok in sends]
        query_ms = [(received - sent) * 1000.0 for sent, received, _k, _r, _p, ok in replies if ok]
        processed = [(received, p - SERVED_WARMUP_DOCUMENTS)
                     for _s, received, kind, _r, p, ok in replies
                     if ok and kind == "stats" and received >= t_start]
        # Processing rate over a fixed document range (the same work, the
        # first report round included, on every step and seed), else over
        # whatever the step processed.
        reached = time_to_reach(processed, t_start, SERVED_RATE_DOCUMENTS)
        if reached is not None and reached > t_start:
            rate = SERVED_RATE_DOCUMENTS / (reached - t_start)
        elif processed and processed[-1][0] > t_start:
            rate = processed[-1][1] / (processed[-1][0] - t_start)
        else:
            rate = 0.0
        # Documents due by time t follow the schedule, sent or not.
        slots, interval = step["slots"], step["interval"]
        backlog = [(t, size * min(slots, int((t - t_start) / interval) + 1) - done)
                   for t, done in processed if t <= t_end]
        step_s = t_end - t_start
        mid = _window_median(backlog, t_start + 0.45 * step_s, t_start + 0.55 * step_s) if backlog else 0.0
        end = _window_median(backlog, t_end - 0.1 * step_s, t_end) if backlog else 0.0
        lag = latency_summary(lag_ms)
        lag_limit_value = lag["p99"] if lag["p99"] is not None else lag["top"]
        return {
            "rate": step["rate"],
            "requests": len(sends),
            "queries": len(replies),
            "errors": errors,
            "query_errors": query_errors,
            "unseen": unseen,
            "lag": lag,
            "ack": latency_summary(ack_ms),
            "query": latency_summary(query_ms),
            "late": latency_summary(late_ms),
            "late_max_ms": max(late_ms) if late_ms else 0.0,
            "processed_per_s": rate,
            "backlog_max": max((b for _t, b in backlog), default=0.0),
            "backlog_mid": mid,
            "backlog_end": end,
            "grows": end > mid + size,
            "meets_limit": (errors + unseen == 0 and lag_limit_value is not None
                            and lag_limit_value <= SERVED_LAG_LIMIT_MS),
        }

    def _count(self, analysed: list[dict]) -> None:
        """Requests and queries attempted; failed ones are error replies
        and ingest requests whose result never showed."""
        self.attempted = sum(a["requests"] + a["queries"] for a in analysed)
        self.failed = sum(a["errors"] + a["unseen"] + a["query_errors"] for a in analysed)

    def _check(self, steps: list[dict]) -> collections.Counter:
        """Each step's final table against an inline batch run of the same
        documents (everything the daemon accepted), whose digest must
        equal the recorded one."""
        recorded_digests = RecordedDigests()
        comparison = collections.Counter()
        for step in steps:
            accepted = SERVED_WARMUP_DOCUMENTS + SERVED_REQUEST_DOCUMENTS * sum(
                1 for *_rest, ok in step["sends"] if ok)
            config = reference_config(self.workload.config, self.table_dir)
            reference = run_segment(config, self.documents[step["segment"]][:accepted]).table
            with open(step["table_path"], "rb") as handle:
                comparison.update(compare_tables(reference, pickle.load(handle)))
            recorded = recorded_digests.get(segment_seed(self.seed, step["segment"]), accepted)
            if recorded is not None:
                comparison["pinned"] += 1
                if recorded != table_digest(reference):
                    comparison["digest_differs"] += 1
                    self.notes.append(f"{accepted} documents of segment {step['segment']}: "
                                      "reference table differs from the digest recorded "
                                      "in digests.json")
        return comparison

    # ------------------------------------------------------------------ #
    def measure(self) -> dict:
        gc.collect()
        with PeakRss() as rss:
            steps = [self.run_step(rate, segment) for rate, segment in self.plan]
        analysed = [self._analyse(step) for step in steps]
        self._count(analysed)
        comparison = self._check(steps)
        ladder = analysed[:len(SERVED_RATES)]
        reference = ladder[0]
        quality = {name: statistics.fmean(step["daemon"]["quality"][name] for step in steps)
                   for name in steps[0]["daemon"]["quality"]}
        sustained = max((a["rate"] for a in ladder if a["meets_limit"] and not a["grows"]),
                        default=0.0)

        metrics = {
            "docs_per_s": statistics.median(
                a["processed_per_s"] for a in analysed[len(SERVED_RATES) - 1:]),
            "setup_s": min(step["setup_s"] for step in steps),  # as in batch.py
            "peak_rss_mb": rss.mb,
            **quality,
            "ref_mismatch_coeffs": comparison["mismatched"],
            "failed_ratio": (sum(a["errors"] + a["unseen"] for a in analysed)
                             / max(1, sum(a["requests"] for a in analysed))),
            "sustained_docs_per_s": sustained,
            "result_lag_p50_ms": reference["lag"]["p50"],
            "result_lag_p99_ms": reference["lag"]["p99"],
            "ingest_ack_p50_ms": reference["ack"]["p50"],
            "ingest_ack_p99_ms": reference["ack"]["p99"],
            "query_p50_ms": reference["query"]["p50"],
            "query_p99_ms": reference["query"]["p99"],
        }
        notes = {}
        for name, key in (("result_lag_p99_ms", "lag"), ("ingest_ack_p99_ms", "ack"),
                          ("query_p99_ms", "query")):
            summary = reference[key]
            if summary["flagged"]:
                notes[name] = (f"flagged: {summary['samples']} samples < 1000; "
                               f"p{summary['top_pct']:g} = {summary['top']:.6g} ms")
            else:
                notes[name] = f"{summary['samples']} samples"
        for name, key in (("result_lag_p50_ms", "lag"), ("ingest_ack_p50_ms", "ack"),
                          ("query_p50_ms", "query")):
            notes[name] = f"{reference[key]['samples']} samples at {reference['rate']} docs/s"
        notes["sustained_docs_per_s"] = f"result-lag limit {SERVED_LAG_LIMIT_MS:g} ms"
        details = {
            f"step {a['rate']} docs/s, segment {step['segment']}": {
                "requests": a["requests"], "processed_per_s": round(a["processed_per_s"], 1),
                "lag_p50_ms": a["lag"]["p50"], f"lag_p{a['lag']['top_pct']}_ms": a["lag"]["top"],
                "backlog_mid": a["backlog_mid"], "backlog_end": a["backlog_end"],
                "grows": a["grows"], "meets_limit": a["meets_limit"], "errors": a["errors"],
                "unseen": a["unseen"], "query_errors": a["query_errors"],
            }
            for a, step in zip(analysed, steps)
        }
        details["comparison"] = dict(comparison)
        correct = (self.failed == 0 and comparison["mismatched"] == 0
                   and comparison["digest_differs"] == 0)
        return {"metrics": metrics, "correct": correct, "notes": notes, "details": details}

    def trace(self) -> dict:
        """Untraced top step, then the traced ladder: per-layer metrics
        from the traced top step (service, operators) and reference step
        (load generator)."""
        plain = self._analyse(self.run_step(SERVED_RATES[-1]))
        steps = [self.run_step(rate, trace=True) for rate in SERVED_RATES]
        analysed = [self._analyse(step) for step in steps]
        self._count(analysed)
        top_step, top = steps[-1], analysed[-1]
        daemon = top_step["daemon"]
        window = (top_step["t_start"], top_step["t_end"])
        # Times count inside the top step's open-loop window only (not the
        # warm-up or the shutdown drain); indices stay aligned for parents.
        spans = [span if span is not None and window[0] <= span[2] <= window[1] else None
                 for span in daemon["spans"]]
        metrics = layer_metrics(spans, daemon["facts"])
        writer_busy = sum(
            min(end, window[1]) - start
            for _name, kind, start, end, parent, _thread in filter(None, spans)
            if kind == "op" and parent < 0
        )
        service = collections.Counter()
        for name, kind, start, end, _parent, _thread in filter(None, spans):
            if kind == "service":
                service["ops"] += 1
                if name == "service.ingest":
                    service["ingest"] += end - start
                elif name == "service.query":
                    service["query"] += end - start
        metrics.update({
            "service.ingest_op_s": service["ingest"],
            "service.query_op_s": service["query"],
            "service.ops": service["ops"],
            "service.writer_busy_s": writer_busy,
            "service.writer_share": writer_busy / (window[1] - window[0]),
            "service.backlog_docs_max": top["backlog_max"],
            "service.backlog_docs_end": top["backlog_end"],
            "loadgen.late_p99_ms": analysed[0]["late"]["p99"] or analysed[0]["late"]["top"] or 0.0,
            "loadgen.late_max_ms": analysed[0]["late_max_ms"],
            "trace.overhead_ratio": (plain["processed_per_s"] / top["processed_per_s"] - 1.0
                                     if top["processed_per_s"] else 0.0),
        })
        comparison = self._check(steps)
        correct = (self.failed == 0 and comparison["mismatched"] == 0
                   and comparison["digest_differs"] == 0 and not daemon["nesting"])
        if daemon["nesting"]:
            self.notes.append(f"span nesting: {daemon['nesting']}")
        return {"metrics": metrics, "correct": correct, "spans": daemon["spans"],
                "shares": share_table(spans, whole=window[1] - window[0])}


# --------------------------------------------------------------------- #
# The daemon process
# --------------------------------------------------------------------- #
def _daemon_main(config_overrides: dict, trace: bool, table_path: str) -> None:
    from repro.pipeline import TagCorrelationSystem
    from repro.service import ServiceDaemon

    recorder = Recorder() if trace else None
    if recorder is not None:
        original = TagCorrelationSystem.build_cluster

        def build_cluster(self, documents=()):
            cluster = original(self, documents)
            recorder.instrument_cluster(cluster)
            return cluster

        TagCorrelationSystem.build_cluster = build_cluster
        recorder.wrap(ServiceDaemon, "handle_request",
                      lambda self, request: f"service.{request.get('op')}", "service")
    out = sys.stdout.buffer
    config = make_config({**config_overrides, "executor": "service"}, str(WORK_DIR))
    daemon = ServiceDaemon(config).start()
    try:
        out.write((json.dumps({"address": list(daemon.address)}) + "\n").encode())
        out.flush()
        sys.stdin.buffer.readline()  # "collect": the shutdown drain has finished
        report = daemon.final_report
        if report is None:
            return  # the benchmark gave up before shutdown; nothing to send
        cluster = daemon.system.cluster
        nesting = ""
        if recorder is not None:
            try:
                recorder.check_flat()
            except SpanNestingError as exc:
                nesting = str(exc)
        with open(table_path, "wb") as handle:
            pickle.dump(tracker_table(cluster), handle, protocol=pickle.HIGHEST_PROTOCOL)
        result = {
            "quality": quality(report),
            "facts": cluster_facts(cluster, report),
            "spans": recorder.spans if recorder is not None else [],
            "nesting": nesting,
        }
        pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.flush()
    finally:
        daemon.close()


if __name__ == "__main__":
    _daemon_main(json.loads(sys.argv[1]), sys.argv[2] == "1", sys.argv[3])
