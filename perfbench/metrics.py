"""Turn a workload's raw samples (and, traced, its spans) into named metrics.

Every timing is a median or a fixed percentile of per-operation samples,
which an untraced run takes in seconds of a host whose speed does not change
(``hostspeed.py``).  The printed table states each sample count and flags a
percentile with fewer than ten samples beyond it (the smoke mode's short
runs, and ``log-to-alert``, which hunts five reports).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from tracing import Tracer
from workloads import QUERIES, SESSION_CYCLE, Outcome

HERE = Path(__file__).resolve().parent
LAYERS_FILE = HERE / "layers.json"
#: The only record of each metric's name, unit and better-direction.
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"

#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_ok(values: list[float], q: float) -> bool:
    """Whether ``values`` leave at least ``TAIL_SAMPLES`` beyond percentile ``q``."""
    return len(values) * (100.0 - q) / 100.0 >= TAIL_SAMPLES


class Metric:
    """One reported figure: value, unit and the samples it rests on."""

    def __init__(self, value: float, unit: str, samples: int, note: str = "") -> None:
        self.value = value
        self.unit = unit
        self.samples = samples
        self.note = note

    def as_result(self) -> dict[str, float | str]:
        return {"value": self.value, "unit": self.unit}


def _latency(values: list[float], q: float, note: str) -> Metric:
    """Percentile ``q`` of ``values`` in ms; flagged when too few samples back it."""
    if not tail_ok(values, q):
        note = f"{note}; fewer than {TAIL_SAMPLES} samples beyond p{q:g}"
    return Metric(percentile(values, q) * 1000.0, "ms", len(values), note)


def named(workload: str, outcome: Outcome, peak_rss_mb: float) -> dict[str, Metric]:
    """The workload's own end-to-end figures, by the names the layer map uses."""
    metrics = {
        "setup_s": Metric(statistics.median(outcome.setup_s), "s", len(outcome.setup_s), "median"),
        "peak_rss_mb": Metric(peak_rss_mb, "MB", 1, "ru_maxrss of the measuring process"),
        "error_rate": Metric(
            outcome.failed / outcome.attempted, "ratio", outcome.attempted, "failed/attempted"
        ),
    }
    if workload == "log-to-alert":
        ingest = outcome.flat("ingest")
        metrics["ingest_events_per_s"] = Metric(
            outcome.sizes["raw_events"] / statistics.median(ingest), "1/s", len(ingest),
            "median load, log open to store ready",
        )
        metrics["log_to_alert_s"] = Metric(
            alert_latencies(outcome)[-1], "s", len(ingest),
            "log open to last hunt report: median load plus each report's median hunt",
        )
    elif workload == "osint-hunt-session":
        hunts, queries = outcome.flat("hunt"), outcome.flat("query")
        metrics["hunts_per_s"] = Metric(
            1.0 / _mean_of_medians(outcome, "hunt"), "1/s", len(hunts),
            "mean over base reports of the median hunt",
        )
        metrics["hunt_p50_ms"] = _latency(hunts, 50, "hunt() calls")
        metrics["hunt_p95_ms"] = _latency(hunts, 95, "hunt() calls")
        metrics["queries_per_s"] = Metric(
            1.0 / _mean_of_medians(outcome, "query"), "1/s", len(queries),
            "mean over query shapes and hash seeds of the median query",
        )
        metrics["query_p90_ms"] = _latency(queries, 90, "execute_query() calls")
    else:
        batches = outcome.flat("batch")
        metrics["watch_events_per_s"] = Metric(
            outcome.counts["records_parsed"] / (sum(batches) + sum(outcome.flat("flush"))),
            "1/s", len(batches), "raw events over the summed batch and flush times",
        )
        metrics["batch_p50_ms"] = _latency(batches, 50, "micro-batches")
        metrics["batch_p90_ms"] = _latency(batches, 90, "micro-batches")
    return metrics


def _mean_of_medians(outcome: Outcome, kind: str) -> float:
    """Mean over the keys of operation ``kind`` of each key's median time."""
    return statistics.mean(statistics.median(values) for values in outcome.samples[kind].values())


def alert_latencies(outcome: Outcome) -> list[float]:
    """Seconds from log open to each report's hunt result, in hunt order, of
    a pass made of the median load and each report's median hunt."""
    latencies, elapsed = [], statistics.median(outcome.flat("ingest"))
    for seconds in outcome.samples["hunt"].values():
        elapsed += statistics.median(seconds)
        latencies.append(elapsed)
    return latencies


#: The measured operations of each workload, by sample kind.
_OPERATIONS = {
    "log-to-alert": ("pass",),
    "osint-hunt-session": ("hunt", "query"),
    "campaign-watch": ("batch",),
}


def _median_operation(workload: str, outcome: Outcome) -> float:
    return statistics.median(
        seconds for kind in _OPERATIONS[workload] for seconds in outcome.flat(kind)
    )


def session_throughput(outcome: Outcome) -> Metric:
    """Hunts and queries per second of one session cycle at median costs.

    A cycle hunts every base report equally often and sends every query
    shape once, so its time is the mean median hunt (over base reports)
    times the hunts in a cycle plus the mean median query (over shapes and
    hash seeds) times the shapes.  Medians per report and per shape leave
    out the slow requests and keep the shapes' discrete costs apart.
    """
    hunt_s, query_s = _mean_of_medians(outcome, "hunt"), _mean_of_medians(outcome, "query")
    cycle_s = SESSION_CYCLE * hunt_s + len(QUERIES) * query_s
    requests = len(outcome.flat("hunt")) + len(outcome.flat("query"))
    return Metric(
        (SESSION_CYCLE + len(QUERIES)) / cycle_s, "1/s", requests,
        f"one cycle of {SESSION_CYCLE} hunts and {len(QUERIES)} queries at median costs",
    )


def end_to_end(workload: str, outcome: Outcome, peak_rss_mb: float) -> dict[str, Metric]:
    """The contract metrics every workload reports, from the untraced run."""
    mine = named(workload, outcome, peak_rss_mb)
    if workload == "log-to-alert":
        throughput = mine["ingest_events_per_s"]
        # Each report's alert comes at a different time after log open;
        # the slowest is the last, the whole pass.
        alerts = alert_latencies(outcome)
        note = f"log open to each of {len(alerts)} hunt reports"
        p50 = _latency(alerts, 50, note)
        tail = Metric(alerts[-1] * 1000.0, "ms", len(alerts), f"{note}: the last")
    elif workload == "osint-hunt-session":
        throughput = session_throughput(outcome)
        # Latency is the hunts' alone: the five query shapes form discrete
        # clusters, and a percentile of the mixed stream jumps between them.
        p50, tail = mine["hunt_p50_ms"], mine["hunt_p95_ms"]
    else:
        throughput = mine["watch_events_per_s"]
        p50, tail = mine["batch_p50_ms"], mine["batch_p90_ms"]
    values = {
        "throughput_per_s": throughput,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "peak_rss_mb": mine["peak_rss_mb"],
        "setup_s": mine["setup_s"],
    }
    reported = {}
    for entry in benchmark()["end_to_end"]:
        metric = values[entry["name"]]
        assert metric.unit == entry["unit"], (entry, metric.unit)
        reported[entry["name"]] = metric
    return reported


def per_layer(
    workload: str, tracer: Tracer, traced: Outcome, untraced: Outcome
) -> dict[str, Metric]:
    """Per-layer metrics of the traced run, named as in ``layers.json``."""
    counters = tracer.counters
    counts = traced.counts
    executor_s = tracer.layer_busy("tbql.executor", "execute")
    pattern_s = counters.get("executor.pattern_s", 0.0)
    result_rows = counters.get("executor.result_rows", 0.0)
    hunted = counters.get("intel.hunted_reports", 0.0)
    growth = traced.series.get("eval_growth", [])
    lags = traced.series.get("alert_lag_batches", [])
    operations = len(tracer.requests)
    values: dict[str, float] = {
        "auditing.parser.busy_s": tracer.layer_busy("auditing.parser"),
        "auditing.parser.records": counts.get("records_parsed", 0),
        "auditing.parser.skipped": counts.get("records_skipped", 0),
        "auditing.reduction.busy_s": tracer.layer_busy("auditing.reduction"),
        "auditing.reduction.events_in": counters.get("reduction.events_in", 0),
        "auditing.reduction.events_out": counters.get("reduction.events_out", 0),
        "storage.relational.load_s": tracer.layer_busy("storage.relational", "load"),
        "storage.relational.execute_s": tracer.layer_busy("storage.relational", "execute"),
        "storage.relational.execute_calls": tracer.layer_calls("storage.relational", "execute"),
        "storage.graph.load_s": tracer.layer_busy("storage.graph", "load"),
        "storage.graph.match_s": tracer.layer_busy("storage.graph", "match"),
        "storage.graph.match_calls": tracer.layer_calls("storage.graph", "match"),
        "nlp.extract_s": tracer.layer_busy("nlp"),
        "nlp.iocs": counters.get("nlp.iocs", 0),
        "nlp.edges": counters.get("nlp.edges", 0),
        "tbql.synthesis.busy_s": tracer.layer_busy("tbql.synthesis"),
        "tbql.analysis.busy_s": tracer.layer_busy("tbql.analysis"),
        "tbql.analysis.calls": tracer.layer_calls("tbql.analysis"),
        "tbql.executor.busy_s": tracer.layer_busy("tbql.executor"),
        "tbql.executor.pattern_s": pattern_s,
        "tbql.executor.join_project_s": executor_s - pattern_s,
        "tbql.executor.pattern_rows": counters.get("executor.pattern_rows", 0),
        "tbql.executor.result_rows": result_rows,
        "tbql.executor.rows_per_result": (
            counters.get("executor.pattern_rows", 0) / result_rows if result_rows else 0.0
        ),
        "tbql.prepared.plan_hits": counts.get("plan_hits", 0),
        "tbql.prepared.plan_misses": counts.get("plan_misses", 0),
        "intel.register_s": tracer.layer_busy("intel"),
        "intel.dedup_hit_rate": 1.0 - counters.get("intel.hunts", 0) / hunted if hunted else 0.0,
        "streaming.source.busy_s": tracer.layer_busy("streaming.source"),
        "streaming.ingest.busy_s": tracer.layer_busy("streaming.ingest"),
        "streaming.ingest.events_stored": counters.get("ingest.events_stored", 0),
        "streaming.ingest.pending_max": counters.get("ingest.pending_max", 0),
        "streaming.monitor.eval_s": tracer.layer_busy("streaming.monitor"),
        "streaming.monitor.evaluations": counts.get("evaluations", 0),
        "streaming.monitor.alerts": counts.get("alerts", 0),
        "streaming.monitor.eval_growth": statistics.mean(growth) if growth else 0.0,
        "streaming.checkpoint.writes": counts.get("checkpoint_writes", 0),
        "streaming.checkpoint.write_s": tracer.layer_busy("streaming.checkpoint"),
        "streaming.journal.entries": counts.get("journal_entries", 0),
        "streaming.journal.emit_s": tracer.layer_busy("streaming.journal"),
        "streaming.alert_lag_batches": max(lags, default=0),
        "trace.coverage": tracer.coverage(),
        "trace.overhead_ratio": (
            _median_operation(workload, traced) / _median_operation(workload, untraced) - 1.0
        ),
        "trace.operations": operations,
    }
    layers = layer_map()["layers"]
    entries = benchmark()["per_layer"]
    for entry in entries:
        if entry["name"].endswith(".self_s"):
            values[entry["name"]] = tracer.layer_self(layers[entry["name"]]["layer"])
    return {
        entry["name"]: Metric(float(values[entry["name"]]), entry["unit"], operations)
        for entry in entries
    }


def benchmark() -> dict:
    """``BENCHMARK.json``: metric names, units, better-directions and bounds."""
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def layer_map() -> dict:
    """The metric -> layer -> end-to-end map (``layers.json``)."""
    return json.loads(LAYERS_FILE.read_text(encoding="utf-8"))
