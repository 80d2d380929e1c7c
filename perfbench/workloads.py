"""The benchmark's three workloads: set-up, a measured closed loop, answer checks.

Every workload is driven by one client in a closed loop (the next request is
sent when the previous one returned) with no worker threads or processes.
Each function takes the generated inputs, the number of seconds to measure
and how many times to repeat set-up, and returns an :class:`Outcome` holding
raw per-operation samples; ``run.py`` turns those into metrics.

Every time goes through the context's clock (``hostspeed.py``), which in an
untraced run scales to a host whose speed does not change, and is filed under
the operation's kind and a key naming its input.

When a :class:`~tracing.Tracer` is passed, every measured operation is also
a request-level root span, so per-layer self times can be set against the
time of the operations they belong to.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, ContextManager, TypeVar

from generate import HOST
from hostspeed import Clock
from tracing import Tracer

#: The five hand-written hunts of ``examples/custom_tbql_queries.py``, fixed
#: here so that editing the example does not change the benchmark.  The fourth
#: is a ``~>`` path pattern, which runs on the graph planner.
QUERIES: tuple[str, ...] = (
    'proc p read file f["%/etc/shadow%" or "%/etc/passwd%"] as evt\n'
    "return distinct p, f",
    'proc p connect ip i["192.168.29.128"] as evt\n'
    "return distinct p, i.dstip, i.dstport",
    'proc downloader["%wget%" or "%curl%"] write file payload as evt1\n'
    "proc runner execute file payload as evt2\n"
    "with evt1 before evt2\n"
    "return distinct downloader, payload, runner",
    'proc shell["%/bin/bash%"] ~>(1~3)[connect] ip c2["192.168.29.128"] as evt\n'
    "return distinct shell, c2",
    'proc p read file f["%/etc/%"] as evt1\n'
    'proc p write file staged["%/tmp/%"] as evt2\n'
    "with evt1 before evt2\n"
    "return distinct p, f, staged",
)

#: Bundled reports whose hunts must return a non-empty answer on the demo host.
NON_EMPTY_HUNTS: tuple[str, ...] = ("figure2-data-leakage", "password-cracking", "data-leakage")

#: osint-hunt-session: report hunts sent per hand-written query.
HUNTS_PER_QUERY = 3
#: osint-hunt-session: hunts in one cycle through the hand-written queries.
#: The variants cycle through the bundled reports, so every cycle sends the
#: same mix of hunts and queries; a session ends on a whole cycle.
SESSION_CYCLE = HUNTS_PER_QUERY * len(QUERIES)
#: osint-hunt-session: size of the report-variant feed the session cycles through.
SESSION_REPORTS = 200
#: log-to-alert: ceiling on one cold pipeline start.
COLD_START_TIMEOUT_S = 60
#: campaign-watch: OSCTI reports fed to ``hunt_corpus`` (they dedup to 5 hunts).
CORPUS_REPORTS = 20
#: campaign-watch: records per micro-batch.
BATCH_SIZE = 256

T = TypeVar("T")


class Checks:
    """Answer checks of one run; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0
        #: The first failure messages (a wrong answer repeats every pass).
        self.failures: list[str] = []

    def absorb(self, other: "Checks") -> None:
        """Add the checks of another part of the run."""
        self.passed += other.passed
        self.failed += other.failed
        self.failures.extend(other.failures[: 20 - len(self.failures)])

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
            return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


@dataclass
class Outcome:
    """Raw measurements of one workload run.

    Attributes:
        setup_s: Seconds of each set-up.
        samples: Seconds of each measured operation, per operation kind and
            per key naming the operation's input (a report, a query shape
            under a hash seed, a campaign).
        attempted / failed: Operations attempted and failed (raising hunts or
            queries, quarantined hunts, skipped log records).
        sizes: Input sizes (raw and stored events, reports, queries,
            campaigns), the same in every part of a run.
        counts: Counts the run read from public return values (parsed and
            skipped records, batches, plan-cache hits, checkpoint writes).
        series: Values taken once per watch (alert lag, and under tracing
            evaluation growth).
    """

    setup_s: list[float] = field(default_factory=list)
    samples: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    sizes: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    series: dict[str, list[float]] = field(default_factory=dict)

    @classmethod
    def merge(cls, parts: list["Outcome"]) -> "Outcome":
        """Pool the outcomes of the parts of one run."""
        merged = cls(sizes=dict(parts[0].sizes))
        for part in parts:
            merged.setup_s.extend(part.setup_s)
            merged.attempted += part.attempted
            merged.failed += part.failed
            for name, value in part.counts.items():
                merged.count(name, value)
            for kind, values in part.series.items():
                merged.series.setdefault(kind, []).extend(values)
            for kind, keyed in part.samples.items():
                for key, values in keyed.items():
                    merged.samples.setdefault(kind, {}).setdefault(key, []).extend(values)
        return merged

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def values(self, kind: str, key: str) -> list[float]:
        """The list that times of operation ``kind`` on input ``key`` go to."""
        return self.samples.setdefault(kind, {}).setdefault(key, [])

    def flat(self, kind: str) -> list[float]:
        """Every sample of operation ``kind``, whatever its key."""
        return [value for values in self.samples.get(kind, {}).values() for value in values]


@dataclass
class Context:
    """What a workload needs besides its inputs."""

    inputs: dict[str, Any]
    seed: int
    seconds: float
    setup_repeats: int
    work_dir: Path
    tracer: Tracer | None = None
    #: Names the process measuring this part of the run (its hash seed).
    part: str = "0"
    clock: Clock = field(default_factory=Clock)

    def request(self, kind: str) -> ContextManager[None]:
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.request(kind)


def _timed(ctx: Context, values: list[float], function: Callable[[], T]) -> T:
    mark = ctx.clock.mark()
    value = function()
    ctx.clock.record(values, mark)
    return value


def _failed_call(outcome: Outcome, what: str) -> None:
    outcome.failed += 1
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc()


# -- log-to-alert -----------------------------------------------------------


def log_to_alert(ctx: Context, checks: Checks) -> Outcome:
    """Batch-load the demo host's log, then hunt the five auditable reports.

    Set-up is a cold pipeline start in a fresh interpreter (``coldstart.py``);
    the same planning then runs once in this process, untimed, so the first
    pass does not pay for cold NLP tables.  Each measured pass loads the log
    into a fresh pipeline and hunts every report; the load is filed as
    ``ingest`` and each report's hunt under the report's name.
    """
    from coldstart import plan_hunts
    from repro import ThreatRaptor
    from repro.data.osctireports import auditable_reports

    reports = auditable_reports()
    log = ctx.inputs["logs"][0]
    raw_events = ctx.inputs["raw_events"]
    malicious = set(ctx.inputs["malicious_event_ids"])
    figure2 = set(ctx.inputs["figure2_event_ids"])
    outcome = Outcome(sizes={"raw_events": raw_events, "reports": len(reports)})

    def cold_start() -> float:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("coldstart.py")), repr(time.monotonic())],
            check=True,
            capture_output=True,
            text=True,
            timeout=COLD_START_TIMEOUT_S,
        )
        return float(completed.stdout)

    for _ in range(ctx.setup_repeats):
        mark = ctx.clock.mark()
        with ctx.clock.paused():
            seconds = cold_start()
        ctx.clock.record(outcome.setup_s, mark, seconds)
    plan_hunts(ThreatRaptor())

    started = time.perf_counter()
    while not outcome.samples or time.perf_counter() - started < ctx.seconds:
        gc.collect()
        raptor = ThreatRaptor()
        matched: dict[str, set[int]] = {}
        with ctx.request("pass"):
            opened = ctx.clock.mark()
            load = raptor.load_log_file(log, host=HOST)
            ctx.clock.record(outcome.values("ingest", "log"), opened)
            for report in reports:
                began = ctx.clock.mark()
                try:
                    matched[report.name] = raptor.hunt(report.text).result.all_matched_event_ids()
                except Exception:  # noqa: BLE001 - a failing hunt is counted, the pass goes on
                    _failed_call(outcome, f"hunt {report.name}")
                ctx.clock.record(outcome.values("hunt", report.name), began)
            ctx.clock.record(outcome.values("pass", "log"), opened)
        assert load.reduction is not None
        skipped = raw_events - load.reduction.events_before
        outcome.attempted += raw_events + len(reports)
        outcome.failed += skipped
        outcome.sizes["stored_events"] = load.reduction.events_after
        outcome.count("records_parsed", load.reduction.events_before)
        outcome.count("records_skipped", skipped)
        checks.expect(skipped == 0, f"{skipped} log records skipped")
        checks.expect(
            figure2 <= matched.get("figure2-data-leakage", set()),
            "figure2 hunt misses ground-truth events "
            f"{sorted(figure2 - matched.get('figure2-data-leakage', set()))}",
        )
        for name, ids in matched.items():
            benign = sorted(ids - malicious)
            checks.expect(not benign, f"hunt {name} matched benign events {benign}")
    return outcome


# -- osint-hunt-session -----------------------------------------------------------


def osint_hunt_session(ctx: Context, checks: Checks) -> Outcome:
    """An analyst session over a store loaded at set-up.

    The session hunts report variants from a feed and sends one hand-written
    TBQL query after every ``HUNTS_PER_QUERY`` hunts.  Every variant must
    return exactly its base report's answer.  A hunt is filed under its base
    report and a query under its shape and the part's hash seed, which
    changes what some queries cost.
    """
    from repro import ThreatRaptor
    from repro.data.osctireports import auditable_reports, corpus_variants

    log = ctx.inputs["logs"][0]
    malicious = set(ctx.inputs["malicious_event_ids"])
    bases = auditable_reports()
    # Variants cycle through the bases, so every session cycle holds each
    # base's hunt equally often only if the bases divide the cycle.
    assert SESSION_CYCLE % len(bases) == 0 and SESSION_REPORTS % len(bases) == 0
    variants = corpus_variants(SESSION_REPORTS, seed=ctx.seed, bases=bases)
    outcome = Outcome(
        sizes={
            "raw_events": ctx.inputs["raw_events"],
            "reports": len(variants),
            "queries": len(QUERIES),
        }
    )

    def setup() -> ThreatRaptor:
        raptor = ThreatRaptor()
        load = raptor.load_log_file(log, host=HOST)
        assert load.reduction is not None
        outcome.count("records_parsed", load.reduction.events_before)
        return raptor

    raptor = None
    for _ in range(ctx.setup_repeats):
        raptor = None  # free the previous store before loading the next
        gc.collect()
        raptor = _timed(ctx, outcome.setup_s, setup)
    assert raptor is not None
    outcome.sizes["stored_events"] = len(raptor.store.loaded_trace.events)

    # The answers every variant must reproduce (not timed).
    expected: dict[str, set[int]] = {}
    for base in bases:
        expected[base.name] = raptor.hunt(base.text).result.all_matched_event_ids()
        checks.expect(
            expected[base.name] <= malicious,
            f"hunt {base.name} matched benign events {sorted(expected[base.name] - malicious)}",
        )
    for name in NON_EMPTY_HUNTS:
        checks.expect(bool(expected[name]), f"hunt {name} matched nothing")
    query_answers: dict[int, set[int]] = {}
    gc.collect()

    sent = 0
    started = time.perf_counter()
    while sent == 0 or sent % SESSION_CYCLE or time.perf_counter() - started < ctx.seconds:
        variant = variants[sent % len(variants)]
        base = variant.name.rsplit("-v", 1)[0]
        with ctx.request("hunt"):
            began = ctx.clock.mark()
            try:
                ids = raptor.hunt(variant.text).result.all_matched_event_ids()
            except Exception:  # noqa: BLE001 - a failing hunt is counted, the session goes on
                ids = None
                _failed_call(outcome, f"hunt {variant.name}")
            ctx.clock.record(outcome.values("hunt", base), began)
        outcome.attempted += 1
        checks.expect(ids == expected[base], f"variant {variant.name} answer differs from {base}")
        sent += 1
        if sent % HUNTS_PER_QUERY:
            continue
        index = (sent // HUNTS_PER_QUERY - 1) % len(QUERIES)
        with ctx.request("query"):
            began = ctx.clock.mark()
            try:
                answer = raptor.execute_query(QUERIES[index]).all_matched_event_ids()
            except Exception:  # noqa: BLE001 - a failing query is counted, the session goes on
                answer = None
                _failed_call(outcome, f"query {index}")
            ctx.clock.record(outcome.values("query", f"{ctx.part}/{index}"), began)
        outcome.attempted += 1
        first = query_answers.setdefault(index, answer or set())
        checks.expect(bool(answer) and answer == first, f"query {index} answer empty or changed")
    return outcome


# -- campaign-watch ---------------------------------------------------------------


def campaign_watch(ctx: Context, checks: Checks) -> Outcome:
    """Crash-safe standing hunts over campaign logs read by a tailing source.

    Set-up builds a checkpointed ``raptor.watch`` service, registers the
    campaign's two exact-answer hunts and the deduped ``hunt_corpus`` hunts.
    Each measured watch tails one campaign log to its end in micro-batches;
    the campaigns are watched in turn, in whole rounds, each time from a
    fresh service.  Batch latency runs from asking the source for the
    batch's first record to ``process_batch`` returning, so it includes tail
    parsing.
    """
    from repro import ThreatRaptor
    from repro.intel.corpus import ReportCorpus

    campaigns = ctx.inputs["campaigns"]
    corpus = ReportCorpus.variants(CORPUS_REPORTS, seed=ctx.seed)
    outcome = Outcome(
        sizes={
            "raw_events": ctx.inputs["raw_events"],
            "reports": CORPUS_REPORTS,
            "campaigns": len(campaigns),
        }
    )
    outcome.series["alert_lag_batches"] = []
    outcome.series["eval_growth"] = []

    def setup(campaign: dict[str, Any]) -> Any:
        checkpoint_dir = tempfile.mkdtemp(prefix="watch-", dir=ctx.work_dir)
        raptor = ThreatRaptor()
        service = raptor.watch(checkpoint_dir=checkpoint_dir, batch_size=BATCH_SIZE)
        for hunt in campaign["hunts"]:
            service.register_hunt(hunt["name"], query=hunt["query"])
        planned = raptor.hunt_corpus(corpus, workers=1, service=service)
        checks.expect(
            len(planned.hunts) == 5 and not planned.skipped and not planned.rejected,
            f"hunt_corpus planned {planned.summary()}",
        )
        return service, checkpoint_dir

    def discard(service: Any, checkpoint_dir: str) -> None:
        service.journal.close()
        shutil.rmtree(checkpoint_dir, ignore_errors=True)

    # Extra set-ups so that even a run watching one campaign has a median.
    for _ in range(ctx.setup_repeats - 1):
        service, checkpoint_dir = _timed(ctx, outcome.setup_s, lambda: setup(campaigns[0]))
        discard(service, checkpoint_dir)

    started = time.perf_counter()
    watched = 0
    while watched == 0 or watched % len(campaigns) or time.perf_counter() - started < ctx.seconds:
        index = watched % len(campaigns)
        campaign = campaigns[index]
        watched += 1
        gc.collect()
        service, checkpoint_dir = _timed(ctx, outcome.setup_s, lambda: setup(campaign))
        _watch_one(ctx, str(index), campaign, service, outcome, checks)
        discard(service, checkpoint_dir)
        del service
    outcome.count("watches", watched)
    return outcome


def _watch_one(
    ctx: Context,
    key: str,
    campaign: dict[str, Any],
    service: Any,
    outcome: Outcome,
    checks: Checks,
) -> None:
    from repro.streaming.source import LogTailSource

    expected = {hunt["name"]: set(hunt["expected_event_ids"]) for hunt in campaign["hunts"]}
    last_event_batch = {name: -1 for name in expected}
    malicious = set(campaign["malicious_event_ids"])
    source = LogTailSource(path=campaign["log"], host=HOST)
    records = iter(source.records())
    alerts = []
    batches = 0
    evaluated = ctx.tracer.durations("streaming.monitor", "evaluate") if ctx.tracer else []
    while True:
        with ctx.request("batch"):
            began = ctx.clock.mark()
            batch = list(islice(records, BATCH_SIZE))
            if not batch:
                break
            alerts.extend(service.process_batch(batch))
            ctx.clock.record(outcome.values("batch", key), began)
        for record in batch:
            for name, ids in expected.items():
                if record.event.event_id in ids:
                    last_event_batch[name] = batches
        batches += 1
    began = ctx.clock.mark()
    alerts.extend(service.flush())
    ctx.clock.record(outcome.values("flush", key), began)

    raw_events = source.statistics.records_parsed
    statistics = service.statistics()
    hunts = statistics["hunts"]
    outcome.count("events_stored", statistics["ingest"]["events_stored"])
    outcome.count("batches", batches)
    outcome.attempted += raw_events + sum(hunt["evaluations"] for hunt in hunts.values())
    outcome.failed += source.statistics.records_skipped
    outcome.count("records_parsed", raw_events)
    outcome.count("records_skipped", source.statistics.records_skipped)
    outcome.count("evaluations", sum(hunt["evaluations"] for hunt in hunts.values()))
    outcome.count("alerts", len(alerts))
    outcome.count("checkpoint_writes", service.checkpoint_store.statistics()["writes"])
    outcome.count("journal_entries", service.journal.statistics()["entries"])
    for standing in service.hunts:
        if standing.prepared is not None:
            cache = standing.prepared.cache_info()
            outcome.count("plan_hits", cache["hits"])
            outcome.count("plan_misses", cache["misses"])
    if ctx.tracer is not None:
        evaluations = ctx.tracer.durations("streaming.monitor", "evaluate")[len(evaluated):]
        quarter = len(evaluations) // 4
        if quarter:
            first = sum(evaluations[:quarter])
            outcome.series["eval_growth"].append(sum(evaluations[-quarter:]) / first)
    outcome.failed += sum(hunt["errors"] for hunt in hunts.values())
    outcome.failed += sum(hunt["status"] == "quarantined" for hunt in hunts.values())
    checks.expect(source.statistics.records_skipped == 0, "log records skipped")
    for name, ids in expected.items():
        matched = service.matched_event_ids(name)
        checks.expect(
            matched == ids, f"watch hunt {name} matched {sorted(matched)}, not {sorted(ids)}"
        )
        emitted = [alert.batch_index for alert in alerts if alert.hunt == name]
        if emitted:
            outcome.series["alert_lag_batches"].append(max(emitted) - last_event_batch[name])
    for name, hunt in hunts.items():
        checks.expect(hunt["status"] == "ok", f"watch hunt {name} is {hunt['status']}")
        if name not in expected:
            benign = sorted(service.matched_event_ids(name) - malicious)
            checks.expect(not benign, f"watch hunt {name} matched benign events {benign}")
    journaled = [entry["alert"] for entry in service.journal.entries()]
    checks.expect(
        journaled == [alert.to_dict() for alert in alerts],
        f"journal holds {len(journaled)} alerts, the watch returned {len(alerts)}",
    )


WORKLOADS: dict[str, Callable[[Context, Checks], Outcome]] = {
    "log-to-alert": log_to_alert,
    "osint-hunt-session": osint_hunt_session,
    "campaign-watch": campaign_watch,
}
