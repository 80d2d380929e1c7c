"""In-memory span tracing of the repro layers, installed by the benchmark only.

:func:`install` wraps the public entry points of each layer (class methods
of ``repro``) with timing wrappers and returns a :class:`Tracer`;
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/`` is
modified, and the untraced run never calls :func:`install`.

Each wrapped call is a span with a layer, an operation and the span that
caused it.  The tracer keeps a stack of open spans, so a layer's **self
time** is its spans' duration minus the part their child spans cover, and
its **busy time** counts only the outermost span of that layer (a layer
calling itself is not counted twice).  Generator entry points (the log
parser's ``iter_events``, the tail source, the graph matcher) are timed per
resumption, so the consumer's work between items is not charged to them.

Counts are taken from the wrapped calls' public return values (reduction
output, extraction results, TBQL result statistics, corpus-hunt summaries,
ingested batches).
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class _Frame:
    layer: str
    op: str
    started: float
    children: float = 0.0


@dataclass
class OpTotals:
    """Accumulated time of one (layer, operation) pair."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


@dataclass
class RequestSpan:
    """One benchmark-level request (a pass, a hunt, a query, a batch).

    ``unattributed_s`` is the part of it no layer's span covers.
    """

    kind: str
    seconds: float
    unattributed_s: float


class Tracer:
    """Span stack plus per-layer totals and per-request times."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self.ops: dict[tuple[str, str], OpTotals] = {}
        self.counters: dict[str, float] = {}
        self.requests: list[RequestSpan] = []
        self._restore: list[tuple[type, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str, op: str) -> None:
        self._stack.append(_Frame(layer, op, time.perf_counter()))
        self._depth[layer] = self._depth.get(layer, 0) + 1

    def exit(self, call: bool = True) -> float:
        """Close the innermost span; ``call=False`` for a generator resumption."""
        ended = time.perf_counter()
        frame = self._stack.pop()
        duration = ended - frame.started
        self._depth[frame.layer] -= 1
        totals = self.ops.get((frame.layer, frame.op))
        if totals is None:
            totals = self.ops[(frame.layer, frame.op)] = OpTotals()
        totals.calls += call
        totals.self_s += duration - frame.children
        if self._depth[frame.layer] == 0:
            totals.busy_s += duration
        if self._stack:
            self._stack[-1].children += duration
        return duration

    def request(self, kind: str) -> "_RequestScope":
        """Context manager opening one request-level root span."""
        return _RequestScope(self, kind)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- aggregation -----------------------------------------------------------

    def layer_busy(self, layer: str, op: str | None = None) -> float:
        return sum(
            totals.busy_s
            for (name, operation), totals in self.ops.items()
            if name == layer and (op is None or operation == op)
        )

    def layer_self(self, layer: str) -> float:
        return sum(t.self_s for (name, _), t in self.ops.items() if name == layer)

    def layer_calls(self, layer: str, op: str | None = None) -> int:
        return sum(
            t.calls
            for (name, operation), t in self.ops.items()
            if name == layer and (op is None or operation == op)
        )

    def durations(self, layer: str, op: str) -> list[float]:
        totals = self.ops.get((layer, op))
        return list(totals.durations) if totals is not None else []

    def coverage(self) -> float:
        """Share of request time spent inside some layer's span."""
        total = sum(request.seconds for request in self.requests)
        if total <= 0.0:
            return 0.0
        unattributed = sum(request.unattributed_s for request in self.requests)
        return 1.0 - unattributed / total

    # -- wrapper installation --------------------------------------------------

    def wrap(
        self,
        owner: type,
        name: str,
        layer: str,
        op: str,
        on_result: Callable[["Tracer", tuple, dict, Any], None] | None = None,
        keep_durations: bool = False,
    ) -> None:
        """Replace ``owner.name`` with a traced version (undone by :meth:`uninstall`)."""
        function = owner.__dict__[name]
        tracer = self

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = function(*args, **kwargs)
                try:
                    while True:
                        tracer.enter(layer, op)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            # One generator is one call, however often it resumes.
                            tracer.exit(call=False)
                        yield item
                finally:
                    tracer.ops.setdefault((layer, op), OpTotals()).calls += 1
                    inner.close()

        else:

            @functools.wraps(function)
            def traced(*args: Any, **kwargs: Any) -> Any:
                tracer.enter(layer, op)
                try:
                    result = function(*args, **kwargs)
                finally:
                    duration = tracer.exit()
                    if keep_durations:
                        tracer.ops[(layer, op)].durations.append(duration)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result

        setattr(owner, name, traced)
        self._restore.append((owner, name, function))

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


class _RequestScope:
    def __init__(self, tracer: Tracer, kind: str) -> None:
        self._tracer = tracer
        self._kind = kind

    def __enter__(self) -> None:
        self._tracer.enter("request", self._kind)

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        children = tracer._stack[-1].children
        seconds = tracer.exit()
        tracer.requests.append(RequestSpan(self._kind, seconds, seconds - children))


# -- counters read from public return values -----------------------------------


def _on_reduce(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    _, stats = result
    tracer.count("reduction.events_in", stats.events_before)
    tracer.count("reduction.events_out", stats.events_after)


def _on_incremental_ingest(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    events = args[1] if len(args) > 1 else kwargs["events"]
    tracer.count("reduction.events_in", len(events))
    tracer.count("reduction.events_out", len(result))


def _on_incremental_flush(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("reduction.events_out", len(result))


def _on_extract(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("nlp.iocs", len(result.canonical_iocs()))
    tracer.count("nlp.edges", len(result.graph.edges))


def _on_tbql_result(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    statistics = result.statistics
    tracer.count("executor.pattern_s", sum(statistics["pattern_seconds"].values()))
    tracer.count("executor.pattern_rows", sum(statistics["pattern_matches"].values()))
    tracer.count("executor.result_rows", statistics["result_rows"])


def _on_register(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    summary = result.summary()
    tracer.count("intel.reports", summary["reports"])
    tracer.count("intel.hunted_reports", summary["hunted_reports"])
    tracer.count("intel.hunts", summary["hunts"])


def _on_ingest(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("ingest.events_stored", result.report.appended_events)
    tracer.maximum("ingest.pending_max", result.report.pending_events)


def install() -> Tracer:
    """Wrap every measured layer's public entry points; return the tracer."""
    from repro.auditing.parser import AuditLogParser
    from repro.auditing.reduction import CausalityPreservedReducer, IncrementalReducer
    from repro.intel.hunt import CorpusHuntPlanner
    from repro.nlp.extractor import ThreatBehaviorExtractor
    from repro.storage.graph.graphdb import GraphDatabase
    from repro.storage.graph.planner import CostGuidedPathMatcher
    from repro.storage.relational.database import RelationalDatabase
    from repro.streaming.checkpoint import CheckpointStore
    from repro.streaming.ingest import StreamIngestor
    from repro.streaming.journal import JournalSink
    from repro.streaming.monitor import QueryMonitor
    from repro.streaming.source import LogTailSource
    from repro.tbql.analysis.analyzer import StaticAnalyzer
    from repro.tbql.executor import TBQLExecutionEngine
    from repro.tbql.synthesis import QuerySynthesizer

    tracer = Tracer()
    tracer.wrap(AuditLogParser, "parse", "auditing.parser", "parse")
    tracer.wrap(AuditLogParser, "iter_events", "auditing.parser", "iter_events")
    tracer.wrap(CausalityPreservedReducer, "reduce", "auditing.reduction", "reduce", _on_reduce)
    tracer.wrap(
        IncrementalReducer, "ingest", "auditing.reduction", "ingest", _on_incremental_ingest
    )
    tracer.wrap(IncrementalReducer, "flush", "auditing.reduction", "flush", _on_incremental_flush)
    tracer.wrap(RelationalDatabase, "load_trace", "storage.relational", "load")
    tracer.wrap(RelationalDatabase, "append_batch", "storage.relational", "load")
    tracer.wrap(RelationalDatabase, "execute", "storage.relational", "execute")
    tracer.wrap(GraphDatabase, "load_trace", "storage.graph", "load")
    tracer.wrap(GraphDatabase, "append_batch", "storage.graph", "load")
    tracer.wrap(CostGuidedPathMatcher, "match", "storage.graph", "match")
    tracer.wrap(ThreatBehaviorExtractor, "extract", "nlp", "extract", _on_extract)
    tracer.wrap(QuerySynthesizer, "synthesize_with_report", "tbql.synthesis", "synthesize")
    tracer.wrap(StaticAnalyzer, "analyze", "tbql.analysis", "analyze")
    tracer.wrap(TBQLExecutionEngine, "execute", "tbql.executor", "execute", _on_tbql_result)
    tracer.wrap(
        TBQLExecutionEngine, "execute_prepared", "tbql.executor", "execute", _on_tbql_result
    )
    tracer.wrap(TBQLExecutionEngine, "prepare", "tbql.executor", "prepare")
    tracer.wrap(CorpusHuntPlanner, "register", "intel", "register", _on_register)
    tracer.wrap(LogTailSource, "records", "streaming.source", "records")
    tracer.wrap(StreamIngestor, "ingest", "streaming.ingest", "ingest", _on_ingest)
    tracer.wrap(StreamIngestor, "flush", "streaming.ingest", "flush", _on_ingest)
    tracer.wrap(QueryMonitor, "evaluate", "streaming.monitor", "evaluate", keep_durations=True)
    tracer.wrap(CheckpointStore, "save", "streaming.checkpoint", "save")
    tracer.wrap(JournalSink, "emit", "streaming.journal", "emit")
    return tracer
