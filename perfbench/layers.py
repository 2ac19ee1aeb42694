"""Per-layer metrics from a traced run's spans and the server's counters.

Spans come from ``tracer.py``; counters from the ``stats`` op and the
``/metrics`` scrape taken just before and just after the timed window.
Every span metric covers only the timed window: engine spans count when
they served a timed request, front-end spans when they started inside
the window.

A request's latency (from its send) splits into the engine span of the
batch that served it and everything else, which is the front-end's
share (protocol, admission, batch timer, executor hand-off and, when
sharded, the shard pipe). Inside the engine span, ``solver`` is time in
``BSMProblem.solve`` or a coalesced greedy run, ``oracle`` the
``gains_batch`` calls within them, and ``session`` the warm-state layer:
``SolverSession.objective`` (which samples or repairs), RR repair and
the dynamic maximizer's event processing. Members of one coalesced
batch each carry the whole batch's time, since each waits for all of it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from driver import DriveResult
from stats import mean, percentile

SOLVER = ("solver.solve", "solver.greedy")
SESSION = ("session.objective", "rr.refresh", "dynamic.events")


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    attrs: Any

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def load_spans(trace_dir: Path) -> dict[int, dict[int, Span]]:
    """``{pid: {span id: span}}`` from every flushed process."""
    out: dict[int, dict[int, Span]] = {}
    for path in sorted(trace_dir.glob("spans-*.json")):
        with open(path) as handle:
            data = json.load(handle)
        out[data["pid"]] = {
            raw[0]: Span(raw[0], raw[1], raw[2], raw[4], raw[5], raw[6])
            for raw in data["spans"]
        }
    return out


def _ancestors(span: Span, spans: dict[int, Span]):
    parent = spans.get(span.parent)
    while parent is not None:
        yield parent
        parent = spans.get(parent.parent)


def _outermost(span: Span, spans: dict[int, Span], names: tuple) -> bool:
    return not any(a.name in names for a in _ancestors(span, spans))


@dataclass
class _Batch:
    """One engine call and the layer time inside it."""

    span: Span
    solver: float = 0.0
    oracle: float = 0.0
    oracle_calls: int = 0
    session: float = 0.0


def _batches(spans_by_pid: dict[int, dict[int, Span]], timed_ids: set[str]
             ) -> tuple[list[_Batch], dict[str, list[Span]]]:
    """Engine batches serving timed requests, and their inner spans by name."""
    batches: list[_Batch] = []
    inner: dict[str, list[Span]] = defaultdict(list)
    for spans in spans_by_pid.values():
        engine = {
            span.id: _Batch(span) for span in spans.values()
            if span.name == "engine.handle_batch"
            and timed_ids.intersection(span.attrs)
        }
        batches.extend(engine.values())
        for span in spans.values():
            if span.name == "engine.handle_batch":
                continue
            batch = next((engine[a.id] for a in _ancestors(span, spans)
                          if a.id in engine), None)
            if batch is None:
                continue
            inner[span.name].append(span)
            if span.name in SOLVER and _outermost(span, spans, SOLVER):
                batch.solver += span.ms
                inner["solver"].append(span)
            elif span.name == "oracle.gains_batch" and not _outermost(
                    span, spans, SOLVER):
                batch.oracle += span.ms
                batch.oracle_calls += 1
            if span.name in SESSION and _outermost(span, spans, SESSION):
                batch.session += span.ms
    return batches, inner


def _counter_delta(before: dict[str, Any], after: dict[str, Any],
                   frontend_pool: Optional[tuple[str, int]]
                   ) -> dict[str, float]:
    """Engine and session counters moved during the timed window.

    ``frontend_pool`` names the front-end's own executor pool when the
    engine shares its process (every engine batch is one dispatch on
    it); it is left out of ``pool_dispatches``, which counts sampling
    and evaluation pools only.
    """

    def totals(stats: dict[str, Any]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for key in ("requests_served", "coalesced_requests", "coalesced_runs"):
            out[key] = float(stats.get(key, 0))
        for session in stats.get("sessions", []):
            for key in ("hits", "misses", "evictions"):
                out[f"objective_{key}"] += session["objective"][key]
            for key in ("repairs", "full_resamples", "sets_repaired",
                        "sets_total"):
                out[key] += session["repair"][key]
        blocks = stats.get("shards") or [stats]
        for block in blocks:
            pools = block.get("pools", {})
            for pool in pools.get("active_pools", []):
                if (pool["backend"], pool["width"]) != frontend_pool:
                    out["pool_dispatches"] += pool["dispatches"]
        return out

    first, last = totals(before), totals(after)
    delta: dict[str, float] = defaultdict(float)
    delta.update({key: last[key] - first[key] for key in last})
    return delta


def _scrape_delta(before: dict[str, float], after: dict[str, float]
                  ) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def per_layer(result: DriveResult, spans_by_pid: dict[int, dict[int, Span]],
              stats_before: dict[str, Any], stats_after: dict[str, Any],
              scrape_before: dict[str, float], scrape_after: dict[str, float],
              *, frontend_pool: Optional[tuple[str, int]],
              traced_p50_ms: float, untraced_p50_ms: float
              ) -> dict[str, float]:
    answered = [r for r in result.records if r.response is not None]
    by_id = {f"r{r.index}": r for r in answered}
    batches, inner = _batches(spans_by_pid, set(by_id))

    engine_ms: dict[str, float] = defaultdict(float)
    layer_ms: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for batch in batches:
        for request_id in batch.span.attrs:
            if request_id not in by_id:
                continue
            engine_ms[request_id] += batch.span.ms
            layer = layer_ms[request_id]
            layer["solver"] += batch.solver
            layer["oracle"] += batch.oracle
            layer["session"] += batch.session

    frontend, total = [], 0.0
    share = defaultdict(float)
    for request_id, ms in engine_ms.items():
        record = by_id[request_id]
        latency = (record.received - record.sent) * 1000.0
        frontend.append(latency - ms)
        total += latency
        share["frontend"] += latency - ms
        share["engine"] += ms
        for name, value in layer_ms[request_id].items():
            share[name] += value

    # Shard pipe: EngineShard.handle_batch minus the child's engine span,
    # paired by the batch's first request id (data ops only).
    child_engine = {
        batch.span.attrs[0]: batch.span.ms for batch in batches
        if batch.span.attrs
    }
    pipe = []
    for spans in spans_by_pid.values():
        for span in spans.values():
            if span.name == "shards.handle_batch" and span.attrs and \
                    span.attrs[0] in by_id and by_id[span.attrs[0]].op != "stats":
                pipe.append(span.ms - child_engine.get(span.attrs[0], 0.0))

    window = (result.start, result.end)
    frontend_spans = defaultdict(list)
    for spans in spans_by_pid.values():
        for span in spans.values():
            if span.name.startswith("protocol.") and \
                    window[0] <= span.start <= window[1]:
                frontend_spans[span.name].append(span.ms)

    solver_spans = inner["solver"]
    solver_total = sum(span.ms for span in solver_spans)
    sample_spans = inner["rr.sample"]
    sample_seconds = sum(span.end - span.start for span in sample_spans)
    counters = _counter_delta(stats_before, stats_after, frontend_pool)
    scraped = _scrape_delta(scrape_before, scrape_after)
    shard_requests = [value for key, value in scraped.items()
                      if key.startswith("repro_shard_requests_total{")]
    lookups = counters["objective_hits"] + counters["objective_misses"]
    solve_records = [r for r in answered
                     if r.op == "solve" and r.response.get("ok")]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "server.frontend_ms_p50": percentile(frontend, 0.50),
        "server.frontend_ms_p90": percentile(frontend, 0.90),
        "server.batch_size_mean": mean([len(b.span.attrs) for b in batches]),
        "server.rejected": scraped.get("repro_requests_rejected_total", 0.0),
        "server.invalid": scraped.get("repro_requests_invalid_total", 0.0),
        "protocol.decode_us_p50":
            percentile(frontend_spans["protocol.decode"], 0.5) * 1000.0,
        "protocol.encode_us_p50":
            percentile(frontend_spans["protocol.encode"], 0.5) * 1000.0,
        "shards.pipe_ms_p50": percentile(pipe, 0.50),
        "shards.max_share": (
            ratio(max(shard_requests), sum(shard_requests))
            if shard_requests else 1.0
        ),
        "engine.batch_ms_p50":
            percentile([b.span.ms for b in batches], 0.50),
        "engine.coalesced_share": ratio(counters["coalesced_requests"],
                                        counters["requests_served"]),
        "engine.coalesced_runs": counters["coalesced_runs"],
        "session.objective_ms_p50": percentile(
            [span.ms for span in inner["session.objective"]], 0.50),
        "session.objective_hit_ratio": ratio(counters["objective_hits"],
                                             lookups),
        "session.evictions": counters["objective_evictions"],
        "session.repairs": counters["repairs"],
        "session.sets_repaired_share": ratio(counters["sets_repaired"],
                                             counters["sets_total"]),
        "session.full_resamples": counters["full_resamples"],
        "solver.solve_ms_p50": percentile([s.ms for s in solver_spans], 0.50),
        "solver.oracle_calls_mean": mean(
            [r.response["result"]["oracle_calls"] for r in solve_records]),
        "oracle.gains_batch_calls_per_solve": ratio(
            sum(b.oracle_calls for b in batches), len(solver_spans)),
        "oracle.gains_batch_share": ratio(
            sum(b.oracle for b in batches), solver_total),
        "rr.sample_ms_p50": percentile([s.ms for s in sample_spans], 0.50),
        "rr.sample_calls": float(len(sample_spans)),
        "rr.sets_per_s": ratio(
            sum(span.attrs for span in sample_spans), sample_seconds),
        "rr.refresh_ms_p50": percentile(
            [s.ms for s in inner["rr.refresh"]], 0.50),
        "dynamic.events_ms_p50": percentile(
            [s.ms for s in inner["dynamic.events"]], 0.50),
        "pool.dispatches": counters["pool_dispatches"],
        "share.frontend": ratio(share["frontend"], total),
        "share.engine": ratio(share["engine"], total),
        "share.solver": ratio(share["solver"], total),
        "share.oracle": ratio(share["oracle"], total),
        "share.session": ratio(share["session"], total),
        "trace.overhead_ratio": ratio(traced_p50_ms, untraced_p50_ms),
    }
