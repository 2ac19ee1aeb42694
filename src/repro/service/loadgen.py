"""Open-loop TCP load generator for the solver service.

Drives a running ``repro serve --tcp`` endpoint with a mixed
solve/evaluate/update/stats script at a fixed *arrival* rate across N
concurrent connections. Open loop means the schedule never waits for
responses — request ``i`` is sent at ``start + i / rate`` regardless of
how the server is doing — so measured latency includes queueing and the
server's admission-control rejections show up instead of silently
slowing the generator (the classic closed-loop coordinated-omission
trap).

The script is deterministic for a given seed: op choice, dataset,
``k``, items and events all come from one ``random.Random`` stream.
Ops are emitted in the v2 envelope by default (``schema=1`` exercises
the flat compatibility decoder instead). Results are correlated by
request id; the report aggregates p50/p99/mean latency, throughput,
rejection/error counts and the warm/coalesced response ratios that the
server's reuse machinery should produce under concurrency.

Usable three ways: ``repro loadgen`` (CLI), ``benchmarks/bench_load.py``
(benchmark phases), and in-process inside ``tests/test_server.py``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.service.protocol import (
    EvaluateRequest,
    Request,
    ServiceRequest,
    SolveRequest,
    StatsRequest,
    UpdateRequest,
    encode_request,
)
from repro.utils.timing import percentile

DEFAULT_MIX = {
    "solve": 0.55,
    "evaluate": 0.2,
    "update": 0.15,
    "stats": 0.1,
}

#: Grace period after the last send for straggler responses.
DRAIN_GRACE = 30.0


@dataclass
class LoadScript:
    """What to send: op mix, datasets, and per-op knobs."""

    datasets: tuple[str, ...] = ("rand-mc-c2",)
    mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    im_samples: int = 300
    k_choices: tuple[int, ...] = (2, 3, 4, 5)
    item_pool: int = 20
    seed: int = 0
    schema: int = 2
    #: Draw a fresh solver seed per request. Distinct seeds mean
    #: distinct sessions — every solve pays the cold sampling cost —
    #: which is how the overload bench keeps the engine saturated.
    vary_seed: bool = False

    def __post_init__(self) -> None:
        unknown = set(self.mix) - set(DEFAULT_MIX)
        if unknown:
            raise ValueError(f"unknown ops in mix: {sorted(unknown)}")
        if not self.mix or sum(self.mix.values()) <= 0:
            raise ValueError("mix must have positive total weight")
        if self.schema not in (1, 2):
            raise ValueError("schema must be 1 or 2")

    def build(self, rng: random.Random, index: int) -> ServiceRequest:
        """The ``index``-th request of the run (id ``r{index}``)."""
        ops = sorted(self.mix)
        weights = [self.mix[op] for op in ops]
        op = rng.choices(ops, weights=weights)[0]
        request_id = f"r{index}"
        dataset = rng.choice(self.datasets)
        seed = rng.randrange(1 << 20) if self.vary_seed else 0
        if op == "solve":
            return SolveRequest(
                id=request_id, dataset=dataset, algorithm="greedy",
                k=rng.choice(self.k_choices), seed=seed,
                im_samples=self.im_samples,
            )
        if op == "evaluate":
            items = tuple(sorted(rng.sample(range(self.item_pool), 3)))
            return EvaluateRequest(
                id=request_id, dataset=dataset, items=items, seed=seed,
                im_samples=self.im_samples,
            )
        if op == "update":
            events = (("insert", rng.randrange(self.item_pool)),)
            return UpdateRequest(
                id=request_id, dataset=dataset, k=3, events=events,
                seed=seed, im_samples=self.im_samples,
            )
        return StatsRequest(id=request_id)

    def encode(self, request: ServiceRequest) -> str:
        if self.schema == 1:
            # Down-convert through the flat dataclass: same defaults,
            # so the v1 line carries identical semantics.
            flat = Request(op=request.op, **{
                name: getattr(request, name)
                for name in (
                    "id", "dataset", "algorithm", "k", "items", "events",
                    "seed", "im_samples",
                )
                if hasattr(request, name)
            })
            return encode_request(flat)
        return encode_request(request)


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    sent: int = 0
    completed: int = 0
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    warm: int = 0
    coalesced: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    max_ms: float = 0.0
    per_op: dict[str, int] = field(default_factory=dict)

    @property
    def lost(self) -> int:
        """Requests that never got a response (disconnects, timeout)."""
        return self.sent - self.completed

    def as_dict(self) -> dict[str, Any]:
        return {
            "sent": self.sent,
            "completed": self.completed,
            "lost": self.lost,
            "ok": self.ok,
            "failed": self.failed,
            "rejected": self.rejected,
            "rejection_rate": self.rejected / self.sent if self.sent else 0.0,
            "warm": self.warm,
            "coalesced": self.coalesced,
            "duration_s": self.duration,
            "throughput_rps": self.throughput,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "per_op": dict(self.per_op),
        }


async def run_load(
    host: str,
    port: int,
    *,
    connections: int = 8,
    rate: float = 100.0,
    duration: float = 2.0,
    total: Optional[int] = None,
    script: Optional[LoadScript] = None,
    timeout: float = DRAIN_GRACE,
) -> LoadReport:
    """Run one open-loop load phase and aggregate the responses.

    ``total`` overrides ``duration`` (exactly that many arrivals);
    otherwise ``int(rate * duration)`` requests are scheduled. Requests
    round-robin over ``connections`` sockets so every connection
    carries concurrent traffic.
    """
    script = script or LoadScript()
    if connections < 1:
        raise ValueError("connections must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(script.seed)
    report = LoadReport()
    latencies: list[float] = []
    send_times: dict[str, float] = {}
    outstanding: set[str] = set()
    sending_done = asyncio.Event()
    all_answered = asyncio.Event()

    conns = []
    try:
        for _ in range(connections):
            conns.append(await asyncio.open_connection(host, port))

        def account(response: dict[str, Any], now: float) -> None:
            request_id = response.get("id", "")
            started = send_times.pop(request_id, None)
            if started is None:
                return  # unsolicited (e.g. a daemon error line)
            latencies.append(now - started)
            report.completed += 1
            op = response.get("op", "?")
            report.per_op[op] = report.per_op.get(op, 0) + 1
            if response.get("ok"):
                report.ok += 1
                if response.get("warm"):
                    report.warm += 1
                extra = response.get("result", {}).get("extra", {})
                if isinstance(extra, dict) and extra.get("coalesced"):
                    report.coalesced += 1
            elif response.get("error", "").startswith(
                ("overloaded", "draining")
            ):
                report.rejected += 1
            else:
                report.failed += 1
            outstanding.discard(request_id)
            if sending_done.is_set() and not outstanding:
                all_answered.set()

        async def read_responses(reader: asyncio.StreamReader) -> None:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    continue
                account(response, time.perf_counter())

        readers = [
            asyncio.create_task(read_responses(reader))
            for reader, _ in conns
        ]

        n_requests = total if total is not None else int(rate * duration)
        start = time.perf_counter()
        for index in range(n_requests):
            target = start + index / rate
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request = script.build(rng, index)
            line = script.encode(request) + "\n"
            _, writer = conns[index % connections]
            send_times[request.id] = time.perf_counter()
            outstanding.add(request.id)
            report.sent += 1
            writer.write(line.encode("utf-8"))
        for _, writer in conns:
            await writer.drain()
        sending_done.set()
        if not outstanding:
            all_answered.set()
        try:
            await asyncio.wait_for(all_answered.wait(), timeout)
        except asyncio.TimeoutError:
            pass  # stragglers count as lost
        report.duration = time.perf_counter() - start
        for reader_task in readers:
            reader_task.cancel()
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    report.throughput = (
        report.completed / report.duration if report.duration else 0.0
    )
    report.p50_ms = percentile(latencies, 0.50) * 1000.0
    report.p99_ms = percentile(latencies, 0.99) * 1000.0
    report.mean_ms = (
        sum(latencies) / len(latencies) * 1000.0 if latencies else 0.0
    )
    report.max_ms = max(latencies) * 1000.0 if latencies else 0.0
    return report


def parse_mix(spec: str) -> dict[str, float]:
    """Parse ``"solve=0.6,stats=0.4"`` into a weight dict."""
    mix: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        op, _, weight = part.partition("=")
        try:
            mix[op.strip()] = float(weight)
        except ValueError as exc:
            raise ValueError(f"bad mix entry {part!r}") from exc
    return mix
