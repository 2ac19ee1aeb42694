"""Closed-loop TCP driver, measured in slices of host-steal-checked time.

The driver sends waves of ``connections * depth`` requests, the next
when the whole previous wave is answered, and times each request from
its send. Responses on one connection may come back out of order; they
are matched to requests by id.

The timed window is cut into slices of about ``SLICE_SECONDS``. At each
slice boundary the driver reads how much CPU time the hypervisor stole
from this guest (``/proc/stat``) and how much CPU the server used. A
slice in which more than ``STEAL_LIMIT`` of the guest's CPU time was
stolen does not count towards the window: the driver keeps going, up to
``MAX_STRETCH`` times the window, until its slices under the limit add
up to the window. ``DriveResult.timed`` then picks the least-stolen
slices that fill the window; the timing metrics come from those.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from workloads import Draw, Workload

#: Seconds to wait for a wave's answers before counting them lost.
DRAIN_GRACE = 60.0
#: Longest response line accepted (stats blocks are large).
LINE_LIMIT = 64 << 20
#: Seconds of driving between two steal readings.
SLICE_SECONDS = 2.0
#: Largest share of the guest's CPU time the host may steal in a slice
#: that counts towards the window.
STEAL_LIMIT = 0.01
#: The driver gives up replacing stolen slices at this multiple of the
#: window and keeps the least-stolen slices it has.
MAX_STRETCH = 1.25


def host_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole guest since boot."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already inside user and nice.
    return fields[7], sum(fields[:8])


@dataclass
class Record:
    """One request and what came back."""

    index: int
    label: str
    op: str
    args: dict[str, Any]
    sent: float = 0.0
    received: float = 0.0
    response: Optional[dict[str, Any]] = None

    @property
    def latency(self) -> float:
        """Seconds from send to response."""
        return self.received - self.sent


@dataclass
class Slice:
    """Consecutive waves between two steal readings."""

    start: float
    end: float
    #: Records ``first`` up to (not including) ``stop`` were sent in it.
    first: int
    stop: int
    steal_share: float
    server_cpu_seconds: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class DriveResult:
    records: list[Record] = field(default_factory=list)
    slices: list[Slice] = field(default_factory=list)
    #: Start of the first slice and end of the last, perf_counter seconds.
    start: float = 0.0
    end: float = 0.0

    def timed(self, seconds: float) -> list[Slice]:
        """The least-stolen slices that together last ``seconds``, in
        driving order (all slices when they last less)."""
        ranked = sorted(self.slices, key=lambda s: s.steal_share)
        kept, total = [], 0.0
        for piece in ranked:
            if total >= seconds:
                break
            kept.append(piece)
            total += piece.seconds
        return sorted(kept, key=lambda s: s.start)


class _Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[str, tuple[Record, asyncio.Future]] = {}
        self._task = asyncio.create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(
            host, port, limit=LINE_LIMIT
        )
        return cls(reader, writer)

    def send(self, record: Record) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        request_id = f"r{record.index}"
        self._pending[request_id] = (record, future)
        line = json.dumps({"schema": 2, "op": record.op, "id": request_id,
                           "args": record.args}, separators=(",", ":"))
        record.sent = time.perf_counter()
        self._writer.write(line.encode("utf-8") + b"\n")
        return future

    async def _read(self) -> None:
        while True:
            line = await self._reader.readline()
            now = time.perf_counter()
            if not line:
                break
            response = json.loads(line)
            entry = self._pending.pop(response.get("id", ""), None)
            if entry is None:
                continue
            record, future = entry
            record.received = now
            record.response = response
            future.set_result(None)
        for _, future in self._pending.values():
            if not future.done():
                future.set_result(None)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


class _SliceClock:
    """Opens and closes slices, reading host steal and server CPU."""

    def __init__(self, result: DriveResult,
                 server_cpu: Callable[[], float]) -> None:
        self._result = result
        self._server_cpu = server_cpu
        self.open()

    def open(self) -> None:
        self._ticks, self._cpu = host_ticks(), self._server_cpu()
        self.start, self._first = time.perf_counter(), len(self._result.records)

    def due(self, now: float) -> bool:
        return now - self.start >= SLICE_SECONDS

    def close(self, now: float) -> None:
        steal, total = host_ticks()
        elapsed_ticks = total - self._ticks[1]
        self._result.slices.append(Slice(
            self.start, now, self._first, len(self._result.records),
            (steal - self._ticks[0]) / elapsed_ticks if elapsed_ticks else 0.0,
            self._server_cpu() - self._cpu,
        ))


async def closed_loop(host: str, port: int, workload: Workload,
                      draws: Iterator[Draw], seconds: float,
                      server_cpu: Callable[[], float]) -> DriveResult:
    """Send waves until slices under the steal limit fill ``seconds``.

    The next wave goes when the whole previous wave is answered, so
    every wave reaches the server together: how the server batches a
    wave does not depend on how the previous one happened to split.
    (Free-running slots drift into interleaved groups, and which grouping
    a run settles into moved solve-burst throughput between 74 and 206
    requests per second from one run to the next.)
    """
    conns = [await _Connection.open(host, port)
             for _ in range(workload.connections)]
    result = DriveResult()
    width = workload.connections * workload.depth
    try:
        clock = _SliceClock(result, server_cpu)
        result.start = clock.start
        give_up = result.start + seconds * MAX_STRETCH
        while True:
            wave = []
            for slot in range(width):
                label, op, args = next(draws)
                record = Record(len(result.records), label, op, args)
                result.records.append(record)
                wave.append(conns[slot % len(conns)].send(record))
            _, pending = await asyncio.wait(wave, timeout=DRAIN_GRACE)
            lost = bool(pending)  # their records count as failed
            if workload.think and not lost:
                await asyncio.sleep(workload.think)
            now = time.perf_counter()
            if lost or clock.due(now):
                clock.close(now)
                counted = sum(s.seconds for s in result.slices
                              if s.steal_share <= STEAL_LIMIT)
                if lost or counted >= seconds or now >= give_up:
                    break
                clock.open()
    finally:
        for conn in conns:
            await conn.close()
    result.end = result.slices[-1].end
    return result


def drive(host: str, port: int, workload: Workload, draws: Iterator[Draw],
          seconds: float, server_cpu: Callable[[], float]) -> DriveResult:
    return asyncio.run(closed_loop(host, port, workload, draws, seconds,
                                   server_cpu))
