"""Engine shards behind the TCP front-end: in-process or forked.

The front-end dispatches every request through an
:class:`EngineShardPool`. A one-shard pool calls its live engine
in-process (:class:`InProcessShard`: no fork, no JSON). A pool of N > 1
spawns N engine worker *processes* (:class:`EngineShard`) and speaks
the JSON-lines wire protocol to each over a
:class:`multiprocessing.Pipe` — the same
:func:`repro.service.daemon.serve_forever` loop that serves stdio
serves a shard, fed by small file-like adapters over the connection.

Routing is **dataset-affine**: :func:`shard_for_dataset` maps a dataset
name to ``crc32(name) % num_shards``. Warm session state (objectives,
RR collections, MC bundles, dynamic maximizers) keys on dataset
identity, so affinity guarantees every request for a dataset always
finds its warm state on the same shard — and that two shards never
hold divergent copies of one dataset's dynamic state. ``crc32`` rather
than ``hash()``: Python string hashing is salted per process, and the
routing key must be stable across front-end restarts for operators
reasoning about shard load.

Transport framing: the front-end sends one pipe message per request
line — a JSON array of encoded requests, exactly the wire batch format
— and receives one pipe message back holding the newline-joined
response lines for that batch. ``serve_forever`` flushes once per
input line, so the adapter's ``flush`` is the message boundary. A
``shutdown`` op terminates the worker loop; the worker acks it before
exiting (same contract as the stdio daemon).

Determinism: each shard is a full engine with the same construction
knobs, and the engine is deterministic per request stream. Because
routing is dataset-affine and the front-end keeps per-shard FIFO
queues, the per-dataset request order equals the arrival order — so a
sharded server's responses are bitwise-identical to a one-shard
server's for any sequential client (pinned by ``tests/test_shards.py``
and the ``sharded`` phase of ``benchmarks/bench_load.py``).
"""

from __future__ import annotations

import threading
import zlib
from multiprocessing.connection import Connection
from typing import Any, Optional

from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    AnyRequest,
    Response,
    decode_response,
    encode_request,
)
from repro.utils.parallel import process_context, reset_pools_after_fork

#: Seconds to wait for a shard to ack shutdown before terminating it.
SHUTDOWN_TIMEOUT = 10.0


def shard_for_dataset(dataset: str, num_shards: int) -> int:
    """Stable shard index for a dataset name (0 when unsharded).

    ``crc32`` is deliberate: ``hash(str)`` is salted per process, and
    the routing key must agree between any front-end incarnation and
    every test asserting affinity.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(dataset.encode("utf-8")) % num_shards


class _ConnLines:
    """Iterate a pipe connection as the daemon loop's input stream.

    Each received message is one input line. ``None`` or EOF ends the
    stream, which ``serve_forever`` treats exactly like stdin EOF.
    """

    def __init__(self, conn: Connection) -> None:
        self._conn = conn

    def __iter__(self) -> "_ConnLines":
        return self

    def __next__(self) -> str:
        try:
            message = self._conn.recv()
        except EOFError:
            raise StopIteration from None
        if message is None:
            raise StopIteration
        return message


class _ConnEmitter:
    """Collect the daemon loop's writes; ``flush`` sends one message.

    ``serve_forever`` writes each response line then flushes once per
    input line, so one flush == one reply message == the full batch
    reply, preserving the line-level framing across the pipe.
    """

    def __init__(self, conn: Connection) -> None:
        self._conn = conn
        self._parts: list[str] = []

    def write(self, text: str) -> None:
        self._parts.append(text)

    def flush(self) -> None:
        if not self._parts:
            return
        message = "".join(self._parts)
        self._parts = []
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError):  # pragma: no cover — parent gone
            pass


def _shard_worker_main(  # pragma: no cover — runs in the child process
    conn: Connection, engine_kwargs: dict[str, Any]
) -> None:
    """Entry point of one shard process: a daemon loop over the pipe."""
    from repro.service.daemon import serve_forever

    # A fork copies the parent's pool registry but none of its worker
    # threads; drop it before the engine's first parallel dispatch.
    reset_pools_after_fork()
    engine = ServiceEngine(**engine_kwargs)
    try:
        serve_forever(_ConnLines(conn), _ConnEmitter(conn), engine=engine)
    finally:
        conn.close()


class EngineShard:
    """One engine worker process plus its parent-side transport.

    ``handle_batch`` is called from the front-end's executor threads;
    the per-shard lock serialises pipe traffic (one request message,
    one reply message) without ever blocking another shard.
    """

    def __init__(self, index: int, engine_kwargs: dict[str, Any]) -> None:
        self.index = index
        self.dispatches = 0
        self.requests = 0
        ctx = process_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._lock = threading.Lock()
        self._process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, engine_kwargs),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self._process.start()
        child_conn.close()  # the child's end lives in the child now

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def handle_batch(self, requests: list[AnyRequest]) -> list[Response]:
        """Round-trip one wire batch through the shard process."""
        line = "[" + ",".join(encode_request(r) for r in requests) + "]"
        with self._lock:
            if not self._process.is_alive():
                raise RuntimeError(f"shard {self.index} is not running")
            self.dispatches += 1
            self.requests += len(requests)
            self._conn.send(line)
            try:
                reply = self._conn.recv()
            except EOFError:
                raise RuntimeError(f"shard {self.index} exited mid-request") from None
        responses = [decode_response(part) for part in reply.splitlines() if part]
        if len(responses) != len(requests):
            raise RuntimeError(
                f"shard {self.index} answered {len(responses)} responses "
                f"to {len(requests)} requests"
            )
        return responses

    def close(self) -> None:
        """Shut the worker down (graceful shutdown op, then terminate)."""
        with self._lock:
            if self._process.is_alive():
                try:
                    self._conn.send('{"op":"shutdown","id":"__drain__"}')
                    # Drain the ack (and any straggler replies) so the
                    # child's final send never blocks on a full pipe.
                    while self._conn.poll(SHUTDOWN_TIMEOUT):
                        try:
                            self._conn.recv()
                        except EOFError:
                            break
                except (BrokenPipeError, OSError):
                    pass
            self._process.join(timeout=SHUTDOWN_TIMEOUT)
            if self._process.is_alive():  # pragma: no cover — stuck child
                self._process.terminate()
                self._process.join(timeout=SHUTDOWN_TIMEOUT)
            self._conn.close()


class InProcessShard:
    """The one shard of a one-shard pool: a live engine in this process.

    Same surface as :class:`EngineShard`; ``handle_batch`` calls the
    engine directly. The engine mutates session state with no locking
    of its own, so the lock admits one batch at a time; ``max_inflight
    > 1`` still helps, because the next batch is staged while this one
    computes.
    """

    index = 0
    alive = True  # lives and dies with the front-end

    def __init__(self, engine: ServiceEngine) -> None:
        self.engine = engine
        self.dispatches = 0
        self.requests = 0
        self._lock = threading.Lock()

    def handle_batch(self, requests: list[AnyRequest]) -> list[Response]:
        with self._lock:
            self.dispatches += 1
            self.requests += len(requests)
            return self.engine.handle_batch(requests)

    def close(self) -> None:
        """Nothing to stop: the engine belongs to the front-end's process."""


class EngineShardPool:
    """Dataset-affine engine shards: one in-process, or N processes.

    ``engine_config`` holds :class:`ServiceEngine` constructor kwargs.
    The parent builds one engine from it first, so a bad knob fails at
    startup, not inside a worker; a one-shard pool serves that engine
    in-process, a larger pool forks one worker per shard.
    :meth:`in_process` wraps an engine the caller already built.
    """

    def __init__(
        self, num_shards: int, engine_config: Optional[dict[str, Any]] = None
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        config = dict(engine_config or {})
        engine = ServiceEngine(**config)  # validate knobs before forking anything
        self.shards: list[InProcessShard | EngineShard] = (
            [InProcessShard(engine)]
            if num_shards == 1
            else [EngineShard(i, config) for i in range(num_shards)]
        )

    @classmethod
    def in_process(cls, engine: ServiceEngine) -> "EngineShardPool":
        """A one-shard pool serving ``engine`` itself (it never forks)."""
        pool = cls.__new__(cls)
        pool.shards = [InProcessShard(engine)]
        return pool

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, dataset: str) -> int:
        return shard_for_dataset(dataset, self.num_shards)

    def handle_batch(
        self, shard_index: int, requests: list[AnyRequest]
    ) -> list[Response]:
        return self.shards[shard_index].handle_batch(requests)

    def merged_stats(self, request: AnyRequest) -> Response:
        """Fan one ``stats`` request out to every shard and merge.

        A one-shard pool answers with its shard's response unchanged.
        Otherwise scalar counters sum and sessions concatenate over the
        shards that answered, and each shard's block rides along under
        ``shards`` with ``ok: true`` — or ``ok: false`` and the
        ``error`` for a shard that could not answer (exited, broken
        pipe), so ``stats`` keeps working exactly when a shard dies.
        """
        per_shard = []
        for shard in self.shards:
            try:
                per_shard.append(shard.handle_batch([request])[0])
            except Exception as exc:  # noqa: BLE001 — one shard's failure
                error = f"{type(exc).__name__}: {exc}"
                per_shard.append(
                    Response(op=request.op, id=request.id, ok=False, error=error)
                )
        if len(per_shard) == 1:
            return per_shard[0]
        merged: dict[str, Any] = {
            "requests_served": 0,
            "coalesced_requests": 0,
            "coalesced_runs": 0,
            "sessions": [],
            "shards": [],
        }
        for index, response in enumerate(per_shard):
            if not response.ok:
                merged["shards"].append(
                    {"shard": index, "ok": False, "error": response.error}
                )
                continue
            block = response.result
            for key in ("requests_served", "coalesced_requests", "coalesced_runs"):
                merged[key] += int(block.get(key, 0))
            merged["sessions"].extend(block.get("sessions", []))
            merged["shards"].append({"shard": index, "ok": True, **block})
        return Response(op=request.op, id=request.id, result=merged)

    def telemetry(self) -> list[dict[str, Any]]:
        """Parent-side per-shard dispatch counters (no pipe traffic)."""
        return [
            {
                "shard": shard.index,
                "alive": shard.alive,
                "dispatches": shard.dispatches,
                "requests": shard.requests,
            }
            for shard in self.shards
        ]

    def close(self) -> None:
        """Close every shard (idempotent)."""
        for shard in self.shards:
            shard.close()
