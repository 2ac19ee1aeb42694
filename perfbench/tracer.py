"""Traced launcher: ``python perfbench/tracer.py --out DIR -- serve ...``.

Wraps public functions of the service stack, then runs the ordinary
``repro.cli`` entry point with the remaining arguments. Each wrapped
call records one span ``(id, parent id, name, thread, start, end,
attrs)``; spans stay in memory and are written to ``DIR/spans-<pid>.json``
when the process ends. Shard processes are forked, so they inherit the
wrappers; they exit through ``os._exit`` (no atexit), so the shard entry
point is wrapped too and flushes its own spans when its serving loop
returns.

Times are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux), which the
client process shares, so client and server timelines line up.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

_SPANS: list[tuple] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_OUT: Optional[Path] = None

AttrsFn = Callable[[tuple, dict, Any], Any]


def _traced(name: str, func: Callable, attrs: Optional[AttrsFn]) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = _LOCAL.__dict__.setdefault("stack", [])
        span_id = next(_IDS)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            _SPANS.append((
                span_id, parent, name, threading.get_ident(), start, end,
                attrs(args, kwargs, result) if attrs else None,
            ))

    return wrapper


def _wrap(owner: Any, attr: str, name: str,
          attrs: Optional[AttrsFn] = None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_traced(name, raw.__func__, attrs)))
    else:
        setattr(owner, attr, _traced(name, raw, attrs))


def _request_ids(args: tuple, kwargs: dict, result: Any) -> list[str]:
    return [request.id for request in args[1]]


def _num_samples(args: tuple, kwargs: dict, result: Any) -> int:
    return int(args[2] if len(args) > 2 else kwargs["num_samples"])


def flush() -> None:
    """Write this process's spans (once per process)."""
    if _OUT is None:
        return
    path = _OUT / f"spans-{os.getpid()}.json"
    with open(path, "w") as handle:
        json.dump({"pid": os.getpid(), "spans": _SPANS}, handle)


def install(out: Path) -> None:
    """Wrap the layer boundaries the per-layer metrics are built from."""
    global _OUT
    _OUT = out
    from repro.core import baselines, problem
    from repro.core.dynamic import DynamicMaximizer
    from repro.core.functions import GroupedObjective
    from repro.problems.influence import InfluenceObjective
    from repro.service import server, shards
    from repro.service.engine import ServiceEngine
    from repro.service.session import SolverSession

    # The front-end imported these names into its own namespace.
    _wrap(server, "request_from_dict", "protocol.decode")
    _wrap(server, "encode_response", "protocol.encode")
    _wrap(shards.EngineShard, "handle_batch", "shards.handle_batch",
          lambda args, kwargs, result: [r.id for r in args[1]][:1])
    _wrap(ServiceEngine, "handle_batch", "engine.handle_batch", _request_ids)
    _wrap(SolverSession, "objective", "session.objective")
    _wrap(problem.BSMProblem, "solve", "solver.solve")
    # Coalesced runs call greedy_utility directly (imported at call time).
    _wrap(baselines, "greedy_utility", "solver.greedy")
    _wrap(GroupedObjective, "gains_batch", "oracle.gains_batch")
    _wrap(InfluenceObjective, "from_graph", "rr.sample", _num_samples)
    _wrap(InfluenceObjective, "refresh", "rr.refresh")
    _wrap(DynamicMaximizer, "process_events", "dynamic.events")

    worker_main = shards._shard_worker_main

    def traced_worker_main(*args: Any, **kwargs: Any) -> None:
        _SPANS.clear()  # the fork copied the front-end's spans
        try:
            worker_main(*args, **kwargs)
        finally:
            flush()

    shards._shard_worker_main = traced_worker_main
    atexit.register(flush)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: tracer.py --out DIR -- <repro.cli arguments>",
              file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    # Keep this directory's modules from shadowing anything the server
    # imports.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [entry for entry in sys.path if entry != here]
    install(out)
    from repro.cli import main as cli_main

    return cli_main(argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
