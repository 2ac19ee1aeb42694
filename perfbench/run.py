"""Service benchmark: one workload against a real `repro serve --tcp`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the server runs from its ``src``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are
those ``BENCHMARK.json`` lists.

``--trace 0`` sets the server up ``SETUP_REPEATS`` times (reporting the
median set-up time), then drives the last one for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` drives an untraced and
then a traced server for half of ``--seconds`` each and reports the
per-layer metrics of the traced one; the untraced half gives the base
of ``trace.overhead_ratio``.

The timed window is driven in slices; slices in which the host stole
more than ``driver.STEAL_LIMIT`` of the guest's CPU time are replaced by
more driving, and the line before the result says how much was stolen
(see ``driver.py``).

``--details PATH`` also writes per-run detail (set-up times, per-class
latencies, selection digest, failures, host steal per slice) for
``steadiness.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from checks import Verifier, selection_digest
from driver import STEAL_LIMIT, DriveResult, Slice, drive
from layers import load_spans, per_layer
from server import HOST, Server, ServerError, request
from stats import mean, percentile
from workloads import WORKLOADS, Workload

#: Server set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5


@dataclass
class Pass:
    """One driven window on one server."""

    drive: DriveResult
    #: The window asked for; ``drive.timed(seconds)`` gives its slices.
    seconds: float
    peak_rss_mb: float
    stats_before: dict[str, Any]
    stats_after: dict[str, Any]
    scrape_before: dict[str, float]
    scrape_after: dict[str, float]
    stop_status: int = 0


def _start_warm(root: Path, workload: Workload, run_dir: Path,
                trace_dir: Optional[Path] = None) -> tuple[Server, float]:
    """Spawn a server and warm the workload's sessions; time both."""
    start = time.perf_counter()
    server = Server(root, workload.serve_args, trace_dir=trace_dir,
                    log_path=run_dir / "server.log")
    try:
        server.start()
        for op, args in workload.warmup:
            response = request(server.port, {"schema": 2, "op": op,
                                              "id": "warmup", "args": args})
            if not response.get("ok"):
                raise ServerError(f"warm-up {op} failed: {response}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _measure(server: Server, workload: Workload, seed: int, seconds: float
             ) -> Pass:
    stats_before, scrape_before = server.stats(), server.scrape()
    pids = server.pids()
    result = drive(HOST, server.port, workload, workload.draws(seed), seconds,
                   lambda: server.cpu_seconds(pids))
    return Pass(result, seconds, server.peak_rss_mb(), stats_before,
                server.stats(), scrape_before, server.scrape())


def _identity_holds(scrape: dict[str, float]) -> bool:
    return scrape["repro_requests_total"] == (
        scrape["repro_requests_admitted_total"]
        + scrape["repro_requests_rejected_total"]
        + scrape["repro_requests_invalid_total"]
    )


def _quality_mean(records: list, key: str) -> float:
    """Mean ``key`` (utility or fairness) over answered solves and
    evaluations in the workload's request prefix: whole rounds, so every
    class weighs the same, and the same requests in every run.
    """
    return mean([
        record.response["result"][key] for record in records
        if record.op in ("solve", "evaluate") and record.response is not None
        and record.response.get("ok")
    ])


def _steal_report(slices: list[Slice], timed: list[Slice]
                  ) -> dict[str, Any]:
    """Host steal over the driven slices and over the timed ones."""
    def share(pieces: list[Slice]) -> float:
        seconds = sum(piece.seconds for piece in pieces)
        return sum(piece.steal_share * piece.seconds
                   for piece in pieces) / seconds if seconds else 0.0

    return {
        "limit": STEAL_LIMIT,
        "driven_share": share(slices),
        "timed_share": share(timed),
        "timed_max": max((piece.steal_share for piece in timed), default=0.0),
        "slices": [[round(piece.seconds, 3), round(piece.steal_share, 4)]
                   for piece in slices],
        "timed_slices": len(timed),
    }


def _evaluate(workload: Workload, run: Pass, details: dict[str, Any]
              ) -> tuple[dict[str, float], bool, int, int]:
    """End-to-end metrics, correctness, attempted and failed counts.

    Every answer is checked. Throughput, latency and CPU per request
    cover only the timed slices, the least-stolen that fill the window.
    """
    records = run.drive.records
    verifier = Verifier(workload.num_nodes)
    verified, wrong, failures = set(), 0, []
    for record in records:
        problem = verifier.check(record)
        if problem is None:
            verified.add(record.index)
            continue
        failures.append(f"{record.label}: {problem}")
        if record.response is not None and record.response.get("ok"):
            wrong += 1
    timed = run.drive.timed(run.seconds)
    in_window = [record for piece in timed
                 for record in records[piece.first:piece.stop]]
    timed_ok = [record for record in in_window if record.index in verified]
    answered = sum(record.response is not None for record in in_window)
    latencies = [record.latency * 1000.0 for record in timed_ok]
    elapsed = sum(piece.seconds for piece in timed)
    cpu_seconds = sum(piece.server_cpu_seconds for piece in timed)
    identity = _identity_holds(run.scrape_after)
    metrics = {
        "throughput_rps": len(timed_ok) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "latency_tail_ms": percentile(latencies, workload.tail_q),
        "ok_ratio": len(verified) / len(records) if records else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
        "server_cpu_ms_per_req": (
            cpu_seconds * 1000.0 / answered if answered else 0.0
        ),
        "utility_mean": _quality_mean(records[:workload.prefix], "utility"),
        "fairness_mean": _quality_mean(records[:workload.prefix], "fairness"),
    }
    by_class: dict[str, list[float]] = defaultdict(list)
    for record in timed_ok:
        by_class[record.label].append(round(record.latency * 1000.0, 4))
    details.update({
        "digest": selection_digest(records[:workload.prefix]),
        "prefix": workload.prefix,
        "identity_holds": identity,
        "stop_status": run.stop_status,
        "failures": failures[:20],
        "class_latency_ms": by_class,
        "tail_q": workload.tail_q,
        "steal": _steal_report(run.drive.slices, timed),
    })
    correct = wrong == 0 and identity and run.stop_status == 0
    return metrics, correct, len(records), len(records) - len(verified)


def untraced(root: Path, workload: Workload, seed: int, seconds: float,
             run_dir: Path, details: dict[str, Any]
             ) -> tuple[dict[str, float], bool, int, int]:
    setups: list[float] = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, setup = _start_warm(root, workload, run_dir)
            setups.append(setup)
        run = _measure(server, workload, seed, seconds)
        run.stop_status = server.stop()
    finally:
        if server is not None:
            server.kill()
    metrics, correct, attempted, failed = _evaluate(workload, run, details)
    metrics["setup_s"] = statistics.median(setups)
    details["setups_s"] = setups
    return metrics, correct, attempted, failed


def traced(root: Path, workload: Workload, seed: int, seconds: float,
           run_dir: Path, details: dict[str, Any]
           ) -> tuple[dict[str, float], bool, int, int]:
    # Needs the checkout's src on sys.path (main puts it there).
    from repro.service.server import ENGINE_POOL_WIDTH

    base_details: dict[str, Any] = {}
    server = None
    try:
        server, _ = _start_warm(root, workload, run_dir)
        base = _measure(server, workload, seed, seconds / 2)
        base.stop_status = server.stop()
        base_metrics, base_correct, _, _ = _evaluate(workload, base,
                                                     base_details)
        trace_dir = run_dir / "spans"
        server, _ = _start_warm(root, workload, run_dir, trace_dir)
        run = _measure(server, workload, seed, seconds / 2)
        run.stop_status = server.stop()
    finally:
        if server is not None:
            server.kill()
    metrics, correct, attempted, failed = _evaluate(workload, run, details)
    sharded = "--shards" in workload.serve_args
    layer = per_layer(
        run.drive, load_spans(trace_dir), run.stats_before, run.stats_after,
        run.scrape_before, run.scrape_after,
        frontend_pool=None if sharded else ("thread", ENGINE_POOL_WIDTH),
        traced_p50_ms=metrics["latency_p50_ms"],
        untraced_p50_ms=base_metrics["latency_p50_ms"],
    )
    details["untraced"] = base_details
    return layer, correct and base_correct, attempted, failed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", type=Path, default=None)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro source tree under {root}/src; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench" / f"run-{args.workload}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    details: dict[str, Any] = {"workload": workload.name, "seed": args.seed}
    try:
        metrics, correct, attempted, failed = (
            traced if args.trace else untraced
        )(root, workload, args.seed, args.seconds, run_dir, details)
    except (ServerError, OSError):
        log = run_dir / "server.log"
        if log.is_file():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    if args.details is not None:
        args.details.write_text(json.dumps(details))
    steal = details["steal"]
    print(f"perfbench: host stole {steal['timed_share']:.1%} of CPU time in "
          f"the {steal['timed_slices']} timed slices "
          f"({steal['driven_share']:.1%} over all {len(steal['slices'])})"
          + ("; a timed slice is over the steal limit, so the figures are "
             "suspect" if steal["timed_max"] > STEAL_LIMIT else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
