"""Steadiness report: repeat runs across seeds and summarise the spread.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
        [--first-seed 1] [--seconds S] [--trace]

Runs ``perfbench/run.py`` once per (workload, seed) from the current
directory (the checkout root) for the workloads of ``BENCHMARK.json``
(or those named) and prints, per workload:

* each metric's median and quartiles across the runs, the quartile
  spread as a share of the median (as the acceptance check computes
  it), and the metric's bound from ``BENCHMARK.json``: ``!`` marks a
  spread above a third of the bound, ``!!`` one above the bound;
* host steal per run: the share of CPU time stolen over the timed
  slices and over all driven ones; ``!`` marks a run whose timed slices
  were not all under the steal limit (its figures are suspect);
* latency per request class, keyed by the full class label including
  the dataset (share of requests, p10/p50/p90);
* where p50, p90 and the tail percentile land: the request classes in
  a window of +-2.5% of ranks around each, and that window's width
  relative to the percentile. A wide window means the percentile sits
  on a boundary between cost classes, where small shifts in the mix
  move it a lot;
* whether every run gave the same selection digest: the digest covers
  the request prefix, which is the same for every seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any

from stats import iqr_share, percentile, quartiles

WINDOW = 0.025


def _run(workload: str, seed: int, seconds: float, trace: bool,
         details: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    argv = [sys.executable, str(Path(__file__).parent / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--details", str(details)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    body = json.loads(done.stdout.splitlines()[-1])
    return body, json.loads(details.read_text())


def _landing(runs: list[dict[str, Any]], q: float) -> str:
    mix: Counter = Counter()
    widths = []
    for details in runs:
        sample = sorted(
            (latency, label)
            for label, values in details["class_latency_ms"].items()
            for latency in values
        )
        if not sample:
            continue
        n = len(sample)
        value = percentile([s[0] for s in sample], q)
        lo = max(0, int((q - WINDOW) * n))
        hi = min(n - 1, int((q + WINDOW) * n))
        mix.update(label for _, label in sample[lo:hi + 1])
        widths.append((sample[hi][0] - sample[lo][0]) / value)
    total = sum(mix.values()) or 1
    classes = ", ".join(f"{label} {count / total:.0%}"
                        for label, count in mix.most_common(4))
    return f"window width {max(widths, default=0):.0%} (worst run): {classes}"


def report(workload: str, bodies: list[dict[str, Any]],
           runs: list[dict[str, Any]], bounds: dict[str, float]) -> None:
    print(f"\n== {workload}: {len(bodies)} runs")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name in bodies[0]["metrics"]:
        values = [body["metrics"][name]["value"] for body in bodies]
        q1, median, q3 = quartiles(values)
        spread = iqr_share(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:32s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:7.1%} {bound_text:>6s} {flag}")
    print(f"  attempted {[b['attempted'] for b in bodies]} "
          f"failed {[b['failed'] for b in bodies]} "
          f"correct {all(b['correct'] for b in bodies)} "
          f"same digest {len({d['digest'] for d in runs}) == 1}")
    steal = [details["steal"] for details in runs]
    print("  host steal timed/driven: " + ", ".join(
        f"{s['timed_share']:.1%}/{s['driven_share']:.1%}"
        + ("!" if s["timed_max"] > s["limit"] else "") for s in steal))
    per_class: dict[str, list[float]] = defaultdict(list)
    for details in runs:
        for label, values in details["class_latency_ms"].items():
            per_class[label].extend(values)
    total = sum(len(values) for values in per_class.values()) or 1
    print(f"  {'latency by class (ms):':36s}   share     p10     p50     p90")
    for label, values in sorted(per_class.items(),
                                key=lambda kv: percentile(kv[1], 0.5)):
        print(f"    {label:34s} {len(values) / total:7.1%} "
              f"{percentile(values, 0.1):7.1f} {percentile(values, 0.5):7.1f} "
              f"{percentile(values, 0.9):7.1f}")
    tail_q = runs[0]["tail_q"]
    for q in (0.5, 0.9, tail_q):
        print(f"  p{q * 100:g} lands in {_landing(runs, q)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    scratch = Path(".perfbench")
    scratch.mkdir(exist_ok=True)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    for workload in names:
        bodies, runs = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            body, details = _run(workload, seed, seconds, args.trace,
                                 scratch / f"details-{workload}-{seed}.json")
            bodies.append(body)
            runs.append(details)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in body["metrics"].items()), flush=True)
        report(workload, bodies, runs, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
