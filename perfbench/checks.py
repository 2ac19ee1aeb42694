"""Output verification: only checked answers count as successes.

* Static-objective datasets: utility and fairness are recomputed here,
  in the benchmark process, from ``load_dataset(name).objective`` and
  must equal the response exactly.
* Influence answers (sampled objectives): size <= k, distinct in-range
  ids, finite values, fairness (the minimum group value) no larger than
  utility (a weighted mean of the same group values).
* A digest over the returned selections, in request order, which runs
  of the same seed must reproduce.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Optional

from driver import Record

_STATIC_KINDS = ("coverage", "facility", "recommendation", "summarization")


class Verifier:
    """Checks responses against objectives loaded in this process."""

    def __init__(self, num_nodes: dict[str, int]) -> None:
        self._num_nodes = dict(num_nodes)
        self._datasets: dict[str, Any] = {}
        self._values: dict[tuple, tuple[float, float]] = {}

    def _dataset(self, name: str) -> Any:
        if name not in self._datasets:
            from repro.datasets.registry import load_dataset

            self._datasets[name] = load_dataset(name)
        return self._datasets[name]

    def _size(self, name: str) -> int:
        if name in self._num_nodes:
            return self._num_nodes[name]
        dataset = self._dataset(name)
        if dataset.graph is not None:
            return dataset.graph.num_nodes
        return dataset.objective.num_items

    def _static_values(self, name: str, items: tuple[int, ...]
                       ) -> Optional[tuple[float, float]]:
        """Recomputed ``(utility, fairness)``; None for sampled objectives."""
        if name in self._num_nodes or self._dataset(name).kind not in _STATIC_KINDS:
            return None
        key = (name, items)
        if key not in self._values:
            objective = self._dataset(name).objective
            values = objective.evaluate(items)
            self._values[key] = (
                float(objective.group_weights @ values), float(values.min())
            )
        return self._values[key]

    def check(self, record: Record) -> Optional[str]:
        """None when the answer is verified, else why it is not."""
        response = record.response
        if response is None:
            return "no response"
        if not response.get("ok"):
            return f"error: {response.get('error')}"
        result = response.get("result", {})
        args = record.args
        if record.op == "stats":
            return None if "requests_served" in result else "stats block missing"
        if record.op == "solve":
            return self._check_selection(args["dataset"], result["solution"],
                                         args["k"], result)
        if record.op == "evaluate":
            if result.get("items") != list(args["items"]):
                return "evaluate echoed other items"
            return self._check_values(args["dataset"], tuple(args["items"]),
                                      result)
        if record.op == "update":
            expected = len(args.get("events", []))
            if result.get("inserted", 0) + result.get("deleted", 0) != expected:
                return "update applied a different event count"
            if result.get("edges_applied") != len(args.get("edge_events", [])):
                return "update applied a different edge count"
            if not math.isfinite(result.get("value", math.nan)):
                return "update value not finite"
            return self._check_ids(args["dataset"], result["solution"],
                                   args["k"])
        return f"unchecked op {record.op}"

    def _check_ids(self, name: str, solution: list[int], k: int
                   ) -> Optional[str]:
        if len(solution) > k:
            return f"selection of {len(solution)} > k={k}"
        if len(set(solution)) != len(solution):
            return "selection repeats an item"
        size = self._size(name)
        if any(not 0 <= item < size for item in solution):
            return "selection item out of range"
        return None

    def _check_selection(self, name: str, solution: list[int], k: int,
                         result: dict[str, Any]) -> Optional[str]:
        problem = self._check_ids(name, solution, k)
        if problem is not None:
            return problem
        return self._check_values(name, tuple(solution), result)

    def _check_values(self, name: str, items: tuple[int, ...],
                      result: dict[str, Any]) -> Optional[str]:
        utility, fairness = result["utility"], result["fairness"]
        expected = self._static_values(name, items)
        if expected is not None:
            if (utility, fairness) != expected:
                return (f"values {(utility, fairness)} != recomputed "
                        f"{expected}")
            return None
        if not (math.isfinite(utility) and math.isfinite(fairness)):
            return "values not finite"
        if fairness > utility * (1 + 1e-9) + 1e-12:
            return "fairness exceeds utility"
        return None


def selection_digest(records: list[Record]) -> str:
    """sha256 over ``(index, op, selection)`` of the given requests."""
    digest = hashlib.sha256()
    for record in records:
        result = (record.response or {}).get("result", {})
        selection = result.get("solution", result.get("items"))
        if selection is not None:
            digest.update(f"{record.index}:{record.op}:{selection};".encode())
    return digest.hexdigest()
