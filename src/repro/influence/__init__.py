"""Influence-maximization substrate: independent-cascade simulation,
reverse-influence sampling (RIS) and an IMM-style sample-size schedule.

The paper estimates influence spread with the RIS-based IMM algorithm
[Tang et al. 2015] and evaluates final solutions with 10,000 Monte-Carlo
cascade simulations; this package implements both halves.
"""

from repro.influence.engine import sample_rr_sets_batch
from repro.influence.ic_model import (
    monte_carlo_group_spread,
    monte_carlo_spread,
    simulate_cascade,
    simulate_cascades_batch,
)
from repro.influence.ris import (
    RepairResult,
    RRCollection,
    affected_rr_sets,
    repair_rr_collection,
    repair_seed_sequence,
    sample_rr_collection,
)
from repro.influence.imm import imm_rr_collection, imm_sample_bound

__all__ = [
    "RepairResult",
    "RRCollection",
    "affected_rr_sets",
    "imm_rr_collection",
    "imm_sample_bound",
    "monte_carlo_group_spread",
    "monte_carlo_spread",
    "repair_rr_collection",
    "repair_seed_sequence",
    "sample_rr_collection",
    "sample_rr_sets_batch",
    "simulate_cascade",
    "simulate_cascades_batch",
]
