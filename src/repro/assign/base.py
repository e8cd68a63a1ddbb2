"""Common types for the signal assignment algorithms.

Every assigner consumes a design plus a floorplan and produces an
:class:`~repro.model.assignment.Assignment`; the run result additionally
carries the statistics behind the paper's Table 3/4 columns (runtime "AT",
network sizes, and whether a budget or a failure truncated the run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..model import Assignment


@dataclass
class SubSapStats:
    """One sub-SAP (a die, or the interposer TSV stage)."""

    scope: str  # die id, or "interposer"
    demand: int  # buffers (or escape points) to serve
    candidate_sites: int  # distinct bumps (or TSVs) offered
    edges: int  # buffer->bump arcs built
    flow_cost: float = 0.0
    runtime_s: float = 0.0
    window_retries: int = 0
    augmentations: int = 0  # Augmenting paths (0 for non-flow assigners)
    nodes_settled: int = 0  # Columns scanned by the assignment kernel


@dataclass
class AssignmentRunResult:
    """An assigner's output plus bookkeeping."""

    assignment: Assignment
    algorithm: str
    runtime_s: float = 0.0
    sub_saps: List[SubSapStats] = field(default_factory=list)
    complete: bool = True
    note: str = ""

    @property
    def total_edges(self) -> int:
        """Flow arcs built across all sub-SAPs."""
        return sum(s.edges for s in self.sub_saps)

    @property
    def total_flow_cost(self) -> float:
        """Summed Eq. 3 cost of all sub-SAP solutions."""
        return sum(s.flow_cost for s in self.sub_saps)

    @property
    def total_augmentations(self) -> int:
        """Augmenting paths found across all sub-SAPs."""
        return sum(s.augmentations for s in self.sub_saps)


class AssignmentError(RuntimeError):
    """Raised when an assigner cannot produce a complete assignment."""


def die_processing_order(design, mode: str = "decreasing", seed: int = 0) -> List[str]:
    """Die ids in the order the sub-SAPs are solved.

    The paper processes dies in decreasing number-of-I/O-buffers order
    because it empirically yields better results (Section 4); the other
    modes exist for the processing-order ablation bench.
    """
    import random

    if mode == "design":
        return [d.id for d in design.dies]
    counts = {d.id: len(design.carrying_buffers(d.id)) for d in design.dies}
    ids = sorted(counts)
    if mode == "decreasing":
        return sorted(ids, key=lambda d: (-counts[d], d))
    if mode == "increasing":
        return sorted(ids, key=lambda d: (counts[d], d))
    if mode == "random":
        rng = random.Random(seed)
        rng.shuffle(ids)
        return ids
    raise ValueError(f"unknown die order mode {mode!r}")
