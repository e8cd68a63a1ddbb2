"""The bipartite-matching baseline of Ho & Chang, DAC'13 (the paper's [5]).

[5] plans micro-bump assignment by per-die minimum-cost bipartite matching,
but — as the paper points out — it neither assigns TSVs nor supports
multi-terminal signals, and it keeps every signal's far terminal anchored
at the original I/O buffer position (no MST edge-splitting updates between
dies).  Table 4 therefore compares on the *primed* testcases: every signal
has exactly two I/O-buffer terminals and nothing escapes.

This implementation mirrors those restrictions faithfully:

* it refuses designs with multi-terminal or escaping signals;
* the matching cost for assigning buffer ``b`` to bump ``m`` is
  ``alpha * D(b, m) + beta * D(m, anchor(b))`` where ``anchor(b)`` is the
  signal's *other I/O buffer* position — never a bump, because [5] has no
  topology updating;
* ``window_matching=True`` reproduces the paper's "[5] + window matching"
  column, where our window method is grafted onto [5] to make the big
  cases tractable.

The minimum-cost bipartite matching itself is solved with the same
assignment kernel as the MCMF assigner
(:func:`repro.netflow.min_cost_assignment`, on a dense buffers x
reachable-bumps cost matrix): a unit-capacity bipartite min-cost flow *is*
an assignment problem, just as [5]'s matcher solves it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..model import Assignment, Design, Floorplan
from ..netflow import min_cost_assignment
from .base import (
    AssignmentError,
    AssignmentRunResult,
    SubSapStats,
    die_processing_order,
)
from .window import candidate_cost_matrix, window_candidates


@dataclass
class BipartiteAssignerConfig:
    """Switches for the [5]-style baseline."""

    window_matching: bool = False
    window_slack: int = 0
    die_order: str = "decreasing"
    order_seed: int = 0
    time_budget_s: Optional[float] = None
    max_window_retries: int = 4
    max_edges_per_die: Optional[int] = None

    @property
    def name(self) -> str:
        """Display name ([5] or [5]+window)."""
        return "[5]+window" if self.window_matching else "[5]"


class BipartiteAssigner:
    """Per-die minimum-cost bipartite matching, no TSVs, no MST updates."""

    def __init__(self, config: Optional[BipartiteAssignerConfig] = None):
        self.config = config or BipartiteAssignerConfig()

    def assign(self, design: Design, floorplan: Floorplan) -> Assignment:
        """Solve and return the assignment; raises on failure."""
        result = self.assign_with_stats(design, floorplan)
        if not result.complete:
            raise AssignmentError(result.note or "incomplete assignment")
        return result.assignment

    def assign_with_stats(
        self, design: Design, floorplan: Floorplan
    ) -> AssignmentRunResult:
        """Solve per-die matchings and return result + statistics."""
        cfg = self.config
        self._check_supported(design)
        start = time.monotonic()
        deadline = (
            None if cfg.time_budget_s is None else start + cfg.time_budget_s
        )
        assignment = Assignment()
        sub_stats: List[SubSapStats] = []

        # Anchor position per buffer id: the signal's other buffer —
        # frozen for the whole run, because [5] never updates topologies.
        anchors: Dict[str, "Point"] = {}
        for signal in design.signals:
            a, b = signal.buffer_ids
            anchors[a] = floorplan.buffer_position(b)
            anchors[b] = floorplan.buffer_position(a)

        try:
            for die_id in die_processing_order(
                design, cfg.die_order, cfg.order_seed
            ):
                stats = self._solve_die(
                    design, floorplan, die_id, anchors, assignment, deadline
                )
                if stats is not None:
                    sub_stats.append(stats)
        except AssignmentError as exc:
            return AssignmentRunResult(
                assignment,
                cfg.name,
                runtime_s=time.monotonic() - start,
                sub_saps=sub_stats,
                complete=False,
                note=str(exc),
            )
        return AssignmentRunResult(
            assignment,
            cfg.name,
            runtime_s=time.monotonic() - start,
            sub_saps=sub_stats,
        )

    def _check_supported(self, design: Design) -> None:
        for signal in design.signals:
            if signal.escapes:
                raise AssignmentError(
                    f"[5] cannot assign TSVs (signal {signal.id!r} escapes); "
                    "use the primed testcases as in the paper's Table 4"
                )
            if len(signal.buffer_ids) != 2:
                raise AssignmentError(
                    f"[5] cannot handle multi-terminal signal {signal.id!r}"
                )

    def _solve_die(
        self,
        design: Design,
        floorplan: Floorplan,
        die_id: str,
        anchors,
        assignment: Assignment,
        deadline: Optional[float],
    ) -> Optional[SubSapStats]:
        cfg = self.config
        buffers = design.carrying_buffers(die_id)
        if not buffers:
            return None
        sub_start = time.monotonic()
        die = design.die(die_id)
        site_ids = [m.id for m in die.bumps]
        site_pos = [floorplan.bump_position(m.id) for m in die.bumps]
        source_pos = [floorplan.buffer_position(b.id) for b in buffers]
        sx = np.asarray([p.x for p in site_pos])
        sy = np.asarray([p.y for p in site_pos])
        alpha = design.weights.alpha
        beta = design.weights.beta

        def expired() -> bool:
            return deadline is not None and time.monotonic() > deadline

        def row_costs(i: int, cand: np.ndarray) -> np.ndarray:
            anchor = anchors[buffers[i].id]
            return alpha * (
                np.abs(sx[cand] - source_pos[i].x)
                + np.abs(sy[cand] - source_pos[i].y)
            ) + beta * (
                np.abs(sx[cand] - anchor.x) + np.abs(sy[cand] - anchor.y)
            )

        retries = 0
        while True:
            if expired():
                raise AssignmentError(
                    f"time budget exceeded in die {die_id!r}"
                )
            if cfg.window_matching:
                candidates, _ = window_candidates(
                    source_pos,
                    site_pos,
                    die.bump_pitch,
                    slack=cfg.window_slack,
                    extra_growth=retries,
                )
            else:
                all_sites = np.arange(len(site_ids))
                candidates = [all_sites] * len(buffers)
            edge_total = sum(len(c) for c in candidates)
            if (
                cfg.max_edges_per_die is not None
                and edge_total > cfg.max_edges_per_die
            ):
                raise AssignmentError(
                    f"die {die_id!r} matching graph needs {edge_total} "
                    f"edges, above the limit {cfg.max_edges_per_die} "
                    "(the paper's [5] ran out of memory the same way)"
                )

            matrix, used_sites = candidate_cost_matrix(
                candidates, len(site_ids), row_costs
            )
            result = min_cost_assignment(matrix, should_abort=expired)
            if result.matched == len(buffers):
                for i, col in enumerate(result.col_of_row.tolist()):
                    assignment.buffer_to_bump[buffers[i].id] = site_ids[
                        used_sites[col]
                    ]
                return SubSapStats(
                    scope=die_id,
                    demand=len(buffers),
                    candidate_sites=len(site_ids),
                    edges=edge_total,
                    flow_cost=result.cost,
                    runtime_s=time.monotonic() - sub_start,
                    window_retries=retries,
                )
            if expired():
                raise AssignmentError(
                    f"time budget exceeded in die {die_id!r}"
                )
            if not cfg.window_matching:
                raise AssignmentError(
                    f"die {die_id!r} matching infeasible: {result.matched} of "
                    f"{len(buffers)} buffers matched"
                )
            retries += 1
            if retries > cfg.max_window_retries:
                raise AssignmentError(
                    f"die {die_id!r} still infeasible after "
                    f"{cfg.max_window_retries} window expansions"
                )
