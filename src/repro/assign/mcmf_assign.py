"""Network-flow-based signal assignment (Section 4).

The SAP is decomposed into sub-problems: one per die (assigning each
signal-carrying I/O buffer to a micro-bump of that die), solved in
decreasing |B_i| order, then one for the interposer (assigning each
escaping point to a TSV).  Each sub-SAP is a unit-capacity min-cost
max-flow instance — source -> buffers -> candidate bumps -> sink, with the
buffer->bump arcs costed by Eq. 3 against the signal's *current* MST
topology — which is a rectangular assignment problem: it is built as a
dense buffers x reachable-bumps cost matrix (``+inf`` off the window) and
solved by :func:`repro.netflow.min_cost_assignment`.  Solved sub-SAPs
immediately rehome their signals' terminals onto the chosen bumps (edge
splitting), so later sub-SAPs optimize against real bump positions.

Two variants match the paper's Table 3:

* ``MCMF_ori`` (``window_matching=False``) — arcs from every buffer to
  every bump; optimal per sub-SAP but large (the paper's version crashed on
  t4m and timed out on the three biggest cases).
* ``MCMF_fast`` (``window_matching=True``) — arcs only to the bumps inside
  each buffer's window (Section 4.2); ~9x faster in the paper at +0.1% TWL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Point
from ..model import Assignment, Design, Floorplan, Terminal, TerminalKind
from ..mst import SignalTopology, build_topologies
from ..netflow import AssignmentSolution, min_cost_assignment
# Not called here: kept importable at this binding for callers that
# wrap the dict-graph oracle through this module (perfbench's tracer).
from ..netflow import min_cost_max_flow  # noqa: F401
from ..obs import Progress, get_logger, metrics, span
from .base import (
    AssignmentError,
    AssignmentRunResult,
    SubSapStats,
    die_processing_order,
)
from .cost import assignment_cost, far_terminal_weight
from .window import candidate_cost_matrix, window_candidates

logger = get_logger("assign.mcmf")


@dataclass
class MCMFAssignerConfig:
    """Variant switches for the network-flow assigner."""

    window_matching: bool = True
    window_slack: int = 0  # The paper's lambda (0 by default).
    die_order: str = "decreasing"
    order_seed: int = 0
    time_budget_s: Optional[float] = None
    max_window_retries: int = 4
    # Guard reproducing the paper's LEDA out-of-memory crash on t4m: when a
    # sub-SAP would need more arcs than this, raise instead of thrashing.
    max_edges_per_sub_sap: Optional[int] = None

    @property
    def name(self) -> str:
        """Display name (MCMF_fast or MCMF_ori)."""
        return "MCMF_fast" if self.window_matching else "MCMF_ori"


class _BudgetClock:
    """Shared deadline passed into every sub-SAP's MCMF run."""

    def __init__(self, seconds: Optional[float]):
        self._deadline = (
            None if seconds is None else time.monotonic() + seconds
        )

    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline


class MCMFAssigner:
    """The paper's network-flow-based signal assignment algorithm."""

    def __init__(self, config: Optional[MCMFAssignerConfig] = None):
        self.config = config or MCMFAssignerConfig()
        self._locked_bumps: set = set()
        self._locked_tsvs: set = set()
        self._locked_buffers: set = set()
        self._locked_escapes: set = set()

    # -- public API ---------------------------------------------------------

    def assign(self, design: Design, floorplan: Floorplan) -> Assignment:
        """Solve the SAP; raises :class:`AssignmentError` on failure."""
        result = self.assign_with_stats(design, floorplan)
        if not result.complete:
            raise AssignmentError(result.note or "incomplete assignment")
        return result.assignment

    def assign_with_stats(
        self,
        design: Design,
        floorplan: Floorplan,
        locked: Optional[Assignment] = None,
    ) -> AssignmentRunResult:
        """Solve the SAP; ``locked`` pins pre-decided buffer->bump and
        escape->TSV pairs (pre-routed interfaces, power/ground bumps) —
        they are honored verbatim, their sites withdrawn from the pools,
        and the MST topologies rehomed before any sub-SAP runs."""
        cfg = self.config
        clock = _BudgetClock(cfg.time_budget_s)
        start = time.monotonic()
        assignment = Assignment()
        sub_stats: List[SubSapStats] = []
        topologies = build_topologies(design, floorplan)
        self._locked_bumps: set = set()
        self._locked_tsvs: set = set()
        self._locked_buffers: set = set()
        self._locked_escapes: set = set()
        order = die_processing_order(design, cfg.die_order, cfg.order_seed)
        # One heartbeat per solved sub-SAP (the per-die stages plus the
        # final interposer/TSV stage).
        progress = Progress(
            cfg.name, total=len(order) + 1, unit="sub-SAPs", logger=logger
        )
        try:
            if locked is not None:
                self._apply_locks(
                    design, floorplan, locked, assignment, topologies
                )
            for stage, die_id in enumerate(order):
                stats = self._solve_die(
                    design, floorplan, die_id, topologies, assignment, clock
                )
                if stats is not None:
                    sub_stats.append(stats)
                progress.update(
                    done=stage + 1,
                    scope=die_id,
                    arcs=sum(s.edges for s in sub_stats),
                    augmentations=sum(s.augmentations for s in sub_stats),
                )
            tsv_stats = self._solve_tsvs(
                design, topologies, assignment, clock
            )
            if tsv_stats is not None:
                sub_stats.append(tsv_stats)
            progress.finish(
                done=len(order) + 1,
                arcs=sum(s.edges for s in sub_stats),
                augmentations=sum(s.augmentations for s in sub_stats),
            )
        except AssignmentError as exc:
            logger.warning("%s: assignment failed: %s", cfg.name, exc)
            return AssignmentRunResult(
                assignment,
                cfg.name,
                runtime_s=time.monotonic() - start,
                sub_saps=sub_stats,
                complete=False,
                note=str(exc),
            )
        result = AssignmentRunResult(
            assignment,
            cfg.name,
            runtime_s=time.monotonic() - start,
            sub_saps=sub_stats,
        )
        logger.info(
            "%s: %d sub-SAPs, %d arcs, %d augmenting paths in %.3fs",
            cfg.name,
            len(sub_stats),
            result.total_edges,
            result.total_augmentations,
            result.runtime_s,
        )
        return result

    def _apply_locks(
        self,
        design: Design,
        floorplan: Floorplan,
        locked: Assignment,
        assignment: Assignment,
        topologies: Dict[str, SignalTopology],
    ) -> None:
        """Validate and bake a partial assignment into the run state."""
        for buffer_id, bump_id in locked.buffer_to_bump.items():
            if design.signal_of_buffer(buffer_id) is None:
                raise AssignmentError(
                    f"locked buffer {buffer_id!r} carries no signal"
                )
            try:
                bump_die = design.die_of_bump(bump_id)
            except KeyError:
                raise AssignmentError(
                    f"locked pair {buffer_id!r} -> unknown bump {bump_id!r}"
                ) from None
            if design.die_of_buffer(buffer_id) != bump_die:
                raise AssignmentError(
                    f"locked pair {buffer_id!r} -> {bump_id!r} crosses dies"
                )
            if bump_id in self._locked_bumps:
                raise AssignmentError(f"bump {bump_id!r} locked twice")
            assignment.buffer_to_bump[buffer_id] = bump_id
            self._locked_buffers.add(buffer_id)
            self._locked_bumps.add(bump_id)
            signal_id = design.signal_of_buffer(buffer_id)
            topologies[signal_id].rehome(
                (TerminalKind.BUFFER, buffer_id),
                Terminal(
                    TerminalKind.BUMP,
                    bump_id,
                    floorplan.bump_position(bump_id),
                ),
            )
        for escape_id, tsv_id in locked.escape_to_tsv.items():
            if not design.package.has_escape(escape_id):
                raise AssignmentError(f"unknown locked escape {escape_id!r}")
            if not design.interposer.has_tsv(tsv_id):
                raise AssignmentError(f"unknown locked TSV {tsv_id!r}")
            if tsv_id in self._locked_tsvs:
                raise AssignmentError(f"TSV {tsv_id!r} locked twice")
            assignment.escape_to_tsv[escape_id] = tsv_id
            self._locked_escapes.add(escape_id)
            self._locked_tsvs.add(tsv_id)
            signal_id = design.package.escape(escape_id).signal_id
            topologies[signal_id].rehome(
                (TerminalKind.ESCAPE, escape_id),
                Terminal(
                    TerminalKind.TSV,
                    tsv_id,
                    design.tsv(tsv_id).position,
                ),
            )

    def assign_tsvs_given_bumps(
        self,
        design: Design,
        floorplan: Floorplan,
        buffer_to_bump: Dict[str, str],
    ) -> AssignmentRunResult:
        """Solve only the TSV sub-SAP on top of a given bump assignment.

        Rehomes every signal's buffer terminals onto the supplied bumps
        (exactly as the per-die stages would have) and then runs the
        interposer stage.  Used by the Fig. 1 benchmark to complete a
        'PCB-blind' bump assignment without re-deciding it.
        """
        cfg = self.config
        clock = _BudgetClock(cfg.time_budget_s)
        start = time.monotonic()
        self._locked_bumps = set()
        self._locked_tsvs = set()
        self._locked_buffers = set()
        self._locked_escapes = set()
        assignment = Assignment(buffer_to_bump=dict(buffer_to_bump))
        topologies = build_topologies(design, floorplan)
        for signal in design.signals:
            for buffer_id in signal.buffer_ids:
                bump_id = buffer_to_bump.get(buffer_id)
                if bump_id is None:
                    raise AssignmentError(
                        f"buffer {buffer_id!r} missing from preset bumps"
                    )
                topologies[signal.id].rehome(
                    (TerminalKind.BUFFER, buffer_id),
                    Terminal(
                        TerminalKind.BUMP,
                        bump_id,
                        floorplan.bump_position(bump_id),
                    ),
                )
        sub_stats: List[SubSapStats] = []
        try:
            tsv_stats = self._solve_tsvs(design, topologies, assignment, clock)
            if tsv_stats is not None:
                sub_stats.append(tsv_stats)
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

    # -- sub-SAP solving -------------------------------------------------------

    def _solve_die(
        self,
        design: Design,
        floorplan: Floorplan,
        die_id: str,
        topologies: Dict[str, SignalTopology],
        assignment: Assignment,
        clock: _BudgetClock,
    ) -> Optional[SubSapStats]:
        buffers = [
            b
            for b in design.carrying_buffers(die_id)
            if b.id not in self._locked_buffers
        ]
        if not buffers:
            return None
        die = design.die(die_id)
        source_keys = [(TerminalKind.BUFFER, b.id) for b in buffers]
        source_pos = [floorplan.buffer_position(b.id) for b in buffers]
        source_signals = [design.signal_of_buffer(b.id) for b in buffers]
        free_bumps = [
            m for m in die.bumps if m.id not in self._locked_bumps
        ]
        site_ids = [m.id for m in free_bumps]
        site_pos = [floorplan.bump_position(m.id) for m in free_bumps]

        mapping, stats = self._solve_generic(
            scope=die_id,
            design=design,
            source_keys=source_keys,
            source_pos=source_pos,
            source_signals=source_signals,
            site_ids=site_ids,
            site_pos=site_pos,
            leg_weight=design.weights.alpha,
            pitch=die.bump_pitch,
            topologies=topologies,
            clock=clock,
        )
        for i, site_idx in mapping.items():
            buffer_id = buffers[i].id
            bump_id = site_ids[site_idx]
            assignment.buffer_to_bump[buffer_id] = bump_id
            topologies[source_signals[i]].rehome(
                (TerminalKind.BUFFER, buffer_id),
                Terminal(TerminalKind.BUMP, bump_id, site_pos[site_idx]),
            )
        return stats

    def _solve_tsvs(
        self,
        design: Design,
        topologies: Dict[str, SignalTopology],
        assignment: Assignment,
        clock: _BudgetClock,
    ) -> Optional[SubSapStats]:
        escaping = [
            s
            for s in design.escaping_signals()
            if s.escape_id not in self._locked_escapes
        ]
        if not escaping:
            return None
        source_keys = [(TerminalKind.ESCAPE, s.escape_id) for s in escaping]
        source_pos = [design.escape(s.escape_id).position for s in escaping]
        source_signals = [s.id for s in escaping]
        free_tsvs = [
            t
            for t in design.interposer.tsvs
            if t.id not in self._locked_tsvs
        ]
        site_ids = [t.id for t in free_tsvs]
        site_pos = [t.position for t in free_tsvs]

        mapping, stats = self._solve_generic(
            scope="interposer",
            design=design,
            source_keys=source_keys,
            source_pos=source_pos,
            source_signals=source_signals,
            site_ids=site_ids,
            site_pos=site_pos,
            leg_weight=design.weights.gamma,
            pitch=design.interposer.tsv_pitch,
            topologies=topologies,
            clock=clock,
        )
        for i, site_idx in mapping.items():
            escape_id = escaping[i].escape_id
            tsv_id = site_ids[site_idx]
            assignment.escape_to_tsv[escape_id] = tsv_id
            topologies[source_signals[i]].rehome(
                (TerminalKind.ESCAPE, escape_id),
                Terminal(TerminalKind.TSV, tsv_id, site_pos[site_idx]),
            )
        return stats

    def _solve_generic(
        self,
        scope: str,
        design: Design,
        source_keys: Sequence[Tuple[str, str]],
        source_pos: Sequence[Point],
        source_signals: Sequence[str],
        site_ids: Sequence[str],
        site_pos: Sequence[Point],
        leg_weight: float,
        pitch: float,
        topologies: Dict[str, SignalTopology],
        clock: _BudgetClock,
    ) -> Tuple[Dict[int, int], SubSapStats]:
        """Solve one sub-SAP; returns {source index -> site index}."""
        cfg = self.config
        sub_start = time.monotonic()
        n_sources = len(source_keys)
        retries = 0
        augmentations = 0
        nodes_settled = 0
        with span("assign.subsap") as sub_span:
            while True:
                if clock.expired():
                    raise AssignmentError(
                        f"time budget exceeded before sub-SAP {scope!r}"
                    )
                metrics.counter("assign.window.iterations").inc()
                if cfg.window_matching:
                    candidates, _ = window_candidates(
                        source_pos,
                        site_pos,
                        pitch,
                        slack=cfg.window_slack,
                        extra_growth=retries,
                    )
                else:
                    all_sites = np.arange(len(site_ids))
                    candidates = [all_sites] * n_sources

                edge_total = sum(len(c) for c in candidates)
                if (
                    cfg.max_edges_per_sub_sap is not None
                    and edge_total > cfg.max_edges_per_sub_sap
                ):
                    raise AssignmentError(
                        f"sub-SAP {scope!r} needs {edge_total} arcs, above "
                        f"the configured limit {cfg.max_edges_per_sub_sap} "
                        "(the paper's MCMF_ori ran out of memory the "
                        "same way)"
                    )

                mapping, result = self._run_flow(
                    design,
                    source_keys,
                    source_pos,
                    source_signals,
                    site_pos,
                    candidates,
                    leg_weight,
                    topologies,
                    clock,
                )
                augmentations += result.matched
                nodes_settled += result.scanned
                metrics.counter("assign.mcmf.runs").inc()
                metrics.counter("assign.mcmf.augmenting_paths").inc(
                    result.matched
                )
                metrics.counter("assign.mcmf.nodes_settled").inc(
                    result.scanned
                )
                if result.matched == n_sources:
                    stats = SubSapStats(
                        scope=scope,
                        demand=n_sources,
                        candidate_sites=len(site_ids),
                        edges=edge_total,
                        flow_cost=result.cost,
                        runtime_s=time.monotonic() - sub_start,
                        window_retries=retries,
                        augmentations=augmentations,
                        nodes_settled=nodes_settled,
                    )
                    sub_span.annotate(scope=scope)
                    logger.debug(
                        "sub-SAP %s: %d sources over %d sites, %d arcs, "
                        "%d augmenting paths, cost %.4f in %.3fs",
                        scope,
                        n_sources,
                        len(site_ids),
                        edge_total,
                        augmentations,
                        result.cost,
                        stats.runtime_s,
                    )
                    return mapping, stats
                if clock.expired():
                    raise AssignmentError(
                        f"time budget exceeded inside sub-SAP {scope!r}"
                    )
                if not cfg.window_matching:
                    raise AssignmentError(
                        f"sub-SAP {scope!r} infeasible: only {result.matched} "
                        f"of {n_sources} sources served"
                    )
                retries += 1
                metrics.counter("assign.window.retries").inc()
                if retries > cfg.max_window_retries:
                    raise AssignmentError(
                        f"sub-SAP {scope!r} still infeasible after "
                        f"{cfg.max_window_retries} window expansions"
                    )
                logger.warning(
                    "sub-SAP %s: only %d of %d sources served; expanding "
                    "windows (retry %d/%d)",
                    scope,
                    result.matched,
                    n_sources,
                    retries,
                    cfg.max_window_retries,
                )

    def _run_flow(
        self,
        design: Design,
        source_keys: Sequence[Tuple[str, str]],
        source_pos: Sequence[Point],
        source_signals: Sequence[str],
        site_pos: Sequence[Point],
        candidates: Sequence[np.ndarray],
        leg_weight: float,
        topologies: Dict[str, SignalTopology],
        clock: _BudgetClock,
    ) -> Tuple[Dict[int, int], AssignmentSolution]:
        """Build and solve the assignment matrix for one sub-SAP attempt."""
        weights = design.weights
        sx = np.asarray([p.x for p in site_pos])
        sy = np.asarray([p.y for p in site_pos])

        def row_costs(i: int, cand: np.ndarray) -> np.ndarray:
            # Vectorized Eq. 3 over this source's candidate sites.
            costs = leg_weight * (
                np.abs(sx[cand] - source_pos[i].x)
                + np.abs(sy[cand] - source_pos[i].y)
            )
            for t in topologies[source_signals[i]].neighbors(source_keys[i]):
                w = far_terminal_weight(t.kind, weights)
                costs = costs + w * (
                    np.abs(sx[cand] - t.position.x)
                    + np.abs(sy[cand] - t.position.y)
                )
            return costs

        matrix, used_sites = candidate_cost_matrix(
            candidates, len(site_pos), row_costs
        )
        with span("assign.mcmf"):
            result = min_cost_assignment(matrix, should_abort=clock.expired)
        mapping = {
            i: int(used_sites[col])
            for i, col in enumerate(result.col_of_row.tolist())
            if col >= 0
        }
        return mapping, result
