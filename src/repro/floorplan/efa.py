"""The enumeration-based floorplanning algorithm (EFA, Section 3).

EFA enumerates every sequence pair over the die set and, per sequence pair,
every combination of the four die orientations; each candidate is packed,
centred on the interposer, legality-checked and scored with the HPWL
estimator.  The three acceleration techniques of the paper are switchable:

* ``illegal_cut``   — Section 3.1, illegal branch cutting (lossless);
* ``inferior_cut``  — Section 3.2, inferior branch cutting via a
  *certified* form of the Eq. 2 lower bound (the paper's formulation is
  heuristic; ours brackets every die origin and terminal offset over all
  orientation combinations, so the cut is provably lossless — see
  ``_lower_bound`` and DESIGN.md §5);
* ``fixed_orientations`` — Section 3.3, die orientation pre-determination
  (pass the orientations from :mod:`repro.floorplan.greedy_packing`).

Spacing handling follows the paper exactly: during the sequence-pair
transform every die is swollen by ``c_d / 2`` per side, which bakes the
die-to-die constraint into the packing, and the outline check shrinks the
interposer by ``c_b - c_d / 2`` per side so that the actual (unswollen)
dies keep ``c_b`` boundary clearance.

Implementation note: the search iterates over *index* permutations — with
up to ``n!^2 * 4^n`` candidates the inner loop dominates the floorplanning
stage, so no :class:`SequencePair` or dict machinery is allowed inside it.
Every candidate is packed and scored by one of two batched kernels: per
sequence pair, the 4^n orientation sweep in product-order chunks
(:class:`~repro.floorplan.batch.OrientationSweep`); with fixed
orientations, blocks of γ− permutations at once
(:class:`~repro.floorplan.batch.MinusBlocks`, DESIGN.md §11).  Both are
bit-identical to the scalar :func:`~repro.floorplan.batch.pack_indices`
plus ``hpwl`` per candidate, which the tests keep as the reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..geometry import (
    ALL_ORIENTATIONS,
    Orientation,
    Point,
    landscape_orientations,
    portrait_orientations,
)
from ..model import Design, Floorplan, Placement
from ..obs import Progress, get_logger, record_incumbent, span
from ..seqpair import (
    SequencePair,
    iter_permutations_range,
    sequence_pair_count,
)
from .base import FloorplanResult, SearchStats, TimeBudget
from .batch import (
    MinusBlocks,
    OrientationSweep,
    die_major,
    pack_block,
    pack_indices,
)
from .estimator import FastHpwlEvaluator, orientation_code

_EPS = 1e-9

logger = get_logger("floorplan.efa")
# hpwl_batch scratch budget for scoring the legal rows of one γ− block.
_BLOCK_SCORE_BYTES = 1 << 18
# Progress log cadence: every this-many candidates, checked at the loop's
# unit boundaries (one γ− block or one sequence pair's sweep).
_PROGRESS_EVERY = 1 << 18


@dataclass
class EFAConfig:
    """Switches selecting which EFA variant to run.

    The paper's variant names map to configs as:
    ``EFA_ori`` = no flags, ``EFA_c1`` = illegal_cut, ``EFA_c2`` =
    inferior_cut, ``EFA_c3`` = both, ``EFA_dop`` = fixed_orientations from
    the greedy packer (and no cuts — with one orientation per sequence pair
    the cuts cannot pay for themselves, as the paper notes).
    """

    illegal_cut: bool = False
    inferior_cut: bool = False
    fixed_orientations: Optional[Mapping[str, Orientation]] = None
    time_budget_s: Optional[float] = None
    # Optional enumeration window: restrict gamma_plus / gamma_minus to
    # lexicographic rank intervals [lo, hi).  None = the full n! range.
    # Windows compose with the parallel sharder (shards partition the
    # plus window) and keep global ranks, so tie-breaking and the
    # serial/sharded identity guarantee are unchanged within a window.
    plus_range: Optional[Tuple[int, int]] = None
    minus_range: Optional[Tuple[int, int]] = None

    @property
    def name(self) -> str:
        """The paper's name for this variant (EFA_ori/c1/c2/c3/dop)."""
        if self.fixed_orientations is not None:
            return "EFA_dop"
        if self.illegal_cut and self.inferior_cut:
            return "EFA_c3"
        if self.illegal_cut:
            return "EFA_c1"
        if self.inferior_cut:
            return "EFA_c2"
        return "EFA_ori"


class EnumerativeFloorplanner:
    """Runs EFA over a design, per the Fig. 3 pseudo code."""

    def __init__(self, design: Design, config: Optional[EFAConfig] = None):
        self.design = design
        self.config = config or EFAConfig()
        self.evaluator = FastHpwlEvaluator(design)
        self._die_ids = self.evaluator.die_ids
        self._prepare_dims()
        # Orientation-sweep tables, built lazily on the first run()
        # without fixed orientations and reused across calls: the
        # parallel executor runs many shards through one planner, and
        # rebuilding the (n, 4^k) tables per shard wastes ~15ms apiece
        # at n=8.
        self._sweep: Optional[OrientationSweep] = None
        self._blocks = MinusBlocks(len(self._die_ids))

    def _prepare_dims(self) -> None:
        """Precompute swollen per-orientation dimensions and outline bounds."""
        c_d = self.design.spacing.die_to_die
        c_b = self.design.spacing.die_to_boundary
        interposer = self.design.interposer
        # Allowed region for the *swollen* dies (see module docstring).
        self._avail_w = interposer.width - 2 * c_b + c_d
        self._avail_h = interposer.height - 2 * c_b + c_d
        self._half_cd = c_d / 2.0
        n = len(self._die_ids)
        # dims_by_code[die index][orientation code] -> swollen (w, h).
        self._dims_by_code: List[List[Tuple[float, float]]] = []
        self._low_dims: List[Tuple[float, float]] = []
        self._thin_dims: List[Tuple[float, float]] = []
        for die in self.design.dies:
            per_code = [None] * 4
            for o in ALL_ORIENTATIONS:
                w, h = o.rotated_dims(die.width, die.height)
                per_code[orientation_code(o)] = (w + c_d, h + c_d)
            self._dims_by_code.append(per_code)
            low = landscape_orientations(die.width, die.height)[0]
            thin = portrait_orientations(die.width, die.height)[0]
            self._low_dims.append(per_code[orientation_code(low)])
            self._thin_dims.append(per_code[orientation_code(thin)])
        # Per-die minimum swollen extents, used by the Eq. 2 bound to cap
        # any legal candidate's die origins (origin + min extent <= avail).
        self._min_heights = np.asarray([d[1] for d in self._low_dims])
        self._min_widths = np.asarray([d[0] for d in self._thin_dims])
        # (widths, heights) arrays for the γ− block packs.
        self._low_wh = tuple(np.asarray(v) for v in zip(*self._low_dims))
        self._thin_wh = tuple(np.asarray(v) for v in zip(*self._thin_dims))
        self._center = interposer.center

    # -- fast index-based packing -------------------------------------------------

    # Longest-path packing over die indices; lives in
    # :mod:`repro.floorplan.batch` so the SA floorplanners share it.
    _pack = staticmethod(pack_indices)

    # -- public entry ---------------------------------------------------------

    def run(
        self,
        plus_range: Optional[Tuple[int, int]] = None,
        incumbent=None,
    ) -> FloorplanResult:
        """Enumerate per Fig. 3 and return the best floorplan found.

        ``plus_range`` restricts the outer gamma_plus loop to permutations
        with lexicographic rank in ``[lo, hi)`` — the shard interface used
        by :mod:`repro.parallel`.  ``incumbent`` is an optional shared
        bound exchange (duck-typed: ``peek() -> float`` and
        ``offer(wl: float)``); when given, the Sec. 3.2 inferior cut also
        prunes against the best value any *other* worker has found, and
        improvements found here are published back.  Both default to the
        serial single-process behaviour.
        """
        with span("floorplan.efa", variant=self.config.name) as sp:
            result = self._run(plus_range=plus_range, incumbent=incumbent)
        sp.annotate(
            est_wl=result.est_wl if result.found else None,
            timed_out=result.stats.timed_out,
            certified_lower_bound=result.stats.certified_lower_bound,
        )
        result.stats.publish()
        return result

    def _run(
        self,
        plus_range: Optional[Tuple[int, int]] = None,
        incumbent=None,
    ) -> FloorplanResult:
        cfg = self.config
        n = len(self._die_ids)
        n_fact = math.factorial(n)
        cfg_lo, cfg_hi = (
            cfg.plus_range if cfg.plus_range is not None else (0, n_fact)
        )
        if not 0 <= cfg_lo <= cfg_hi <= n_fact:
            raise ValueError(
                f"plus_range {(cfg_lo, cfg_hi)} out of bounds for n={n}"
            )
        if plus_range is None:
            lo, hi = cfg_lo, cfg_hi
        else:
            lo, hi = plus_range
            if not 0 <= lo <= hi <= n_fact:
                raise ValueError(
                    f"plus_range {(lo, hi)} out of bounds for n={n}"
                )
            # A shard interval composes with the config window by
            # intersection (empty when they don't overlap).
            lo, hi = max(lo, cfg_lo), min(hi, cfg_hi)
            if lo > hi:
                lo = hi
        mlo, mhi = (
            cfg.minus_range if cfg.minus_range is not None else (0, n_fact)
        )
        if not 0 <= mlo <= mhi <= n_fact:
            raise ValueError(
                f"minus_range {(mlo, mhi)} out of bounds for n={n}"
            )
        stats = SearchStats(sequence_pairs_total=(hi - lo) * (mhi - mlo))
        budget = TimeBudget(cfg.time_budget_s)
        # Heartbeats ride the loop's unit boundaries (one γ− block or one
        # sequence pair's sweep), so a disabled reporter costs one branch
        # at each.
        progress = Progress(
            cfg.name,
            total=stats.sequence_pairs_total,
            unit="pairs",
            logger=logger,
        )
        start = time.monotonic()
        log_progress = logger.isEnabledFor(10)  # logging.DEBUG
        next_log = _PROGRESS_EVERY
        logger.info(
            "%s: enumerating %d dies, %d sequence pairs%s%s",
            cfg.name,
            n,
            stats.sequence_pairs_total,
            "" if plus_range is None else f", shard ranks [{lo}, {hi})",
            ""
            if cfg.time_budget_s is None
            else f", budget {cfg.time_budget_s:.1f}s",
        )

        best_wl = float("inf")
        best: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = None
        # Global enumeration rank of `best`: (plus_rank, minus_rank,
        # combo_index).  Equal-wl candidates resolve to the lowest key, so
        # any partition of the search space merges back to the serial
        # winner.  In a serial run keys only grow, so the tie branch below
        # never replaces anything — it exists for provability and for the
        # cross-shard merge.
        best_key: Optional[Tuple[int, int, int]] = None
        # The wl the inferior cut prunes against: the tightest of our own
        # best and the shared incumbent.  Every value in it is a real
        # candidate wirelength, and the certified Eq. 2 bound only ever
        # cuts candidates strictly above it, so no pruning order — serial,
        # sharded, or incumbent-fed — can lose the winner or a tie.
        prune_wl = float("inf")
        # Tightest Eq. 2 bound among *pruned* branches.  Every explored
        # pair is evaluated exactly and every pruned one bounds its
        # candidates from below, so min(best_wl, min_pruned_bound)
        # certifies the whole enumerated window (see _certify_bound).
        min_pruned_bound = float("inf")

        if cfg.fixed_orientations is not None:
            fixed_codes = tuple(
                orientation_code(cfg.fixed_orientations[d])
                for d in self._die_ids
            )
            fixed_dims = [
                self._dims_by_code[i][c] for i, c in enumerate(fixed_codes)
            ]
            # (codes, widths, heights) per die for the γ− block packs.
            fixed = (np.asarray(fixed_codes, dtype=np.int64),) + tuple(
                np.asarray(v) for v in zip(*fixed_dims)
            )
        else:
            fixed = None
            if self._sweep is None:
                self._sweep = OrientationSweep(self._dims_by_code)

        indices = tuple(range(n))
        rank_plus = [0] * n

        def fold(wl: float, key: Tuple[int, int, int], candidate) -> None:
            """Fold a candidate into the running best: a strictly lower
            wl wins, an equal one only with a lower enumeration key."""
            nonlocal best_wl, best, best_key, prune_wl
            if wl < best_wl:
                best_wl, best, best_key = wl, candidate, key
                record_incumbent(wl, source=cfg.name)
                if wl < prune_wl:
                    prune_wl = wl
                if incumbent is not None:
                    incumbent.offer(wl)
            elif wl == best_wl and best is not None and key < best_key:
                best, best_key = candidate, key

        def done() -> int:
            return (
                stats.sequence_pairs_explored
                + stats.pruned_illegal
                + stats.pruned_inferior
            )

        if (lo, hi) == (0, n_fact):
            plus_iter = enumerate(permutations(indices))
        else:
            plus_iter = zip(
                range(lo, hi), iter_permutations_range(n, lo, hi)
            )
        for plus_rank, plus in plus_iter:
            for r, i in enumerate(plus):
                rank_plus[i] = r
            # One unit per step: a γ− block (fixed orientations) or one
            # sequence pair's orientation sweep, each first-ranked.
            if fixed is not None:
                rank_arr = np.asarray(rank_plus, dtype=self._blocks.dtype)
                units = self._blocks.blocks(mlo, mhi)
            elif cfg.minus_range is None:
                units = enumerate(permutations(indices))
            else:
                units = zip(
                    range(mlo, mhi), iter_permutations_range(n, mlo, mhi)
                )
            for first_rank, minus in units:
                if budget.expired:
                    stats.timed_out = True
                    break
                if incumbent is not None:
                    shared = incumbent.peek()
                    if shared < prune_wl:
                        prune_wl = shared
                # The cuts prune against the bound as it stands at the
                # start of each unit.
                if fixed is None:
                    wl, row, pruned_bound = self._scan_sweep(
                        minus, rank_plus, prune_wl, stats, budget
                    )
                    if row >= 0:
                        fold(
                            wl,
                            (plus_rank, first_rank, row),
                            (plus, minus, self._sweep.combo_codes(row)),
                        )
                else:
                    wl, row, pruned_bound = self._scan_block(
                        minus, rank_arr, fixed, prune_wl, stats
                    )
                    if row >= 0:
                        fold(
                            wl,
                            (plus_rank, first_rank + row, 0),
                            (
                                plus,
                                tuple(int(i) for i in minus[row]),
                                fixed_codes,
                            ),
                        )
                if pruned_bound < min_pruned_bound:
                    min_pruned_bound = pruned_bound
                candidates = (
                    stats.floorplans_evaluated
                    + stats.floorplans_rejected_outline
                )
                progress.update(
                    done=done(), best=best_wl, candidates=candidates
                )
                if log_progress and candidates >= next_log:
                    next_log = candidates + _PROGRESS_EVERY
                    logger.debug(
                        "%s: %d candidates, %d/%d sequence pairs, "
                        "best estWL %.4f",
                        cfg.name,
                        candidates,
                        stats.sequence_pairs_explored,
                        stats.sequence_pairs_total,
                        best_wl,
                    )
                if stats.timed_out:
                    break
            progress.update(done=done(), best=best_wl)
            if stats.timed_out:
                break

        stats.runtime_s = time.monotonic() - start
        progress.finish(
            done=done(),
            best=best_wl,
            evaluated=stats.floorplans_evaluated,
        )
        logger.info(
            "%s: explored %d sequence pairs (%d pruned illegal, %d pruned "
            "inferior), evaluated %d floorplans in %.2fs%s",
            cfg.name,
            stats.sequence_pairs_explored,
            stats.pruned_illegal,
            stats.pruned_inferior,
            stats.floorplans_evaluated,
            stats.runtime_s,
            " (budget-truncated)" if stats.timed_out else "",
        )
        stats.certified_lower_bound = self._certify_bound(
            best_wl, min_pruned_bound, stats.timed_out
        )
        if best is None:
            # INFO, not WARNING: windowed and probe runs miss by design;
            # callers that act on a miss (run_efa_dop's fallback,
            # run_flow's RuntimeError) report it themselves.
            logger.info("%s: no legal floorplan found", cfg.name)
            return FloorplanResult(None, float("inf"), stats, cfg.name)
        floorplan = self._realize(*best)
        return FloorplanResult(
            floorplan,
            best_wl,
            stats,
            cfg.name,
            candidate=best,
            candidate_key=best_key,
        )

    # -- internals ---------------------------------------------------------------

    def _scan_sweep(
        self,
        minus: Tuple[int, ...],
        rank_plus: List[int],
        prune_wl: float,
        stats: SearchStats,
        budget: TimeBudget,
    ) -> Tuple[float, int, float]:
        """Score one sequence pair's 4^n orientation sweep.

        The counterpart of :meth:`_scan_block`, with the same return
        ``(wl, combo, pruned_bound)``: the sweep's lowest wirelength, its
        lowest global combination index (``-1`` when the pair was cut or
        nothing is legal), and the Eq. 2 bound that pruned the pair
        (``inf`` otherwise).  The cuts run on the pair's scalar F_low /
        F_thin packs; then each chunk of combinations is packed at once,
        outline-checked, and its legal rows scored with ``hpwl_batch``
        calls of ``batch_chunk_rows`` rows.  The budget is checked
        between those calls; on expiry the sweep stops early, sets
        ``stats.timed_out`` and returns its best so far.
        """
        cfg = self.config
        avail_w = self._avail_w + _EPS
        avail_h = self._avail_h + _EPS
        if cfg.illegal_cut or cfg.inferior_cut:
            low_pack = self._pack(minus, rank_plus, self._low_dims)
            thin_pack = self._pack(minus, rank_plus, self._thin_dims)
            if cfg.illegal_cut and (
                low_pack[3] > avail_h or thin_pack[2] > avail_w
            ):
                stats.pruned_illegal += 1
                return float("inf"), -1, float("inf")
            if cfg.inferior_cut and prune_wl < float("inf"):
                stats.lower_bound_evaluations += 1
                bound = self._lower_bound(low_pack, thin_pack)
                if bound > prune_wl + _EPS:
                    stats.pruned_inferior += 1
                    return float("inf"), -1, bound
        stats.sequence_pairs_explored += 1
        sweep = self._sweep
        evaluator = self.evaluator
        # Chunk the scoring so one hpwl_batch call's live scratch stays
        # inside the byte budget (see batch_chunk_rows).
        step = evaluator.batch_chunk_rows()
        best_wl, best_combo = float("inf"), -1
        for chunk in range(sweep.chunks):
            if chunk and budget.expired:
                stats.timed_out = True
                break
            xs, ys, w, h = sweep.pack_all(minus, rank_plus, chunk)
            legal = np.flatnonzero(~((w > avail_w) | (h > avail_h)))
            stats.floorplans_rejected_outline += sweep.rows - legal.size
            xs_t, ys_t = xs.T, ys.T  # (rows, n) candidate-major views
            for lo in range(0, legal.size, step):
                sel = legal[lo : lo + step]
                # Centre on the interposer (Fig. 3 line 5).
                off_x = self._center.x - w[sel] / 2.0 + self._half_cd
                off_y = self._center.y - h[sel] / 2.0 + self._half_cd
                wl = evaluator.hpwl_batch(
                    xs_t[sel] + off_x[:, None],
                    ys_t[sel] + off_y[:, None],
                    sweep.codes[sel],
                )
                stats.floorplans_evaluated += sel.size
                j = int(np.argmin(wl))
                if wl[j] < best_wl:
                    # Strict < keeps the earliest call on ties; argmin
                    # keeps the earliest row within one — together the
                    # lowest combo_index.
                    best_wl = float(wl[j])
                    best_combo = chunk * sweep.rows + int(sel[j])
                if budget.expired:
                    stats.timed_out = True
                    return best_wl, best_combo, float("inf")
        return best_wl, best_combo, float("inf")

    def _scan_block(
        self,
        minus: np.ndarray,
        rank_plus: np.ndarray,
        fixed: Tuple[np.ndarray, np.ndarray, np.ndarray],
        prune_wl: float,
        stats: SearchStats,
    ) -> Tuple[float, int, float]:
        """Score one γ− block of a fixed-orientation run against one γ+.

        ``fixed`` holds the per-die orientation codes and swollen widths
        and heights.  Returns ``(wl, row, pruned_bound)``: the block's
        lowest wirelength, its first row (``-1`` when no row is legal),
        and the tightest Eq. 2 bound among rows the inferior cut pruned.
        Rows go
        through the scalar reference's steps as masks: illegal cut from
        the F_low / F_thin block packs, inferior cut per surviving row
        against ``prune_wl``, outline check, then ``hpwl_batch`` over the
        legal rows.  Packing and scoring are bit-identical to
        :func:`pack_indices` + ``hpwl`` per row.
        """
        cfg = self.config
        avail_w = self._avail_w + _EPS
        avail_h = self._avail_h + _EPS
        alive = np.ones(len(minus), dtype=bool)
        pruned_bound = float("inf")
        if cfg.illegal_cut or cfg.inferior_cut:
            low = pack_block(minus, rank_plus, *self._low_wh)
            thin = pack_block(minus, rank_plus, *self._thin_wh)
            if cfg.illegal_cut:
                alive = ~((low[3] > avail_h) | (thin[2] > avail_w))
                stats.pruned_illegal += len(minus) - int(alive.sum())
            if cfg.inferior_cut and prune_wl < float("inf"):
                rows = np.flatnonzero(alive)
                packs = [
                    die_major(minus[rows], pack[axis][:, rows])
                    for pack in (low, thin)
                    for axis in (0, 1)
                ]
                for j, r in enumerate(rows):
                    stats.lower_bound_evaluations += 1
                    bound = self._lower_bound(
                        (packs[0][j], packs[1][j], low[2][r], low[3][r]),
                        (packs[2][j], packs[3][j], thin[2][r], thin[3][r]),
                    )
                    if bound > prune_wl + _EPS:
                        stats.pruned_inferior += 1
                        pruned_bound = min(pruned_bound, bound)
                        alive[r] = False
        codes, widths, heights = fixed
        xs, ys, w, h = pack_block(minus, rank_plus, widths, heights)
        explored = int(alive.sum())
        legal = np.flatnonzero(alive & ~((w > avail_w) | (h > avail_h)))
        stats.sequence_pairs_explored += explored
        stats.floorplans_rejected_outline += explored - legal.size
        stats.floorplans_evaluated += legal.size
        best_wl, best_row = float("inf"), -1
        # The outline rejects most rows, so few reach hpwl_batch: a
        # smaller scratch budget than the sweep's costs nothing here.
        budget_rows = _BLOCK_SCORE_BYTES // self.evaluator.batch_row_bytes()
        chunk = max(1, min(self.evaluator.batch_chunk_rows(), budget_rows))
        for lo in range(0, legal.size, chunk):
            sel = legal[lo : lo + chunk]
            # Centre on the interposer (Fig. 3 line 5).
            off_x = self._center.x - w[sel] / 2.0 + self._half_cd
            off_y = self._center.y - h[sel] / 2.0 + self._half_cd
            die_x = die_major(minus[sel], xs[:, sel]) + off_x[:, None]
            die_y = die_major(minus[sel], ys[:, sel]) + off_y[:, None]
            wl = self.evaluator.hpwl_batch(
                die_x, die_y, np.broadcast_to(codes, die_x.shape)
            )
            j = int(np.argmin(wl))
            if wl[j] < best_wl:
                best_wl, best_row = float(wl[j]), int(sel[j])
        return best_wl, best_row, pruned_bound

    def _certify_bound(
        self,
        best_wl: float,
        min_pruned_bound: float,
        timed_out: bool,
    ) -> Optional[float]:
        """Certified lower bound over the window the run enumerated.

        Every sequence pair ends the run in one of four states: pruned
        illegal (no legal candidates, cannot contain the optimum), pruned
        inferior (all its candidates sit at or above its Eq. 2 bound),
        fully explored (its exact minimum was evaluated, so ``best_wl``
        already accounts for it), or — only on budget truncation —
        unexplored, where the only thing still certifiable is the
        sequence-pair-independent :meth:`design_lower_bound` relaxation.
        The window's optimum therefore sits at or above the min of those
        three certified values.  For a complete run of a certified-exact
        variant this equals ``best_wl`` (gap 0, the Sec. 3.2 soundness
        argument); truncated runs degrade to the looser design-wide
        relaxation.  ``None`` when nothing is certifiable (empty window
        with no bound evaluations).
        """
        bound = min(best_wl, min_pruned_bound)
        if timed_out:
            bound = min(bound, self.design_lower_bound())
        return bound if math.isfinite(bound) else None

    def design_lower_bound(self) -> float:
        """Sequence-pair-*independent* certified wirelength lower bound.

        The same interval relaxation as :meth:`_lower_bound`, but with the
        per-die origin brackets widened to everything any legal candidate
        of *any* sequence pair could realise: origins range over
        ``[0, avail - min_extent]`` per axis, and the centring offset over
        the outline heights ``[max_i min_height_i, avail_h]`` (mirrored in
        x).  The result certifies the whole design — every legal candidate
        of every sequence pair evaluates at or above it — making it the
        fallback :meth:`_certify_bound` charges for the pairs a truncated
        run never reached.  Usually loose (often 0 on roomy interposers):
        the brackets admit all-terminals-coincident placements.
        """
        n = len(self._die_ids)
        zeros = np.zeros(n)
        cx, cy, half = self._center.x, self._center.y, self._half_cd
        h_ub = self._avail_h + _EPS
        w_ub = self._avail_w + _EPS
        # Tightest outline any candidate can realise per axis: every die
        # stacked would be taller, but a single row is always at least as
        # tall as the tallest minimum extent.
        h_lb = min(float(self._min_heights.max()), h_ub)
        w_lb = min(float(self._min_widths.max()), w_ub)
        die_y_max = np.maximum(zeros, h_ub - self._min_heights)
        die_x_max = np.maximum(zeros, w_ub - self._min_widths)
        ly_min = self.evaluator.lower_bound_vertical(
            zeros,
            die_y_max,
            cy - h_ub / 2.0 + half,
            cy - h_lb / 2.0 + half,
        )
        lx_min = self.evaluator.lower_bound_horizontal(
            zeros,
            die_x_max,
            cx - w_ub / 2.0 + half,
            cx - w_lb / 2.0 + half,
        )
        return lx_min + ly_min

    def _lower_bound(self, low_pack, thin_pack) -> float:
        """``L_min = LX_min + LY_min`` for a sequence pair (Section 3.2).

        A *certified* form of the paper's Eq. 2, valid over every *legal*
        candidate of the sequence pair (illegal ones are outline-rejected
        and can never win, so pruning them costs nothing).  Per axis, each
        die's packing origin is bracketed between its position in the
        minimum-dimension packing (F_low heights / F_thin widths) and the
        maximum-dimension one — longest-path packing is monotone in the
        dims — further capped by legality (origin + minimum extent must
        fit the available region).  A signal's span does not move when all
        its die terminals share the same centring offset, so instead of
        widening every die interval by the offset range, the evaluator
        shifts the escape point by the negated offset interval (pinned by
        the minimum outline and the legality-capped maximum one).  Since
        the intervals cover every orientation combination, any branch
        pruned against a found wirelength contains only strictly-worse or
        illegal candidates.  That soundness is what makes EFA_c2/c3
        return exactly EFA_ori's floorplan and the sharded parallel
        search exactly the serial one, independent of pruning order or
        incumbent timing.
        """
        lxs, lys, lw, lh = low_pack
        txs, tys, tw, th = thin_pack
        cx, cy, half = self._center.x, self._center.y, self._half_cd
        # Any legal candidate's outline obeys lh <= h <= min(th, avail_h)
        # (and the mirror in x), which pins the centring offset range:
        # off_y(h) = cy - h/2 + half is decreasing in h.
        h_ub = min(th, self._avail_h + _EPS)
        w_ub = min(lw, self._avail_w + _EPS)
        # y: origins are lowest in the min-height (F_low) packing and
        # highest in the max-height (F_thin) one, capped so the die still
        # fits the legal outline.
        die_y_min = np.asarray(lys)
        die_y_max = np.minimum(np.asarray(tys), h_ub - self._min_heights)
        ly_min = self.evaluator.lower_bound_vertical(
            die_y_min,
            die_y_max,
            cy - h_ub / 2.0 + half,
            cy - lh / 2.0 + half,
        )
        # x mirrors it: F_thin has the minimal widths, F_low the maximal.
        die_x_min = np.asarray(txs)
        die_x_max = np.minimum(np.asarray(lxs), w_ub - self._min_widths)
        lx_min = self.evaluator.lower_bound_horizontal(
            die_x_min,
            die_x_max,
            cx - w_ub / 2.0 + half,
            cx - tw / 2.0 + half,
        )
        return lx_min + ly_min

    def _realize(
        self,
        plus: Tuple[int, ...],
        minus: Tuple[int, ...],
        combo: Tuple[int, ...],
    ) -> Floorplan:
        """Re-pack the winning candidate into a :class:`Floorplan`."""
        n = len(self._die_ids)
        rank_plus = [0] * n
        for r, i in enumerate(plus):
            rank_plus[i] = r
        dims = [self._dims_by_code[i][combo[i]] for i in range(n)]
        xs, ys, w, h = self._pack(minus, rank_plus, dims)
        off_x = self._center.x - w / 2.0 + self._half_cd
        off_y = self._center.y - h / 2.0 + self._half_cd
        from .estimator import orientation_from_code

        placements = {}
        for i, die_id in enumerate(self._die_ids):
            placements[die_id] = Placement(
                Point(xs[i] + off_x, ys[i] + off_y),
                orientation_from_code(combo[i]),
            )
        return Floorplan(self.design, placements)

    def realize_candidate(
        self,
        plus: Tuple[int, ...],
        minus: Tuple[int, ...],
        combo: Tuple[int, ...],
    ) -> Floorplan:
        """Re-pack an enumeration candidate into a :class:`Floorplan`.

        Public so the parallel executor can rebuild a worker's winning
        candidate in the parent process from just the index tuples instead
        of shipping placements across the process boundary.
        """
        return self._realize(plus, minus, combo)

    def winning_sequence_pair(
        self, plus: Tuple[int, ...], minus: Tuple[int, ...]
    ) -> SequencePair:
        """Expose a winner's index permutations as a :class:`SequencePair`."""
        return SequencePair(
            tuple(self._die_ids[i] for i in plus),
            tuple(self._die_ids[i] for i in minus),
        )


def run_efa(
    design: Design, config: Optional[EFAConfig] = None
) -> FloorplanResult:
    """One-call convenience wrapper around :class:`EnumerativeFloorplanner`."""
    return EnumerativeFloorplanner(design, config).run()
