"""The scalar EFA reference: one candidate at a time.

:class:`~repro.floorplan.EnumerativeFloorplanner` packs and scores its
candidates in batches — per sequence pair, the 4^n orientation sweep in
chunks; with fixed orientations, blocks of γ− permutations.  This module
is the loop those kernels replaced, kept as the oracle they are tested
against: for each sequence pair (in rank order, windows honoured), the
Sec. 3.1 / 3.2 cuts on the scalar F_low / F_thin packs, then every
orientation combination in ``itertools.product`` order packed with
:func:`pack_indices`, centred, outline-checked and scored with the
scalar ``hpwl``.

It returns the winner (``est_wl``, candidate, ``candidate_key``) and the
search counters; no budget, incumbent or certified bound.  With fixed
orientations and the inferior cut on, the production kernel prunes
against the bound as it stands at the start of each γ− block rather than
of each pair, so only the winner (not ``pruned_inferior`` /
``lower_bound_evaluations``) is comparable there.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple

import numpy as np

from repro.floorplan import EFAConfig, EnumerativeFloorplanner, SearchStats
from repro.floorplan.batch import pack_indices
from repro.floorplan.estimator import orientation_code
from repro.seqpair import iter_permutations_range

_EPS = 1e-9

# SearchStats fields the scalar loop and the batched kernels must agree on.
COUNTERS = (
    "sequence_pairs_total",
    "sequence_pairs_explored",
    "pruned_illegal",
    "pruned_inferior",
    "lower_bound_evaluations",
    "floorplans_evaluated",
    "floorplans_rejected_outline",
)


@dataclass
class ReferenceResult:
    est_wl: float
    candidate: Optional[Tuple[Tuple[int, ...], ...]]
    candidate_key: Optional[Tuple[int, int, int]]
    stats: SearchStats


def scalar_efa(design, config: Optional[EFAConfig] = None) -> ReferenceResult:
    """Run EFA over ``design`` one candidate at a time."""
    cfg = config or EFAConfig()
    planner = EnumerativeFloorplanner(design, cfg)
    evaluator = planner.evaluator
    n = len(design.dies)
    n_fact = math.factorial(n)
    plo, phi = cfg.plus_range or (0, n_fact)
    mlo, mhi = cfg.minus_range or (0, n_fact)
    if cfg.fixed_orientations is None:
        combos = tuple(product(range(4), repeat=n))
    else:
        combos = (
            tuple(
                orientation_code(cfg.fixed_orientations[d.id])
                for d in design.dies
            ),
        )
    avail_w = planner._avail_w + _EPS
    avail_h = planner._avail_h + _EPS
    cx, cy, half = planner._center.x, planner._center.y, planner._half_cd
    stats = SearchStats(sequence_pairs_total=(phi - plo) * (mhi - mlo))
    best_wl, best, best_key = float("inf"), None, None
    rank_plus = [0] * n
    for plus_rank, plus in zip(
        range(plo, phi), iter_permutations_range(n, plo, phi)
    ):
        for r, i in enumerate(plus):
            rank_plus[i] = r
        for minus_rank, minus in zip(
            range(mlo, mhi), iter_permutations_range(n, mlo, mhi)
        ):
            if cfg.illegal_cut or cfg.inferior_cut:
                low = pack_indices(minus, rank_plus, planner._low_dims)
                thin = pack_indices(minus, rank_plus, planner._thin_dims)
                if cfg.illegal_cut and (low[3] > avail_h or thin[2] > avail_w):
                    stats.pruned_illegal += 1
                    continue
                if cfg.inferior_cut and best_wl < float("inf"):
                    stats.lower_bound_evaluations += 1
                    if planner._lower_bound(low, thin) > best_wl + _EPS:
                        stats.pruned_inferior += 1
                        continue
            stats.sequence_pairs_explored += 1
            for combo_idx, combo in enumerate(combos):
                dims = [
                    planner._dims_by_code[i][c] for i, c in enumerate(combo)
                ]
                xs, ys, w, h = pack_indices(minus, rank_plus, dims)
                if w > avail_w or h > avail_h:
                    stats.floorplans_rejected_outline += 1
                    continue
                # Centre on the interposer (Fig. 3 line 5): positions of
                # the actual dies, swollen origin plus the c_d/2 inset.
                off_x = cx - w / 2.0 + half
                off_y = cy - h / 2.0 + half
                wl = evaluator.hpwl(
                    np.asarray([x + off_x for x in xs]),
                    np.asarray([y + off_y for y in ys]),
                    np.asarray(combo, dtype=np.int64),
                )
                stats.floorplans_evaluated += 1
                # Keys only grow in this order, so a strict < keeps the
                # lowest key among equal wirelengths.
                if wl < best_wl:
                    best_wl = wl
                    best = (plus, minus, combo)
                    best_key = (plus_rank, minus_rank, combo_idx)
    return ReferenceResult(best_wl, best, best_key, stats)


def assert_matches_reference(result, reference):
    """The production run found the reference's winner and counters."""
    assert result.est_wl == reference.est_wl  # exact, not approx
    assert result.candidate == reference.candidate
    assert result.candidate_key == reference.candidate_key
    for name in COUNTERS:
        assert getattr(result.stats, name) == getattr(
            reference.stats, name
        ), name
