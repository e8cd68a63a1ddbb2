"""The window matching method (Section 4.2).

MCMF over the complete buffer x bump bipartite graph is what crashed and
timed out in the paper's Table 3 (MCMF_ori); window matching replaces it
with a sparse graph.  Each buffer ``b`` starts with a window centred on it
of width and height ``2 * pitch``; while the window holds fewer spare sites
than required — ``M(w) - B(w) < lambda`` where ``M(w)``/``B(w)`` count
candidate sites and competing buffers inside the window — every window
boundary is extended by one pitch.  Only the sites inside the final window
become assignment candidates for ``b``.

``lambda = 0`` (the paper's setting) makes each window locally
self-sufficient; it is a heuristic, not a Hall-condition guarantee, so the
assigners retry with globally enlarged windows on the rare infeasible
instance (see :mod:`repro.assign.mcmf_assign`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..geometry import Point


@dataclass(frozen=True)
class WindowStats:
    """Aggregate window sizes for reporting."""

    mean_candidates: float
    max_candidates: int
    mean_halfwidth: float


def window_candidates(
    buffer_positions: Sequence[Point],
    site_positions: Sequence[Point],
    pitch: float,
    slack: int = 0,
    extra_growth: int = 0,
) -> Tuple[List[np.ndarray], WindowStats]:
    """Candidate-site indices per buffer after window matching.

    ``slack`` is the paper's ``lambda``; ``extra_growth`` pre-extends every
    window by that many pitches (used by the infeasibility retry loop).
    Returns one integer index array per buffer, indexing into
    ``site_positions``.
    """
    if pitch <= 0:
        raise ValueError("window pitch must be positive")
    n_buffers = len(buffer_positions)
    if n_buffers == 0:
        return [], WindowStats(0.0, 0, 0.0)
    if not site_positions:
        raise ValueError("window matching with no candidate sites")

    bx = np.asarray([p.x for p in buffer_positions])
    by = np.asarray([p.y for p in buffer_positions])
    sx = np.asarray([p.x for p in site_positions])
    sy = np.asarray([p.y for p in site_positions])

    # A window can never need to grow beyond the combined buffer+site
    # extent; cap the expansion there so degenerate inputs terminate.
    # The extent must span the *union* of both point sets — a buffer far
    # outside the site cloud needs a window reaching across the gap, and
    # capping at the per-set extents would leave it with no candidates.
    span = max(
        max(sx.max(), bx.max()) - min(sx.min(), bx.min()),
        max(sy.max(), by.max()) - min(sy.min(), by.min()),
        pitch,
    )
    max_steps = int(math.ceil(span / pitch)) + 2

    candidates: List[np.ndarray] = []
    halfwidths: List[float] = []
    max_spare = len(site_positions) - n_buffers
    effective_slack = min(slack, max(max_spare, 0))
    for i in range(n_buffers):
        half = pitch * (1 + extra_growth)
        for _ in range(max_steps):
            in_x = np.abs(sx - bx[i]) <= half + 1e-12
            in_y = np.abs(sy - by[i]) <= half + 1e-12
            sites_in = in_x & in_y
            m_count = int(sites_in.sum())
            b_count = int(
                (
                    (np.abs(bx - bx[i]) <= half + 1e-12)
                    & (np.abs(by - by[i]) <= half + 1e-12)
                ).sum()
            )
            if m_count - b_count >= effective_slack and m_count > 0:
                break
            half += pitch
        candidates.append(np.flatnonzero(sites_in))
        halfwidths.append(half)

    sizes = [len(c) for c in candidates]
    stats = WindowStats(
        mean_candidates=float(sum(sizes)) / n_buffers,
        max_candidates=max(sizes),
        mean_halfwidth=float(sum(halfwidths)) / n_buffers,
    )
    return candidates, stats


def candidate_cost_matrix(
    candidates: Sequence[np.ndarray],
    n_sites: int,
    row_costs: Callable[[int, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense sub-SAP cost matrix over the candidate arcs.

    Rows follow ``candidates``; columns are the sites some row can reach,
    in index order (returned as the second value, mapping column ->
    site).  ``row_costs(i, cand)`` prices row ``i``'s candidate sites;
    every other entry is ``+inf`` (no arc).
    """
    used_sites = np.unique(np.concatenate(candidates)).astype(np.intp)
    column_of = np.zeros(n_sites, dtype=np.intp)
    column_of[used_sites] = np.arange(len(used_sites))
    matrix = np.full((len(candidates), len(used_sites)), np.inf)
    for i, cand in enumerate(candidates):
        matrix[i, column_of[cand]] = row_costs(i, cand)
    return matrix, used_sites
