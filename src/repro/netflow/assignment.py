"""Dense rectangular assignment by shortest augmenting paths.

Every sub-SAP is a unit-capacity bipartite min-cost flow (source ->
sources -> sites -> sink), which is exactly a rectangular assignment
problem.  This module solves it on a dense cost matrix with Crouse's
shortest-augmenting-path form of Jonker-Volgenant — the algorithm behind
``scipy.optimize.linear_sum_assignment`` — in numpy only: rows are
augmented one at a time, and each Dijkstra step over the columns is one
vectorised pass.

Conventions:

* ``+inf`` marks a missing arc; every other entry is an arc, zero costs
  included.
* Ties in a Dijkstra step go to a free column first (it ends the search),
  then to the lowest column index, so the result is deterministic.
* A row without an augmenting path is skipped.  A vertex that has no
  augmenting path keeps having none after later augmentations, so the
  number of rows matched is the maximum matching size.
* The duals certify the result: with ``u`` (rows) and ``v`` (columns),
  every finite arc has ``cost - u - v >= 0``, matched arcs have equality,
  ``v <= 0`` and ``v == 0`` on unmatched columns — so the matching is of
  minimum cost among all matchings serving the same rows.

The dict-graph successive-shortest-path solver in :mod:`repro.netflow.mcmf`
solves the same problems and is the test oracle for this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_INF = float("inf")


@dataclass(frozen=True)
class AssignmentSolution:
    """Outcome of one :func:`min_cost_assignment` run.

    ``col_of_row[i]`` is the column matched to row ``i`` (``-1`` when the
    row is unmatched); ``cost`` sums the matched entries in row order;
    ``scanned`` counts columns settled across all Dijkstra searches — the
    kernel's work measure.
    """

    col_of_row: np.ndarray
    cost: float
    matched: int
    row_dual: np.ndarray
    col_dual: np.ndarray
    scanned: int


def min_cost_assignment(
    cost,
    should_abort: Optional[Callable[[], bool]] = None,
) -> AssignmentSolution:
    """Match rows to distinct columns at minimum total cost.

    ``cost`` is a dense ``(rows, cols)`` matrix, normally with
    ``rows <= cols``; ``+inf`` entries are missing arcs.  Rows are served
    in index order and rows with no augmenting path are left unmatched.
    ``should_abort`` is polled once per row; on abort the matching built
    so far is returned (consistent, but serving fewer rows).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("cost entries must be finite or +inf")
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col_of_row = np.full(n_rows, -1, dtype=np.intp)
    row_of_col = np.full(n_cols, -1, dtype=np.intp)
    path = np.full(n_cols, -1, dtype=np.intp)
    dist = np.empty(n_cols)  # Final distance of each settled column.
    frontier = np.empty(n_cols)  # Tentative distances; +inf once settled.
    v_open = np.empty(n_cols)  # ``v``, with -inf on settled columns.
    better = np.empty(n_cols, dtype=bool)
    scanned = 0

    # Without columns no row can be served (and argmin needs one).
    for cur in range(n_rows if n_cols else 0):
        if should_abort is not None and should_abort():
            break
        frontier.fill(_INF)
        np.copyto(v_open, v)
        settled = []
        visited = []  # Matched rows reached by this search.
        row = cur
        min_val = 0.0
        sink = -1
        while True:
            # Relax every column from ``row`` on reduced costs; a settled
            # column's -inf dual makes its reduced cost +inf, so it is
            # never relaxed again.
            reduced = cost[row] - v_open
            reduced += min_val - u[row]
            np.less(reduced, frontier, out=better)
            np.copyto(frontier, reduced, where=better)
            np.copyto(path, row, where=better)
            col = int(frontier.argmin())
            lowest = frontier[col]
            if lowest == _INF:
                break  # No augmenting path from ``cur``.
            min_val = float(lowest)
            if row_of_col[col] >= 0:
                # A free column tied at the minimum ends the search now.
                ties = np.flatnonzero(frontier == lowest)
                free = ties[row_of_col[ties] < 0]
                if free.size:
                    col = int(free[0])
            dist[col] = min_val
            frontier[col] = _INF
            v_open[col] = -_INF
            settled.append(col)
            scanned += 1
            if row_of_col[col] < 0:
                sink = col
                break
            row = int(row_of_col[col])
            visited.append(row)

        if sink < 0:
            # Keep the skipped row dual-feasible (``u`` at most every
            # reduced cost of its arcs) for the certificate.
            u[cur] = min(0.0, float((cost[cur] - v).min(initial=_INF)))
            continue

        # Dual update: settled columns and visited rows move by their
        # slack to the final distance, which keeps matched arcs tight.
        u[cur] += min_val
        if visited:
            rows = np.asarray(visited, dtype=np.intp)
            u[rows] += min_val - dist[col_of_row[rows]]
        cols = np.asarray(settled, dtype=np.intp)
        v[cols] -= min_val - dist[cols]

        # Augment along the predecessor chain back to ``cur``.
        col = sink
        while True:
            row = int(path[col])
            row_of_col[col] = row
            col_of_row[row], col = col, int(col_of_row[row])
            if row == cur:
                break

    matched_rows = np.flatnonzero(col_of_row >= 0)
    total = sum(cost[matched_rows, col_of_row[matched_rows]].tolist())
    return AssignmentSolution(
        col_of_row=col_of_row,
        cost=float(total),
        matched=int(matched_rows.size),
        row_dual=u,
        col_dual=v,
        scanned=scanned,
    )
