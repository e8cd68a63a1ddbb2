"""Property and oracle tests for the dense assignment kernel.

The kernel is checked against the dict-graph successive-shortest-path
solver (``min_cost_max_flow`` on the source -> rows -> columns -> sink
network) and networkx, and its dual vectors are checked as an optimality
certificate on every instance.
"""

import numpy as np
import pytest

networkx = pytest.importorskip("networkx")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow import min_cost_assignment

from .helpers import ssp_assignment

INF = float("inf")


def networkx_oracle(matrix):
    """(max flow, min cost) by networkx; integer entries only."""
    g = networkx.DiGraph()
    n_rows, n_cols = matrix.shape
    for i in range(n_rows):
        g.add_edge("s", ("r", i), capacity=1, weight=0)
    for j in range(n_cols):
        g.add_edge(("c", j), "t", capacity=1, weight=0)
    for i, j in zip(*np.nonzero(np.isfinite(matrix))):
        g.add_edge(("r", i), ("c", j), capacity=1, weight=int(matrix[i, j]))
    flow = networkx.max_flow_min_cost(g, "s", "t")
    value = sum(flow["s"].values())
    return value, networkx.cost_of_flow(g, flow)


def assert_consistent(matrix, sol):
    """The matching uses distinct finite entries and ``cost`` sums them."""
    rows = np.flatnonzero(sol.col_of_row >= 0)
    cols = sol.col_of_row[rows]
    assert sol.matched == rows.size
    assert len(set(cols.tolist())) == cols.size
    assert np.isfinite(matrix[rows, cols]).all()
    assert sol.cost == pytest.approx(float(matrix[rows, cols].sum()))


def assert_certified(matrix, sol):
    """Complementary slackness: the duals prove the matching optimal."""
    u, v = sol.row_dual, sol.col_dual
    reduced = matrix - u[:, None] - v[None, :]
    finite = np.isfinite(matrix)
    assert (reduced[finite] >= -1e-9).all()
    rows = np.flatnonzero(sol.col_of_row >= 0)
    cols = sol.col_of_row[rows]
    assert np.abs(reduced[rows, cols]).max(initial=0.0) <= 1e-9
    assert (v <= 1e-12).all()
    unmatched = np.ones(matrix.shape[1], dtype=bool)
    unmatched[cols] = False
    assert (v[unmatched] == 0.0).all()


def assert_equal_optimum(kernel_cost, oracle_cost):
    scale = max(1.0, abs(oracle_cost))
    assert abs(kernel_cost - oracle_cost) <= 1e-9 * scale


@st.composite
def matrices(draw, values, min_rows=1, max_rows=7, max_extra_cols=4):
    """Rectangular instances with ``rows <= cols``; ``+inf`` = no arc."""
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    n_cols = n_rows + draw(st.integers(min_value=0, max_value=max_extra_cols))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    cells = draw(
        st.lists(
            st.tuples(values, st.floats(min_value=0.0, max_value=1.0)),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    matrix = np.array(
        [c if keep < density else INF for c, keep in cells], dtype=float
    ).reshape(n_rows, n_cols)
    return matrix


sparse_float = matrices(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
)
tie_heavy = matrices(st.integers(min_value=0, max_value=2).map(float))
all_zero = matrices(st.just(0.0))


@st.composite
def single_column_rows(draw):
    """Each row reaches exactly one column: Hall fails on any collision."""
    n_rows = draw(st.integers(min_value=1, max_value=7))
    n_cols = n_rows + draw(st.integers(min_value=0, max_value=3))
    matrix = np.full((n_rows, n_cols), INF)
    for i in range(n_rows):
        j = draw(st.integers(min_value=0, max_value=n_cols - 1))
        matrix[i, j] = draw(st.integers(min_value=0, max_value=9))
    return matrix


class TestAgainstOracles:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(sparse_float, tie_heavy, all_zero, single_column_rows()))
    def test_matches_ssp(self, matrix):
        sol = min_cost_assignment(matrix)
        oracle = ssp_assignment(matrix)
        assert_consistent(matrix, sol)
        assert_certified(matrix, sol)
        # Skipping unaugmentable rows still reaches the maximum matching.
        assert sol.matched == oracle.flow
        if sol.matched == matrix.shape[0]:
            assert_equal_optimum(sol.cost, oracle.cost)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(tie_heavy, single_column_rows()))
    def test_matches_networkx(self, matrix):
        sol = min_cost_assignment(matrix)
        value, cost = networkx_oracle(matrix)
        assert sol.matched == value
        if sol.matched == matrix.shape[0]:
            assert_equal_optimum(sol.cost, cost)

    def test_larger_window_shaped_instance(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0.0, 50.0, size=(40, 70))
        matrix[rng.random(matrix.shape) < 0.7] = INF
        matrix[np.arange(40), np.arange(40)] = 1.0  # Feasible by design.
        sol = min_cost_assignment(matrix)
        assert sol.matched == 40
        assert_certified(matrix, sol)
        assert_equal_optimum(sol.cost, ssp_assignment(matrix).cost)


class TestSemantics:
    def test_free_column_wins_a_tie(self):
        # Row 1 sees column 0 (taken) and column 1 (free) at equal cost:
        # the free one ends the search instead of displacing row 0.
        sol = min_cost_assignment(np.zeros((2, 2)))
        assert sol.col_of_row.tolist() == [0, 1]
        assert sol.scanned == 2

    def test_lowest_column_index_wins_a_tie(self):
        sol = min_cost_assignment(np.array([[5.0, 1.0, 1.0, 1.0]]))
        assert sol.col_of_row.tolist() == [1]

    def test_hall_violation_skips_rows(self):
        matrix = np.array(
            [[1.0, INF, INF], [2.0, INF, INF], [INF, 3.0, INF]]
        )
        sol = min_cost_assignment(matrix)
        assert sol.col_of_row.tolist() == [0, -1, 1]
        assert sol.matched == 2 == ssp_assignment(matrix).flow
        assert_certified(matrix, sol)

    def test_negative_costs_keep_the_certificate(self):
        matrix = np.array([[-1.0, INF, 4.0], [-2.0, INF, INF]])
        sol = min_cost_assignment(matrix)
        assert sol.matched == 2 == ssp_assignment(matrix).flow
        assert sol.col_of_row.tolist() == [2, 0]
        assert_certified(matrix, sol)
        skipped = min_cost_assignment(matrix[:, :2])
        assert skipped.col_of_row.tolist() == [0, -1]
        assert_certified(matrix[:, :2], skipped)

    def test_more_rows_than_columns(self):
        # Rows are served in index order, so when not every row can be
        # served the first ones win: the matching is maximum, and optimal
        # only among matchings serving the same rows.
        matrix = np.array([[3.0], [1.0], [2.0]])
        sol = min_cost_assignment(matrix)
        assert sol.matched == 1
        assert sol.col_of_row.tolist() == [0, -1, -1]
        assert sol.cost == 3.0
        assert_certified(matrix, sol)

    def test_empty_matrix(self):
        sol = min_cost_assignment(np.zeros((0, 3)))
        assert sol.matched == 0 and sol.cost == 0.0 and sol.scanned == 0

    def test_no_columns_serves_no_row(self):
        sol = min_cost_assignment(np.zeros((2, 0)))
        assert sol.col_of_row.tolist() == [-1, -1] and sol.matched == 0

    @pytest.mark.parametrize(
        "bad", [np.array([[np.nan]]), np.array([[-INF]]), np.zeros(3)]
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ValueError):
            min_cost_assignment(bad)


class TestAbort:
    @settings(max_examples=40, deadline=None)
    @given(sparse_float, st.integers(min_value=0, max_value=7))
    def test_abort_leaves_a_consistent_partial_matching(self, matrix, stop):
        polls = []

        def should_abort():
            polls.append(1)
            return len(polls) > stop

        sol = min_cost_assignment(matrix, should_abort=should_abort)
        assert len(polls) == min(stop + 1, matrix.shape[0])
        served = np.flatnonzero(sol.col_of_row >= 0)
        assert (served < stop).all()  # Rows after the abort stay unserved.
        assert_consistent(matrix, sol)
        assert_certified(matrix, sol)
