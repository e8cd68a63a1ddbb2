"""Micro-benchmarks of the hot substrates (pytest-benchmark proper).

Unlike the table benches (single-shot experiment reproductions), these are
classic repeated-measurement micro-benchmarks of the inner loops every
experiment leans on: sequence-pair packing, the vectorized HPWL
evaluator, the MST builder, the assignment kernel beside the MCMF oracle
it replaced on the hot path, and window matching.  Useful
for catching performance regressions when touching the substrates.
"""

import random

import pytest

from repro.benchgen import load_case
from repro.floorplan import FastHpwlEvaluator, run_efa  # noqa: F401
from repro.floorplan.efa import EnumerativeFloorplanner, EFAConfig
from repro.geometry import Point
from repro.mst import mst_length
from repro.netflow import FlowNetwork, min_cost_assignment, min_cost_max_flow
from repro.assign import window_candidates

import numpy as np


@pytest.fixture(scope="module")
def t4s():
    return load_case("t4s")


@pytest.mark.benchmark(group="micro")
def test_micro_sequence_pair_packing(benchmark, t4s):
    planner = EnumerativeFloorplanner(t4s, EFAConfig())
    dims = [planner._dims_by_code[i][0] for i in range(4)]
    minus = (2, 0, 3, 1)
    rank_plus = [0, 1, 2, 3]
    benchmark(planner._pack, minus, rank_plus, dims)


@pytest.mark.benchmark(group="micro")
def test_micro_hpwl_evaluator(benchmark, t4s):
    evaluator = FastHpwlEvaluator(t4s)
    n = evaluator.die_count
    die_x = np.linspace(0.0, 1.5, n)
    die_y = np.linspace(0.0, 1.2, n)
    codes = np.zeros(n, dtype=np.int64)
    benchmark(evaluator.hpwl, die_x, die_y, codes)


@pytest.mark.benchmark(group="micro")
def test_micro_mst(benchmark):
    rng = random.Random(0)
    points = [
        Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(5)
    ]
    benchmark(mst_length, points)


@pytest.mark.benchmark(group="micro")
def test_micro_mcmf_bipartite(benchmark):
    rng = random.Random(1)
    n_left, n_right = 40, 120

    def build_and_solve():
        net = FlowNetwork()
        s = net.add_node()
        t = net.add_node()
        left = [net.add_node() for _ in range(n_left)]
        right = [net.add_node() for _ in range(n_right)]
        for u in left:
            net.add_edge(s, u, 1, 0.0)
        for v in right:
            net.add_edge(v, t, 1, 0.0)
        local = random.Random(2)
        for u in left:
            for v in local.sample(right, 12):
                net.add_edge(u, v, 1, local.uniform(0, 10))
        return min_cost_max_flow(net, s, t).flow

    flow = benchmark(build_and_solve)
    assert flow == n_left


@pytest.mark.benchmark(group="micro")
def test_micro_assignment_kernel(benchmark):
    # The same instance as test_micro_mcmf_bipartite, as a dense matrix.
    n_left, n_right = 40, 120

    def build_and_solve():
        matrix = np.full((n_left, n_right), np.inf)
        local = random.Random(2)
        for i in range(n_left):
            for j in local.sample(range(n_right), 12):
                matrix[i, j] = local.uniform(0, 10)
        return min_cost_assignment(matrix).matched

    matched = benchmark(build_and_solve)
    assert matched == n_left


@pytest.mark.benchmark(group="micro")
def test_micro_window_matching(benchmark):
    rng = random.Random(3)
    buffers = [Point(rng.gauss(2.0, 0.1), rng.gauss(2.0, 0.1)) for _ in range(60)]
    sites = [
        Point(0.04 * c, 0.04 * r) for c in range(100) for r in range(100)
    ]
    cands, _ = benchmark(window_candidates, buffers, sites, 0.04)
    assert len(cands) == 60
