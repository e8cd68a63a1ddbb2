"""Exact brute-force oracle for one sub-SAP's optimality.

The MCMF solver is oracle-tested against networkx at the flow level; this
test closes the remaining gap — that the *assignment layer* builds the
right network — by brute-forcing a tiny sub-SAP over all injective
buffer->bump mappings with the Eq. 3 cost and checking that MCMF_ori's
first-die solution attains exactly the optimal total cost.

A second oracle runs at full-flow scale: every sub-SAP matrix a t4s
``run_flow`` hands to the assignment kernel is re-solved by the dict-graph
successive-shortest-path solver, and the two optima must agree.
"""

from itertools import permutations

import pytest

import repro.assign.mcmf_assign as mcmf_assign
from repro.assign import MCMFAssigner, MCMFAssignerConfig, assignment_cost
from repro.benchgen import load_case
from repro.flow import run_flow
from repro.geometry import Point, Rect
from repro.model import (
    Design,
    Die,
    Floorplan,
    IOBuffer,
    Interposer,
    MicroBump,
    Package,
    Placement,
    Signal,
    TSV,
)
from repro.mst import build_topologies

from .helpers import ssp_assignment


def micro_design():
    """Two dies; d1 has 3 carrying buffers and 4 bump sites."""
    d1 = Die(
        id="d1",
        width=2.0,
        height=2.0,
        buffers=[
            IOBuffer("a1", "d1", Point(1.8, 0.4), "s1"),
            IOBuffer("a2", "d1", Point(1.7, 1.0), "s2"),
            IOBuffer("a3", "d1", Point(1.9, 1.6), "s3"),
        ],
        bumps=[
            MicroBump("m1", "d1", Point(1.5, 0.5)),
            MicroBump("m2", "d1", Point(1.5, 1.0)),
            MicroBump("m3", "d1", Point(1.5, 1.5)),
            MicroBump("m4", "d1", Point(1.0, 1.0)),
        ],
    )
    d2 = Die(
        id="d2",
        width=2.0,
        height=2.0,
        buffers=[
            IOBuffer("b1", "d2", Point(0.2, 0.5), "s1"),
            IOBuffer("b2", "d2", Point(0.3, 1.0), "s2"),
            IOBuffer("b3", "d2", Point(0.1, 1.5), "s3"),
        ],
        bumps=[
            MicroBump("n1", "d2", Point(0.5, 0.5)),
            MicroBump("n2", "d2", Point(0.5, 1.0)),
            MicroBump("n3", "d2", Point(0.5, 1.5)),
        ],
    )
    design = Design(
        name="oracle",
        dies=[d1, d2],
        interposer=Interposer(
            width=6.0, height=3.0, tsvs=[TSV("t1", Point(3.0, 1.5))]
        ),
        package=Package(frame=Rect(-1, -1, 8, 5), escape_points=[]),
        signals=[
            Signal("s1", ("a1", "b1")),
            Signal("s2", ("a2", "b2")),
            Signal("s3", ("a3", "b3")),
        ],
    )
    floorplan = Floorplan(
        design,
        {
            "d1": Placement(Point(0.5, 0.5)),
            "d2": Placement(Point(3.5, 0.5)),
        },
    )
    return design, floorplan


def brute_force_first_die_cost(design, floorplan):
    """Optimal Eq. 3 total over all injective {a1,a2,a3} -> bumps maps."""
    topologies = build_topologies(design, floorplan)
    die = design.die("d1")
    buffers = design.carrying_buffers("d1")
    weights = design.weights
    best = float("inf")
    bump_ids = [m.id for m in die.bumps]
    for chosen in permutations(bump_ids, len(buffers)):
        total = 0.0
        for buf, bump_id in zip(buffers, chosen):
            topo = topologies[design.signal_of_buffer(buf.id)]
            total += assignment_cost(
                floorplan.buffer_position(buf.id),
                floorplan.bump_position(bump_id),
                topo.neighbors(("buffer", buf.id)),
                weights.alpha,
                weights,
            )
        best = min(best, total)
    return best


class TestExactOracle:
    def test_mcmf_first_sub_sap_is_exactly_optimal(self):
        design, floorplan = micro_design()
        # d1 is processed first (equal buffer counts tie-break by id).
        result = MCMFAssigner(
            MCMFAssignerConfig(window_matching=False)
        ).assign_with_stats(design, floorplan)
        assert result.complete
        assert result.sub_saps[0].scope == "d1"
        exact = brute_force_first_die_cost(design, floorplan)
        assert result.sub_saps[0].flow_cost == pytest.approx(exact, abs=1e-9)

    def test_windowed_solution_not_below_exact_optimum(self):
        design, floorplan = micro_design()
        result = MCMFAssigner().assign_with_stats(design, floorplan)
        assert result.complete
        exact = brute_force_first_die_cost(design, floorplan)
        assert result.sub_saps[0].flow_cost >= exact - 1e-9


class TestFlowSubSapOracle:
    def test_every_t4s_sub_sap_matches_the_ssp_optimum(self, monkeypatch):
        solved = []
        kernel = mcmf_assign.min_cost_assignment

        def recording_kernel(matrix, should_abort=None):
            solution = kernel(matrix, should_abort=should_abort)
            solved.append((matrix.copy(), solution))
            return solution

        monkeypatch.setattr(
            mcmf_assign, "min_cost_assignment", recording_kernel
        )
        result = run_flow(load_case("t4s"))
        sub_saps = result.assignment_result.sub_saps
        assert len(solved) == len(sub_saps) >= 5  # 4 dies + interposer.
        for (matrix, solution), stats in zip(solved, sub_saps):
            oracle = ssp_assignment(matrix)
            assert solution.matched == oracle.flow == stats.demand
            assert solution.cost == stats.flow_cost
            scale = max(1.0, abs(oracle.cost))
            assert abs(solution.cost - oracle.cost) <= 1e-9 * scale
