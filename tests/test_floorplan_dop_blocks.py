"""γ− block packing for fixed-orientation (EFA_dop) runs vs the scalar path.

The block kernel must reproduce :func:`pack_indices` bit for bit on every
row, and a fixed-orientation :class:`EnumerativeFloorplanner` run must
return what the per-pair scalar reference (``tests/efa_reference.py``)
returns: the same ``est_wl``, candidate, ``candidate_key`` and search
counters.
"""

import logging
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.benchgen import generate_design, load_tiny, suite_config
from repro.floorplan import EFAConfig, EnumerativeFloorplanner, run_efa_dop
from repro.floorplan.batch import (
    BLOCK_SUFFIX,
    MinusBlocks,
    die_major,
    pack_block,
    pack_indices,
)
from repro.floorplan.greedy_packing import predetermine_orientations
from repro.geometry import Orientation
from repro.parallel import ParallelEFAConfig, run_parallel_efa
from repro.seqpair import iter_permutations_range
from tests.efa_reference import assert_matches_reference, scalar_efa

def suite_design(case, seed):
    return generate_design(replace(suite_config(case), seed=seed))


def block_run(design, orientations, **config):
    return EnumerativeFloorplanner(
        design, EFAConfig(fixed_orientations=orientations, **config)
    ).run()


def all_r0(design):
    return {d.id: Orientation.R0 for d in design.dies}


class TestBlockKernel:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_bit_identical_to_pack_indices(self, n):
        rng = random.Random(n)
        widths = np.asarray([rng.uniform(0.3, 3.0) for _ in range(n)])
        heights = np.asarray([rng.uniform(0.3, 3.0) for _ in range(n)])
        dims = list(zip(widths.tolist(), heights.tolist()))
        blocks = MinusBlocks(n)
        n_fact = math.factorial(n)
        # n = 8: a window that starts and ends inside a block.
        lo, hi = (0, n_fact) if n < 8 else (4000, 12000)
        for _ in range(3):
            plus = list(range(n))
            rng.shuffle(plus)
            rank_plus = np.empty(n, dtype=np.intp)
            rank_plus[plus] = np.arange(n)
            expected = list(iter_permutations_range(n, lo, hi))
            rows = 0
            for first, minus in blocks.blocks(lo, hi):
                xs, ys, w, h = pack_block(minus, rank_plus, widths, heights)
                die_x, die_y = die_major(minus, xs), die_major(minus, ys)
                for r in range(len(minus)):
                    perm = expected[first - lo + r]
                    assert tuple(minus[r]) == perm
                    ref = pack_indices(perm, rank_plus.tolist(), dims)
                    assert die_x[r].tolist() == ref[0]
                    assert die_y[r].tolist() == ref[1]
                    assert (w[r], h[r]) == (ref[2], ref[3])
                rows += len(minus)
            assert rows == hi - lo

    @pytest.mark.parametrize(
        "n,lo,hi",
        [
            (3, 0, 6),
            (3, 2, 5),
            (7, 0, 5040),
            (7, 100, 100),
            (8, 0, 40320),
            (8, 5039, 5041),
            (8, 7000, 21000),
        ],
    )
    def test_blocks_cover_window_in_rank_order(self, n, lo, hi):
        blocks = MinusBlocks(n)
        assert blocks.size == math.factorial(min(n, BLOCK_SUFFIX))
        got = []
        next_rank = lo
        for first, minus in blocks.blocks(lo, hi):
            assert first == next_rank
            assert 0 < len(minus) <= blocks.size
            next_rank += len(minus)
            got.extend(tuple(row) for row in minus.tolist())
        assert next_rank == hi
        assert got == list(iter_permutations_range(n, lo, hi))


def assert_matches_scalar(design, vec, **window):
    """A fixed-orientation block run equals the scalar reference."""
    result = block_run(design, vec, **window)
    reference = scalar_efa(
        design, EFAConfig(fixed_orientations=vec, **window)
    )
    assert_matches_reference(result, reference)
    assert not result.stats.timed_out
    return result


class TestFixedOrientationRuns:
    @pytest.mark.parametrize(
        "case,seed,window",
        [
            ("t4s", 1, {}),
            ("t4b", 2, {}),
            ("t8m", 11, {"plus_range": (0, 1)}),
            (
                "t8m",
                1,
                {"plus_range": (2, 3), "minus_range": (3000, 13000)},
            ),
        ],
    )
    def test_same_result_as_scalar_loop(self, case, seed, window):
        design = suite_design(case, seed)
        for vec in (
            predetermine_orientations(design).orientations,
            all_r0(design),
        ):
            result = assert_matches_scalar(design, vec, **window)
            assert result.stats.sequence_pairs_total == (
                result.stats.sequence_pairs_explored
            )

    def test_small_design_full_space(self):
        design = load_tiny(die_count=3, signal_count=8)
        vec = predetermine_orientations(design).orientations
        assert_matches_scalar(design, vec)

    def test_minus_window_cutting_blocks(self):
        design = suite_design("t8m", 11)
        vec = all_r0(design)
        window = {"plus_range": (1, 2), "minus_range": (5000, 10500)}
        assert_matches_scalar(design, vec, **window)

    def test_empty_minus_window_finds_nothing(self):
        design = load_tiny(die_count=3, signal_count=8)
        result = block_run(design, all_r0(design), minus_range=(2, 2))
        assert not result.found
        assert result.stats.sequence_pairs_total == 0


class TestCutsUnderBlocks:
    """Cuts with fixed orientations: masks per block, same winner."""

    @pytest.mark.parametrize(
        "case,seed,window",
        [
            ("t4s", 1, {}),
            ("t4b", 2, {}),
            (
                "t8m",
                11,
                {"plus_range": (0, 1), "minus_range": (4000, 12000)},
            ),
        ],
    )
    def test_winner_identical_with_cuts(self, case, seed, window):
        design = suite_design(case, seed)
        for vec in (
            predetermine_orientations(design).orientations,
            all_r0(design),
        ):
            plain = block_run(design, vec, **window)
            for cuts in (
                {"illegal_cut": True},
                {"inferior_cut": True},
                {"illegal_cut": True, "inferior_cut": True},
            ):
                cut = block_run(design, vec, **window, **cuts)
                assert cut.est_wl == plain.est_wl
                assert cut.candidate == plain.candidate
                assert cut.candidate_key == plain.candidate_key
                stats = cut.stats
                assert (
                    stats.sequence_pairs_explored
                    + stats.pruned_illegal
                    + stats.pruned_inferior
                    == stats.sequence_pairs_total
                )


class TestShardedFixedOrientations:
    def test_two_workers_match_serial(self):
        design = suite_design("t8m", 11)
        vec = predetermine_orientations(design).orientations
        efa = EFAConfig(fixed_orientations=vec, plus_range=(0, 4))
        serial = EnumerativeFloorplanner(design, efa).run()
        sharded = run_parallel_efa(
            design,
            ParallelEFAConfig(workers=2, oversubscribe=True, efa=efa),
        )
        assert sharded.est_wl == serial.est_wl
        assert sharded.candidate_key == serial.candidate_key
        assert sharded.stats.sequence_pairs_explored == (
            serial.stats.sequence_pairs_explored
        )
        assert sharded.stats.floorplans_evaluated == (
            serial.stats.floorplans_evaluated
        )
        for die in design.dies:
            assert sharded.floorplan.placement(die.id) == (
                serial.floorplan.placement(die.id)
            )


@pytest.fixture()
def repro_caplog(caplog, monkeypatch):
    """caplog that also sees the ``repro`` hierarchy when an earlier test
    configured CLI logging (which turns propagation off)."""
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    caplog.set_level(logging.INFO, logger="repro")
    return caplog


class TestMissLogging:
    def test_enumeration_miss_is_info(self, repro_caplog):
        design = load_tiny(die_count=3, signal_count=8)
        result = block_run(design, all_r0(design), minus_range=(0, 0))
        assert not result.found
        efa = [
            r
            for r in repro_caplog.records
            if r.name == "repro.floorplan.efa"
            and "no legal floorplan found" in r.getMessage()
        ]
        assert [r.levelno for r in efa] == [logging.INFO]

    def test_dop_fallback_keeps_its_warning(self, repro_caplog, monkeypatch):
        # Every fixed-orientation block comes back empty, so EFA_dop
        # falls back to the greedy reference floorplan.
        monkeypatch.setattr(
            EnumerativeFloorplanner,
            "_scan_block",
            lambda self, *args: (float("inf"), -1, float("inf")),
        )
        design = load_tiny(die_count=3, signal_count=8)
        result = run_efa_dop(design, time_budget_s=1.0)
        assert result.found
        warnings = [
            r.getMessage()
            for r in repro_caplog.records
            if r.levelno >= logging.WARNING
        ]
        assert any("falling back" in m for m in warnings), warnings
        assert not any("no legal floorplan found" in m for m in warnings)

    def test_flow_miss_still_raises(self, repro_caplog):
        from repro.flow import run_flow

        design = load_tiny(die_count=3, signal_count=8)
        with pytest.raises(RuntimeError, match="no legal floorplan"):
            run_flow(
                design,
                floorplanner=lambda d: block_run(
                    d, all_r0(d), minus_range=(0, 0)
                ),
            )
        errors = [
            r for r in repro_caplog.records if r.levelno >= logging.ERROR
        ]
        assert [r.name for r in errors] == ["repro.flow"]


class TestProgressLogging:
    def test_fixed_orientation_runs_log_debug_progress(
        self, repro_caplog, monkeypatch
    ):
        from repro.floorplan import efa

        monkeypatch.setattr(efa, "_PROGRESS_EVERY", 1)
        repro_caplog.set_level(logging.DEBUG, logger="repro")
        design = load_tiny(die_count=3, signal_count=8)
        block_run(design, all_r0(design))
        progress = [
            r.getMessage()
            for r in repro_caplog.records
            if r.name == "repro.floorplan.efa" and r.levelno == logging.DEBUG
        ]
        assert progress and "candidates" in progress[0], progress
