"""Tests for the batched orientation-sweep evaluation path.

Covers the three layers of the batch engine plus the reduceat
empty-segment regression it exposed:

* ``FastHpwlEvaluator.hpwl_batch`` — bit-identical to row-by-row
  ``hpwl``;
* ``OrientationSweep.pack_all`` — bit-identical to the scalar
  ``pack_indices`` per orientation combination, with the combination
  axis in ``itertools.product`` order across chunks;
* the EFA inner loop — same winner (est_wl, candidate and candidate
  key) and same counters as the scalar reference in
  ``tests/efa_reference.py``, with one-chunk and multi-chunk sweeps;
* escape-only signals (zero die-borne terminals): before the fix a
  mid-list empty segment silently borrowed the next signal's first
  terminal and a trailing one raised IndexError inside numpy.
"""

import itertools

import numpy as np
import pytest

from repro.benchgen import load_tiny
from repro.floorplan import (
    EFAConfig,
    EnumerativeFloorplanner,
    FastHpwlEvaluator,
    orientation_from_code,
    run_efa,
)
from repro.floorplan import batch
from repro.floorplan.batch import OrientationSweep, pack_indices
from repro.flow import (
    FlowConfig,
    flow_config_from_dict,
    flow_config_to_dict,
    run_flow,
)
from repro.geometry import Point, Rect
from repro.model import (
    Design,
    Die,
    EscapePoint,
    Floorplan,
    Interposer,
    IOBuffer,
    MicroBump,
    Package,
    Placement,
    Signal,
    TSV,
)
from tests.efa_reference import assert_matches_reference, scalar_efa


def make_escape_design(escape_position: str) -> Design:
    """Two dies, two die-to-die signals, one escape-only signal.

    ``escape_position`` places the escape-only signal ``"first"``,
    ``"middle"`` or ``"last"`` in the design's signal list — the middle
    position exercised the silent borrow, the last the IndexError.
    """
    d1 = Die(
        id="d1",
        width=2.0,
        height=1.0,
        buffers=[
            IOBuffer("b1", "d1", Point(0.25, 0.25), "s1"),
            IOBuffer("b3", "d1", Point(1.75, 0.75), "s3"),
        ],
        bumps=[
            MicroBump("m1", "d1", Point(1.0, 0.5)),
            MicroBump("m3", "d1", Point(1.5, 0.5)),
        ],
    )
    d2 = Die(
        id="d2",
        width=1.0,
        height=2.0,
        buffers=[
            IOBuffer("b2", "d2", Point(0.5, 1.5), "s1"),
            IOBuffer("b4", "d2", Point(0.5, 0.5), "s3"),
        ],
        bumps=[
            MicroBump("m2", "d2", Point(0.5, 1.0)),
            MicroBump("m4", "d2", Point(0.5, 0.25)),
        ],
    )
    s1 = Signal("s1", ("b1", "b2"))
    s3 = Signal("s3", ("b3", "b4"))
    s_esc = Signal("s_esc", (), escape_id="e1")
    order = {
        "first": [s_esc, s1, s3],
        "middle": [s1, s_esc, s3],
        "last": [s1, s3, s_esc],
    }[escape_position]
    return Design(
        name=f"escape-only-{escape_position}",
        dies=[d1, d2],
        interposer=Interposer(
            width=10.0, height=10.0, tsvs=[TSV("t1", Point(5.0, 5.0))]
        ),
        package=Package(
            frame=Rect(-1.0, -1.0, 12.0, 12.0),
            escape_points=[EscapePoint("e1", Point(9.0, 2.0), "s_esc")],
        ),
        signals=order,
    )


def reference_hpwl(design: Design, floorplan: Floorplan) -> float:
    """Per-signal bounding-box HPWL straight from terminal positions."""
    total = 0.0
    for signal in design.signals:
        pts = floorplan.signal_terminal_positions(signal)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


class TestEscapeOnlySignalRegression:
    """The reduceat empty-segment fix, at every list position."""

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_hpwl_matches_reference(self, position):
        design = make_escape_design(position)
        evaluator = FastHpwlEvaluator(design)
        fp = Floorplan(
            design,
            {
                "d1": Placement(Point(1.0, 2.0)),
                "d2": Placement(Point(5.0, 4.0)),
            },
        )
        # Pre-fix: "middle"/"first" borrowed a neighbouring signal's
        # terminal into the empty segment (wrong value); "last" indexed
        # one past the terminal array (IndexError).
        assert evaluator.hpwl_of_floorplan(fp) == pytest.approx(
            reference_hpwl(design, fp), rel=1e-12
        )

    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_escape_only_contributes_zero(self, position):
        # Removing the escape-only signal must not change the total: a
        # single fixed point has zero bounding-box span.
        design = make_escape_design(position)
        stripped = Design(
            name="no-escape-only",
            dies=design.dies,
            interposer=design.interposer,
            package=design.package,
            signals=[s for s in design.signals if s.id != "s_esc"],
        )
        placements = {
            "d1": Placement(Point(0.5, 0.5)),
            "d2": Placement(Point(6.0, 3.0)),
        }
        a = FastHpwlEvaluator(design).hpwl_of_floorplan(
            Floorplan(design, placements)
        )
        b = FastHpwlEvaluator(stripped).hpwl_of_floorplan(
            Floorplan(stripped, placements)
        )
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_lower_bounds_stay_finite_and_sound(self, position):
        design = make_escape_design(position)
        evaluator = FastHpwlEvaluator(design)
        y = np.array([0.0, 1.5])
        lv = evaluator.lower_bound_vertical(y, y, 0.0, 0.0)
        lh = evaluator.lower_bound_horizontal(y, y + 0.5, -0.1, 0.2)
        assert np.isfinite(lv) and lv >= 0.0
        assert np.isfinite(lh) and lh >= 0.0

    def test_escape_only_signal_is_constructible(self):
        s = Signal("e", (), escape_id="ep")
        assert s.escapes and s.terminal_count == 1

    def test_no_terminals_still_rejected(self):
        with pytest.raises(ValueError, match="no terminals"):
            Signal("empty", ())

    def test_single_buffer_without_escape_still_rejected(self):
        with pytest.raises(ValueError, match="single terminal"):
            Signal("lonely", ("b1",))


class TestHpwlBatch:
    @pytest.mark.parametrize("escape_fraction", [0.0, 0.5])
    def test_bit_identical_to_scalar(self, escape_fraction):
        design = load_tiny(
            die_count=3, signal_count=8, escape_fraction=escape_fraction
        )
        evaluator = FastHpwlEvaluator(design)
        n = evaluator.die_count
        rng = np.random.default_rng(7)
        batch = 37  # deliberately not a power of two
        die_x = rng.uniform(-2.0, 8.0, size=(batch, n))
        die_y = rng.uniform(-2.0, 8.0, size=(batch, n))
        codes = rng.integers(0, 4, size=(batch, n), dtype=np.int64)
        got = evaluator.hpwl_batch(die_x, die_y, codes)
        expected = np.array(
            [
                evaluator.hpwl(die_x[b], die_y[b], codes[b])
                for b in range(batch)
            ]
        )
        assert np.array_equal(got, expected)  # exact, not approx

    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_bit_identical_with_escape_only_signals(self, position):
        design = make_escape_design(position)
        evaluator = FastHpwlEvaluator(design)
        rng = np.random.default_rng(11)
        batch = 16
        die_x = rng.uniform(0.0, 8.0, size=(batch, 2))
        die_y = rng.uniform(0.0, 8.0, size=(batch, 2))
        codes = rng.integers(0, 4, size=(batch, 2), dtype=np.int64)
        got = evaluator.hpwl_batch(die_x, die_y, codes)
        expected = np.array(
            [
                evaluator.hpwl(die_x[b], die_y[b], codes[b])
                for b in range(batch)
            ]
        )
        assert np.array_equal(got, expected)

    def test_empty_batch(self):
        design = load_tiny(die_count=2)
        evaluator = FastHpwlEvaluator(design)
        out = evaluator.hpwl_batch(
            np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2), dtype=np.int64)
        )
        assert out.shape == (0,)


class TestOrientationSweep:
    def _dims_by_code(self, rng, n):
        dims = []
        for _ in range(n):
            w, h = rng.uniform(0.5, 3.0, size=2)
            dims.append([(w, h), (h, w), (w, h), (h, w)])
        return dims

    def test_codes_match_itertools_product(self):
        rng = np.random.default_rng(0)
        sweep = OrientationSweep(self._dims_by_code(rng, 3))
        expected = np.array(
            list(itertools.product(range(4), repeat=3)), dtype=np.int64
        )
        assert np.array_equal(sweep.codes, expected)

    def test_pack_all_bit_identical_to_scalar(self):
        rng = np.random.default_rng(3)
        n = 4
        dims_by_code = self._dims_by_code(rng, n)
        sweep = OrientationSweep(dims_by_code)
        minus = [2, 0, 3, 1]
        rank_plus = [1, 3, 0, 2]
        xs_b, ys_b, w_b, h_b = sweep.pack_all(minus, rank_plus)
        for k, combo in enumerate(itertools.product(range(4), repeat=n)):
            dims = [dims_by_code[i][combo[i]] for i in range(n)]
            xs, ys, width, height = pack_indices(minus, rank_plus, dims)
            assert xs_b[:, k].tolist() == xs  # exact float equality
            assert ys_b[:, k].tolist() == ys
            assert w_b[k] == width
            assert h_b[k] == height

    @pytest.mark.parametrize("n,suffix", [(3, 2), (5, 2), (9, 8), (11, 8)])
    def test_chunks_bit_identical_to_pack_indices(self, monkeypatch, n, suffix):
        """Chunk rows sit at global product-order index
        ``chunk * rows + row`` and pack exactly like ``pack_indices``."""
        monkeypatch.setattr(batch, "SWEEP_SUFFIX", suffix)
        rng = np.random.default_rng(n)
        dims_by_code = self._dims_by_code(rng, n)
        sweep = OrientationSweep(dims_by_code)
        assert sweep.rows == 4 ** min(n, suffix)
        assert sweep.chunks * sweep.rows == 4 ** n
        minus = [int(i) for i in rng.permutation(n)]
        rank_plus = [int(i) for i in rng.permutation(n)]
        chunks = sorted(
            {0, sweep.chunks - 1}
            | {int(c) for c in rng.integers(0, sweep.chunks, size=3)}
        )
        for chunk in chunks:
            xs_b, ys_b, w_b, h_b = sweep.pack_all(minus, rank_plus, chunk)
            for row in {0, sweep.rows - 1} | {
                int(r) for r in rng.integers(0, sweep.rows, size=20)
            }:
                combo = chunk * sweep.rows + row
                codes = sweep.combo_codes(combo)
                assert tuple(sweep.codes[row]) == codes
                # Global index = position in itertools.product order.
                assert combo == int("".join(map(str, codes)), 4)
                dims = [dims_by_code[i][codes[i]] for i in range(n)]
                xs, ys, width, height = pack_indices(minus, rank_plus, dims)
                assert xs_b[:, row].tolist() == xs  # exact float equality
                assert ys_b[:, row].tolist() == ys
                assert (w_b[row], h_b[row]) == (width, height)

    def test_large_sweep_holds_one_chunk(self):
        """An 11-die sweep never holds more than 4^8 rows."""
        rng = np.random.default_rng(11)
        sweep = OrientationSweep(self._dims_by_code(rng, 11))
        assert (sweep.rows, sweep.chunks) == (4 ** 8, 4 ** 3)
        arrays = [v for v in vars(sweep).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) <= 11 * 4 ** 8


@pytest.fixture(scope="module")
def one_die_design():
    """One die whose two signals escape to the package."""
    die = Die(
        id="d1",
        width=2.0,
        height=1.0,
        buffers=[
            IOBuffer("b1", "d1", Point(0.25, 0.25), "s1"),
            IOBuffer("b2", "d1", Point(1.75, 0.75), "s2"),
        ],
        bumps=[
            MicroBump("m1", "d1", Point(1.0, 0.5)),
            MicroBump("m2", "d1", Point(1.5, 0.5)),
        ],
    )
    return Design(
        name="one-die",
        dies=[die],
        interposer=Interposer(
            width=4.0,
            height=4.0,
            tsvs=[TSV("t1", Point(1.0, 2.0)), TSV("t2", Point(3.0, 2.0))],
        ),
        package=Package(
            frame=Rect(-1.0, -1.0, 6.0, 6.0),
            escape_points=[
                EscapePoint("e1", Point(5.0, 0.5), "s1"),
                EscapePoint("e2", Point(-0.5, 3.0), "s2"),
            ],
        ),
        signals=[
            Signal("s1", ("b1",), escape_id="e1"),
            Signal("s2", ("b2",), escape_id="e2"),
        ],
    )


def tiny_design(n, one_die_design):
    if n == 1:
        return one_die_design
    return load_tiny(die_count=n, signal_count=8)


# Windows that keep the scalar reference quick at n = 4, 5 (it scores
# 4^n candidates per sequence pair one at a time).
REFERENCE_WINDOWS = {
    1: {},
    2: {},
    3: {},
    4: {"plus_range": (5, 9)},
    5: {"plus_range": (30, 31), "minus_range": (10, 110)},
}

VARIANTS = {
    "ori": {},
    "c1": {"illegal_cut": True},
    "c2": {"inferior_cut": True},
    "c3": {"illegal_cut": True, "inferior_cut": True},
}


def reference_configs(design, n):
    """``(name, config)`` for ori/c1/c2/c3 and a fixed-orientation run;
    the fixed vector is the ori winner's, so the window holds a legal
    candidate."""
    window = REFERENCE_WINDOWS[n]
    configs = [
        (name, EFAConfig(**cuts, **window)) for name, cuts in VARIANTS.items()
    ]
    ori = run_efa(design, configs[0][1])
    fixed = {
        die.id: orientation_from_code(code)
        for die, code in zip(design.dies, ori.candidate[2])
    }
    return configs + [
        ("fixed", EFAConfig(fixed_orientations=fixed, **window))
    ]


class TestBatchedEFAIdentity:
    """Every EFA variant returns the scalar reference's winner and
    counters, with the sweep in one chunk and in many."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_scalar_reference(self, n, one_die_design):
        design = tiny_design(n, one_die_design)
        for name, config in reference_configs(design, n):
            result = run_efa(design, config)
            assert result.found, name
            assert_matches_reference(result, scalar_efa(design, config))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_multi_chunk_sweep_matches_reference(self, monkeypatch, n):
        """A 2-die chunk suffix splits every sweep into 4^(n-2) chunks;
        the winner, key and counters must not move."""
        monkeypatch.setattr(batch, "SWEEP_SUFFIX", 2)
        design = load_tiny(die_count=n, signal_count=8)
        for name, config in reference_configs(design, n):
            planner = EnumerativeFloorplanner(design, config)
            result = planner.run()
            if config.fixed_orientations is None:
                assert planner._sweep.chunks == 4 ** (n - 2), name
            assert_matches_reference(result, scalar_efa(design, config))

    @pytest.mark.parametrize(
        "cfg_kwargs",
        [
            {},
            {"illegal_cut": True, "inferior_cut": True},
        ],
    )
    def test_same_winner_and_counters(self, cfg_kwargs):
        design = load_tiny(die_count=3, signal_count=8)
        config = EFAConfig(**cfg_kwargs)
        result = run_efa(design, config)
        assert_matches_reference(result, scalar_efa(design, config))
        # The realized floorplan is the winning candidate, re-packed.
        planner = EnumerativeFloorplanner(design, config)
        assert result.floorplan.placements == (
            planner.realize_candidate(*result.candidate).placements
        )


class TestLargeDieCounts:
    def test_budgeted_eleven_die_run_completes(self):
        """At n = 11 one sequence pair's sweep spans 64 chunks; a budget
        stops it between chunks instead of after 4^11 candidates."""
        design = load_tiny(die_count=11, signal_count=30)
        result = run_efa(design, EFAConfig(time_budget_s=0.5))
        stats = result.stats
        assert stats.timed_out
        assert stats.sequence_pairs_explored >= 1
        scanned = stats.floorplans_evaluated + stats.floorplans_rejected_outline
        assert 0 < scanned <= stats.sequence_pairs_explored * 4 ** 11
        assert stats.runtime_s < 10.0


class TestEnumerationWindows:
    def test_windows_partition_the_search(self):
        design = load_tiny(die_count=3, signal_count=8)
        full = run_efa(design, EFAConfig())
        parts = []
        for lo, hi in [(0, 2), (2, 5), (5, 6)]:
            parts.append(run_efa(design, EFAConfig(plus_range=(lo, hi))))
        assert sum(p.stats.sequence_pairs_explored for p in parts) == 36
        best = min(parts, key=lambda r: (r.est_wl, r.candidate_key))
        assert best.est_wl == full.est_wl
        assert best.candidate_key == full.candidate_key

    def test_minus_window_bounds_total(self):
        design = load_tiny(die_count=3, signal_count=8)
        res = run_efa(
            design, EFAConfig(plus_range=(0, 2), minus_range=(1, 4))
        )
        assert res.stats.sequence_pairs_total == 2 * 3
        assert res.stats.sequence_pairs_explored == 6

    def test_window_keys_are_global_ranks(self):
        design = load_tiny(die_count=3, signal_count=8)
        res = run_efa(design, EFAConfig(plus_range=(2, 4)))
        assert res.candidate_key[0] in (2, 3)

    @pytest.mark.parametrize(
        "window", [(-1, 2), (0, 99), (3, 2)]
    )
    def test_invalid_windows_rejected(self, window):
        design = load_tiny(die_count=3, signal_count=8)
        with pytest.raises(ValueError):
            run_efa(design, EFAConfig(plus_range=window))


class TestChunkBudget:
    """Byte-derived chunking of the batched kernel's scratch."""

    def test_default_budget(self, monkeypatch):
        from repro.floorplan import DEFAULT_BATCH_CHUNK_BYTES, batch_chunk_bytes

        monkeypatch.delenv("REPRO_BATCH_CHUNK_BYTES", raising=False)
        assert batch_chunk_bytes() == DEFAULT_BATCH_CHUNK_BYTES

    def test_env_override(self, monkeypatch):
        from repro.floorplan import batch_chunk_bytes

        monkeypatch.setenv("REPRO_BATCH_CHUNK_BYTES", "65536")
        assert batch_chunk_bytes() == 65536

    def test_bad_env_rejected(self, monkeypatch):
        from repro.floorplan import batch_chunk_bytes

        monkeypatch.setenv("REPRO_BATCH_CHUNK_BYTES", "lots")
        with pytest.raises(ValueError, match="REPRO_BATCH_CHUNK_BYTES"):
            batch_chunk_bytes()

    def test_row_bytes_reflects_actual_widths(self):
        design = load_tiny(die_count=3, signal_count=8)
        evaluator = FastHpwlEvaluator(design)
        signals = evaluator.signal_count
        assert evaluator._use_slots
        # One int64 + two float64 (B, SL) gathers and four (B, S)
        # reduction rows, all 8-byte elements.
        assert evaluator.batch_row_bytes() == 8 * (
            3 * evaluator._slot_width + 4 * signals
        )

    def test_chunk_rows_divide_the_budget(self, monkeypatch):
        design = load_tiny(die_count=3, signal_count=8)
        evaluator = FastHpwlEvaluator(design)
        row = evaluator.batch_row_bytes()
        monkeypatch.setenv("REPRO_BATCH_CHUNK_BYTES", str(row * 10))
        assert evaluator.batch_chunk_rows() == 10
        # A budget below one row clamps up: progress is never zero rows.
        monkeypatch.setenv("REPRO_BATCH_CHUNK_BYTES", "1")
        assert evaluator.batch_chunk_rows() == 1

    def test_tiny_budget_same_efa_winner(self, monkeypatch):
        """The EFA loop chunks sweeps by ``batch_chunk_rows``; shrinking
        the budget to one row per chunk must not move the winner."""
        design = load_tiny(die_count=3, signal_count=8)
        monkeypatch.delenv("REPRO_BATCH_CHUNK_BYTES", raising=False)
        want = run_efa(design, EFAConfig())
        row = FastHpwlEvaluator(design).batch_row_bytes()
        monkeypatch.setenv("REPRO_BATCH_CHUNK_BYTES", str(row))
        got = run_efa(design, EFAConfig())
        assert got.est_wl == want.est_wl
        assert got.candidate_key == want.candidate_key
        assert (
            got.stats.floorplans_evaluated
            == want.stats.floorplans_evaluated
        )


class TestAutoBatchEval:
    """The legacy ``floorplan_batch_eval`` flow-config key: EFA has one
    evaluation path, so the key is validated at the config boundary and
    otherwise ignored."""

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_pass_through(self, value):
        data = flow_config_to_dict(FlowConfig())
        data["floorplan_batch_eval"] = value
        assert flow_config_from_dict(data).floorplan_batch_eval is value

    @pytest.mark.parametrize("bad", ["yes", 1, None, "AUTO"])
    def test_invalid_values_rejected(self, bad):
        data = flow_config_to_dict(FlowConfig())
        data["floorplan_batch_eval"] = bad
        with pytest.raises(ValueError, match="floorplan_batch_eval"):
            flow_config_from_dict(data)

    def test_auto_matches_explicit_paths_exactly(self):
        design = load_tiny(die_count=3, signal_count=8)
        explicit = run_flow(design, FlowConfig(floorplan_batch_eval=True))
        for value in ("auto", False):
            legacy = run_flow(design, FlowConfig(floorplan_batch_eval=value))
            assert (
                legacy.floorplan_result.est_wl
                == explicit.floorplan_result.est_wl
            )
            assert (
                legacy.floorplan_result.candidate_key
                == explicit.floorplan_result.candidate_key
            )
            assert (
                legacy.floorplan.placements == explicit.floorplan.placements
            )
            assert legacy.twl == explicit.twl
