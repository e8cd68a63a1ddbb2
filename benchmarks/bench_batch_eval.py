"""Scalar vs batched orientation-sweep evaluation (the estWL hot path).

Two measured units, both asserting bit-identity before reporting any
number:

* **kernel** — ``FastHpwlEvaluator.hpwl_batch`` against a Python loop of
  scalar ``hpwl`` calls on random candidate batches (``np.array_equal``,
  not approx);
* **end-to-end EFA** — the full EFA_c3 search by the scalar reference
  (``tests/efa_reference.py``, one candidate at a time; the "serial"
  columns) vs :func:`run_efa`, plus the sharded pool at 1 and 4
  workers, on every requested t-series design.  The winner must match
  *exactly* — same ``est_wl``, same ``(plus_rank, minus_rank,
  combo_index)`` key, same placements — between every pair of paths.

Full enumeration is intractable at 6 and 8 dies, so those cases run a
deterministic enumeration *window* (``EFAConfig.plus_range`` /
``minus_range``): a bounded sub-search in global rank coordinates that
scalar, batched and sharded paths all walk identically, keeping the
identity assertion meaningful while bounding serial wall-clock.

Besides the usual ``benchmarks/out/`` table, results land in
``BENCH_batch_eval.json`` at the repo root (consumed by CI and
EXPERIMENTS.md).

Environment knobs: ``REPRO_BENCH_CASES`` (case subset) and
``REPRO_BATCH_BENCH_KBATCH`` (kernel batch size, default 512).
"""

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from common import bench_cases, cached_case, emit_table
from repro.floorplan import (
    EFAConfig,
    EnumerativeFloorplanner,
    FastHpwlEvaluator,
    run_efa,
)
from repro.parallel import ParallelEFAConfig, run_parallel_efa

REPO_ROOT = Path(__file__).parent.parent
JSON_PATH = REPO_ROOT / "BENCH_batch_eval.json"


def _load_reference():
    """The scalar EFA reference, imported by path from the test suite."""
    path = REPO_ROOT / "tests" / "efa_reference.py"
    spec = importlib.util.spec_from_file_location("efa_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


scalar_efa = _load_reference().scalar_efa

# Deterministic enumeration windows per die count: full space where the
# enumeration finishes in seconds, a bounded (plus, minus) rank window
# where it would not.  Windows use global ranks, so every path (scalar,
# batched, sharded) reports comparable candidate keys.  The 6/8-die
# windows are centred on grid-like Γ+ permutations that admit *legal*
# packings — rank 269 at n=6 is (2,1,0,5,4,3) (a 3x2 grid against the
# identity Γ−, the global winner's region in wider probes) and rank
# 5167 at n=8 is (1,0,3,2,5,4,7,6) (4 columns of 2) — so every case
# finds a floorplan and the winner-identity assertion is non-vacuous.
_WINDOWS = {
    4: {"plus_range": None, "minus_range": None},
    6: {"plus_range": (260, 280), "minus_range": (0, 24)},
    8: {"plus_range": (5165, 5170), "minus_range": (0, 24)},
}


def _kernel_batch() -> int:
    return int(os.environ.get("REPRO_BATCH_BENCH_KBATCH", "512"))


def _efa_config(design) -> EFAConfig:
    window = _WINDOWS[len(design.dies)]
    return EFAConfig(
        illegal_cut=True,
        inferior_cut=True,
        plus_range=window["plus_range"],
        minus_range=window["minus_range"],
    )


def _placements(design, floorplan):
    return {d.id: floorplan.placement(d.id) for d in design.dies}


def _assert_same_winner(design, a, b, label):
    """``a`` (a run or the scalar reference) and run ``b`` agree."""
    assert (a.candidate is not None) == b.found, label
    if not b.found:
        return
    assert a.est_wl == b.est_wl, label  # exact, not approx
    assert a.candidate_key == b.candidate_key, label
    assert a.candidate == b.candidate, label
    realized = EnumerativeFloorplanner(design).realize_candidate(
        *a.candidate
    )
    assert _placements(design, realized) == _placements(
        design, b.floorplan
    ), label


@pytest.mark.benchmark(group="batch-eval-kernel")
def test_kernel_identity_and_speed(benchmark):
    """hpwl_batch vs scalar hpwl loop on random candidates."""
    design = cached_case(bench_cases(default=["t4m"])[0])
    evaluator = FastHpwlEvaluator(design)
    n = evaluator.die_count
    batch = _kernel_batch()
    rng = np.random.default_rng(0)
    die_x = rng.uniform(0.0, 10.0, size=(batch, n))
    die_y = rng.uniform(0.0, 10.0, size=(batch, n))
    codes = rng.integers(0, 4, size=(batch, n), dtype=np.int64)

    serial_t0 = time.perf_counter()
    expected = np.array(
        [evaluator.hpwl(die_x[b], die_y[b], codes[b]) for b in range(batch)]
    )
    serial_s = time.perf_counter() - serial_t0

    got = benchmark(evaluator.hpwl_batch, die_x, die_y, codes)
    assert np.array_equal(got, expected)

    batch_t0 = time.perf_counter()
    evaluator.hpwl_batch(die_x, die_y, codes)
    batch_s = time.perf_counter() - batch_t0
    record = {
        "design": design.name,
        "batch": batch,
        "serial_s": serial_s,
        "batched_s": batch_s,
        "speedup": serial_s / max(batch_s, 1e-9),
    }
    _merge_json({"kernel": record})
    print(
        f"\nkernel: {batch} candidates, serial {serial_s * 1e3:.1f} ms, "
        f"batched {batch_s * 1e3:.2f} ms "
        f"({record['speedup']:.1f}x), identical"
    )


@pytest.mark.benchmark(group="batch-eval-efa")
def test_efa_identity_and_speed(benchmark):
    """Scalar reference vs batched vs sharded EFA on the t-series."""
    cases = bench_cases()
    rows = []
    case_records = {}

    def run_all():
        out = {}
        for name in cases:
            design = cached_case(name)
            t0 = time.perf_counter()
            serial = scalar_efa(design, _efa_config(design))
            serial_s = time.perf_counter() - t0
            batched = run_efa(design, _efa_config(design))
            w1 = run_parallel_efa(
                design,
                ParallelEFAConfig(workers=1, efa=_efa_config(design)),
            )
            w4 = run_parallel_efa(
                design,
                ParallelEFAConfig(workers=4, efa=_efa_config(design)),
            )
            out[name] = (design, serial, serial_s, batched, w1, w4)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for name in cases:
        design, serial, s_t, batched, w1, w4 = results[name]
        _assert_same_winner(design, serial, batched, f"{name}: batched")
        _assert_same_winner(design, serial, w1, f"{name}: workers=1")
        _assert_same_winner(design, serial, w4, f"{name}: workers=4")
        evals = serial.stats.floorplans_evaluated
        b_t = batched.stats.runtime_s
        window = _WINDOWS[len(design.dies)]
        case_records[name] = {
            "dies": len(design.dies),
            "windowed": window["plus_range"] is not None,
            "floorplans_evaluated": evals,
            "est_wl": serial.est_wl,
            "candidate_key": list(serial.candidate_key)
            if serial.candidate_key
            else None,
            "serial_s": s_t,
            "batched_s": b_t,
            "workers1_s": w1.stats.runtime_s,
            "workers4_s": w4.stats.runtime_s,
            "serial_evals_per_s": evals / max(s_t, 1e-9),
            "batched_evals_per_s": evals / max(b_t, 1e-9),
            "speedup": s_t / max(b_t, 1e-9),
            "identical": True,
        }
        rows.append(
            [
                name,
                len(design.dies),
                evals,
                s_t,
                b_t,
                case_records[name]["speedup"],
                w4.stats.runtime_s,
                "yes",
            ]
        )

    _merge_json({"efa": case_records})
    emit_table(
        "batch_eval.txt",
        "Batched orientation-sweep evaluation vs scalar EFA_c3",
        [
            "case",
            "dies",
            "evals",
            "serial s",
            "batched s",
            "speedup",
            "x4 s",
            "identical",
        ],
        rows,
        notes=(
            "6/8-die cases run a deterministic enumeration window "
            "(full space is intractable); identity asserted on est_wl, "
            "candidate key and placements for batched, x1 and x4 paths."
        ),
    )


def _merge_json(update):
    """Merge a section into BENCH_batch_eval.json (bench order varies)."""
    data = {}
    if JSON_PATH.exists():
        try:
            data = json.loads(JSON_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(update)
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")
