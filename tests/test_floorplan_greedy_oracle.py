"""The greedy packer's array cost against its Point/dict reference.

``ReferenceCost`` is the packer's original cost function: it walks the
arrangement with ``Point`` and ``Rect`` objects and sums ``hpwl`` over
per-signal point lists.  It is the single reference for
:meth:`GreedyPacker._costs`, which must reproduce it with ``==`` on every
candidate the packer scores, and the packer must return the identical
``F_ref`` either way.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.benchgen import generate_design, suite_config
from repro.floorplan.greedy_packing import (
    _ILLEGAL_PENALTY,
    GreedyPacker,
    predetermine_orientations,
)
from repro.geometry import ALL_ORIENTATIONS, Point, hpwl
from repro.model import Die, IOBuffer, MicroBump, Signal

from .helpers import build_design


class ReferenceCost:
    """HPWL over located terminals after centring, plus legality penalty,
    evaluated with geometry objects exactly as the packer first did."""

    def __init__(self, packer):
        self.packer = packer
        design = packer.design
        self.die_terminals = {}
        self.escape_pos = []
        self.signal_degree = [len(s.buffer_ids) for s in design.signals]
        for idx, signal in enumerate(design.signals):
            self.escape_pos.append(
                design.escape(signal.escape_id).position
                if signal.escape_id is not None
                else None
            )
            for buffer_id in signal.buffer_ids:
                die_id = design.die_of_buffer(buffer_id)
                die = design.die(die_id)
                pos = die.buffer(buffer_id).position
                per_orient = {
                    o: o.apply(pos, die.width, die.height)
                    for o in ALL_ORIENTATIONS
                }
                self.die_terminals.setdefault(die_id, []).append(
                    (idx, per_orient)
                )

    def __call__(self, arrangement):
        packer = self.packer
        design = packer.design
        rects = {
            d: packer._rect(d, pos, o) for d, (pos, o) in arrangement.items()
        }
        box = None
        for r in rects.values():
            box = r if box is None else box.union(r)
        target = design.interposer.center
        off = Point(target.x - box.center.x, target.y - box.center.y)

        penalty = 0.0
        outline = design.interposer.outline
        for r in rects.values():
            clearance = outline.boundary_clearance(r.translated(off.x, off.y))
            if clearance < packer._c_b - 1e-9:
                penalty += _ILLEGAL_PENALTY * (1.0 + (packer._c_b - clearance))
        rect_list = list(rects.values())
        for i, a in enumerate(rect_list):
            for b in rect_list[i + 1 :]:
                gap = a.gap_to(b)
                if a.overlaps(b) or gap < packer._c_d - 1e-9:
                    penalty += _ILLEGAL_PENALTY * (1.0 + (packer._c_d - gap))

        per_signal = {}
        for die_id, (pos, orient) in arrangement.items():
            base = pos + off
            for signal_idx, per_orient in self.die_terminals.get(die_id, ()):
                per_signal.setdefault(signal_idx, []).append(
                    per_orient[orient] + base
                )
        total = penalty
        for signal_idx, points in per_signal.items():
            if len(points) < self.signal_degree[signal_idx]:
                continue
            escape = self.escape_pos[signal_idx]
            if escape is not None:
                points.append(escape)
            if len(points) >= 2:
                total += hpwl(points)
        return total


def checked_packer(design):
    """A packer whose every batched cost is checked against the reference
    (``==`` per row); it returns the reference values, so the search runs
    on the reference cost."""
    packer = GreedyPacker(design)
    reference = ReferenceCost(packer)
    fast = packer._costs
    die_ids = [d.id for d in design.dies]
    calls = []

    def costs(order, xs, ys, codes):
        got = fast(order, xs, ys, codes)
        want = []
        for row in range(len(xs)):
            arrangement = {
                die_ids[die]: (
                    Point(float(xs[row, p]), float(ys[row, p])),
                    ALL_ORIENTATIONS[int(codes[row, p])],
                )
                for p, die in enumerate(order)
            }
            want.append(reference(arrangement))
            assert got[row] == want[-1], (order, row, got[row], want[-1])
        calls.append(len(want))
        return np.asarray(want)

    packer._costs = costs
    return packer, calls


def snapshot(result):
    """Everything a GreedyPackingResult carries, with exact floats."""
    return (
        result.cost,
        dict(result.orientations),
        {
            d: (p.position.x, p.position.y, p.orientation)
            for d, p in result.floorplan.placements.items()
        },
    )


def single_die_design():
    die = Die(
        id="d1",
        width=1.0,
        height=0.6,
        buffers=[IOBuffer("b1", "d1", Point(0.9, 0.5), "s1")],
        bumps=[MicroBump("m1", "d1", Point(0.8, 0.5))],
    )
    return build_design(dies=[die], signals=[Signal("s1", ("b1",), "e1")])


SUITE_SEEDS = [
    ("t4s", 1),
    ("t4s", 2),
    ("t4b", 1),
    ("t4b", 5),
    ("t8m", 1),
    ("t8m", 2),
]


def suite_design(case, seed):
    return generate_design(replace(suite_config(case), seed=seed))


class TestCostOracle:
    @pytest.mark.parametrize("case,seed", SUITE_SEEDS)
    def test_every_call_matches_reference(self, case, seed):
        design = suite_design(case, seed)
        packer, calls = checked_packer(design)
        checked = packer.run()
        assert sum(calls) == packer._cost_evals > 0
        fast = predetermine_orientations(design)
        assert snapshot(fast) == snapshot(checked)

    def test_single_die(self):
        design = single_die_design()
        packer, calls = checked_packer(design)
        checked = packer.run()
        assert calls == [1]
        assert snapshot(predetermine_orientations(design)) == snapshot(
            checked
        )

    def test_single_die_cost_has_no_signal_term(self):
        # The lone die carries only a one-terminal signal with an escape;
        # the span is the buffer-to-escape box.
        result = predetermine_orientations(single_die_design())
        assert result.cost == float.fromhex("0x1.cccccccccccccp+1")


# F_ref of the pre-array packer: (cost, orientation codes in die-id
# order, sha256 prefix of the (die, orientation, x.hex, y.hex) list).
PRE_ARRAY_PACKER = {
    ("t4s", 1): ("0x1.0efae52fe430ap+7", "1111", "173d71d5f3fdb608"),
    ("t4s", 2): ("0x1.5af2ecb41eaabp+7", "1202", "0eb9f5b8ee10597c"),
    ("t4b", 1): ("0x1.1b2983af813a6p+9", "0003", "f0670ebaa9e44d1b"),
    ("t4b", 5): ("0x1.ec06547d0d799p+7", "1111", "88a434020cb48132"),
    ("t8m", 1): ("0x1.faf560a26af00p+30", "11011221", "b8d4f918fe0b07a7"),
    ("t8m", 2): ("0x1.212231df0006fp+9", "10222121", "0d073148b768c6c1"),
}


@pytest.mark.parametrize("case,seed", sorted(PRE_ARRAY_PACKER))
def test_matches_pre_array_packer(case, seed):
    result = predetermine_orientations(suite_design(case, seed))
    items = []
    for d in sorted(result.orientations):
        p = result.floorplan.placement(d)
        items.append(
            (d, p.orientation.name, p.position.x.hex(), p.position.y.hex())
        )
    codes = "".join(
        str(result.orientations[d].value // 90)
        for d in sorted(result.orientations)
    )
    digest = hashlib.sha256(repr(items).encode()).hexdigest()[:16]
    assert (result.cost.hex(), codes, digest) == PRE_ARRAY_PACKER[
        (case, seed)
    ]
