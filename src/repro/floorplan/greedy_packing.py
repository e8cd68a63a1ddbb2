"""The greedy two-stage packing algorithm (Fig. 5, Section 3.3).

Die orientation pre-determination builds a reference floorplan ``F_ref``:

* **Stage 1** tries every die pair, every orientation of both dies and
  every contact boundary, packing the second die against the first
  (centre-aligned on the contact boundary, ``c_d`` apart) and keeping the
  cheapest pair as the initial ``F_ref``.
* **Stage 2** repeatedly attaches one unpacked die — every orientation,
  every *available* boundary of ``F_ref`` (a die side not already used as a
  contact) — resolving overlaps by the minimal axis-aligned shift, and
  keeps the cheapest extension.

The cost of a candidate packing is the total HPWL of all signals over the
terminals already located (buffers of packed dies, plus escape points,
which are always located), after centring the arrangement on the
interposer; illegal arrangements get a large penalty.  The orientations of
``F_ref`` then seed ``EFA_dop``.

The cost is array-based: per-die, per-orientation, per-signal local
bounding boxes are tabulated once, and each stage scores all its
candidates in one pass (:meth:`GreedyPacker._costs`).  The result is
bit-identical to summing ``hpwl`` over ``Point`` lists (DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import ALL_ORIENTATIONS, Orientation, Point, Rect
from ..model import Design, Floorplan, Placement
from ..obs import get_logger, metrics, span

logger = get_logger("floorplan.greedy_packing")

SIDES = ("left", "right", "bottom", "top")
_OPPOSITE = {"left": "right", "right": "left", "top": "bottom", "bottom": "top"}

# Penalty added to the cost of an arrangement that does not fit the
# interposer legally; large enough to dominate any real HPWL while keeping
# relative order among illegal arrangements (less overflow is preferred).
_ILLEGAL_PENALTY = 1e9

_CODE = {o: c for c, o in enumerate(ALL_ORIENTATIONS)}

# Candidates scored per array pass: keeps the (rows, signals) working
# set near 50 KB per array.
_COST_CHUNK_ROWS = 32

# Die id -> (lower-left position, orientation), in placement order.
Arrangement = Dict[str, Tuple[Point, Orientation]]


@dataclass
class GreedyPackingResult:
    """``F_ref`` plus the per-die orientations EFA_dop will fix."""

    floorplan: Floorplan
    orientations: Dict[str, Orientation]
    cost: float


class GreedyPacker:
    """Builds ``F_ref`` for a design per the Fig. 5 pseudo code."""

    def __init__(self, design: Design):
        self.design = design
        self._cost_evals = 0
        self._half_cd = design.spacing.die_to_die / 2.0
        self._c_d = design.spacing.die_to_die
        self._c_b = design.spacing.die_to_boundary
        self._die_index = {d.id: i for i, d in enumerate(design.dies)}
        n, s = len(design.dies), len(design.signals)
        # Oriented footprint per die and orientation code.
        self._w = np.empty((n, 4))
        self._h = np.empty((n, 4))
        for i, die in enumerate(design.dies):
            for c, o in enumerate(ALL_ORIENTATIONS):
                self._w[i, c], self._h[i, c] = o.rotated_dims(
                    die.width, die.height
                )
        # Local bounding box of each die's terminals of each signal, per
        # orientation: (n, 4, S), +-inf where the die carries none.
        t_die: List[int] = []
        t_sig: List[int] = []  # die and signal of each terminal
        local: List[List[Tuple[float, float]]] = []
        esc = np.full((2, s), np.nan)
        for idx, signal in enumerate(design.signals):
            if signal.escape_id is not None:
                e = design.escape(signal.escape_id).position
                esc[:, idx] = (e.x, e.y)
            for buffer_id in signal.buffer_ids:
                die_id = design.die_of_buffer(buffer_id)
                die = design.die(die_id)
                pos = die.buffer(buffer_id).position
                t_die.append(self._die_index[die_id])
                t_sig.append(idx)
                local.append(
                    [
                        tuple(o.apply(pos, die.width, die.height))
                        for o in ALL_ORIENTATIONS
                    ]
                )
        coords = np.asarray(local, dtype=np.float64).reshape(-1, 4, 2)
        at = (np.asarray(t_die, dtype=np.intp), slice(None), t_sig)
        self._lo = np.full((2, n, 4, s), np.inf)
        self._hi = np.full((2, n, 4, s), -np.inf)
        for axis in (0, 1):
            np.minimum.at(self._lo[axis], at, coords[:, :, axis])
            np.maximum.at(self._hi[axis], at, coords[:, :, axis])
        has_esc = ~np.isnan(esc)
        self._esc_lo = np.where(has_esc, esc, np.inf)
        self._esc_hi = np.where(has_esc, esc, -np.inf)
        self._carrier = np.zeros((n, s), dtype=bool)
        self._carrier[at[0], t_sig] = True
        self._orders: Dict[Tuple[int, ...], np.ndarray] = {}
        outline = design.interposer.outline
        self._outline = (outline.x, outline.y, outline.x2, outline.y2)
        self._target = design.interposer.center

    # -- geometry helpers -----------------------------------------------------

    def _rect(self, die_id: str, pos: Point, orient: Orientation) -> Rect:
        die = self.design.die(die_id)
        w, h = orient.rotated_dims(die.width, die.height)
        return Rect(pos.x, pos.y, w, h)

    def _attach_position(
        self,
        base: Rect,
        die_id: str,
        orient: Orientation,
        side: str,
        align: str = "center",
    ) -> Point:
        """Lower-left of ``die_id`` attached to ``side`` of ``base``.

        The new die's opposite boundary touches the contact boundary at
        distance ``c_d``.  ``align`` picks the along-boundary alignment:
        ``"center"`` (the paper's choice for the initial pair), ``"low"``
        (bottom/left edges flush) or ``"high"`` (top/right edges flush) —
        the extra alignments let the incremental stage reach grid-like
        packings that centre-only attachment cannot, which matters on
        tightly-utilized interposers.
        """
        die = self.design.die(die_id)
        w, h = orient.rotated_dims(die.width, die.height)
        if side in ("right", "left"):
            if align == "center":
                y = base.center.y - h / 2.0
            elif align == "low":
                y = base.y
            else:
                y = base.y2 - h
            x = base.x2 + self._c_d if side == "right" else base.x - self._c_d - w
            return Point(x, y)
        if align == "center":
            x = base.center.x - w / 2.0
        elif align == "low":
            x = base.x
        else:
            x = base.x2 - w
        y = base.y2 + self._c_d if side == "top" else base.y - self._c_d - h
        return Point(x, y)

    def _resolve_overlap(
        self, rect: Rect, placed: List[Rect]
    ) -> Optional[Rect]:
        """Shift ``rect`` by the minimal axis displacement clearing ``placed``.

        Tries each of the four axis directions, iteratively pushing until no
        placed die is closer than ``c_d`` (equivalently: until the
        ``c_d/2``-swollen rectangles stop overlapping), and returns the
        cheapest outcome.  Returns ``rect`` unchanged when already clear.
        """
        swollen = [r.inflated(self._half_cd) for r in placed]
        mine = rect.inflated(self._half_cd)
        if not any(mine.overlaps(s) for s in swollen):
            return rect
        best_rect: Optional[Rect] = None
        best_shift = float("inf")
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cand = mine
            total = 0.0
            for _ in range(2 * len(placed) + 1):
                hits = [s for s in swollen if cand.overlaps(s)]
                if not hits:
                    break
                if dx > 0:
                    step = max(s.x2 - cand.x for s in hits)
                elif dx < 0:
                    step = max(cand.x2 - s.x for s in hits)
                elif dy > 0:
                    step = max(s.y2 - cand.y for s in hits)
                else:
                    step = max(cand.y2 - s.y for s in hits)
                cand = cand.translated(dx * step, dy * step)
                total += step
            else:
                continue  # Still overlapping after the iteration cap.
            if any(cand.overlaps(s) for s in swollen):
                continue
            if total < best_shift:
                best_shift = total
                best_rect = cand.inflated(-self._half_cd)
        return best_rect

    # -- cost --------------------------------------------------------------------

    def _signal_order(self, order: Tuple[int, ...]) -> np.ndarray:
        """Signals an arrangement in ``order`` scores, in summation order.

        Only signals whose die terminals are *all* inside the packed set
        contribute ("the total HPWL of all signals in F_pair"): a
        partially packed signal has no meaningful HPWL yet, and counting
        its fragment would bias the packer toward escape-point geometry
        instead of die-to-die connectivity.  They are summed in order of
        first occurrence: by the first packed die carrying them, then by
        signal index.
        """
        sig = self._orders.get(order)
        if sig is None:
            carrier = self._carrier[list(order)]
            unplaced = np.ones(len(self._carrier), dtype=bool)
            unplaced[list(order)] = False
            complete = carrier.any(axis=0) & ~self._carrier[unplaced].any(
                axis=0
            )
            first = np.argmax(carrier, axis=0)
            sig = np.flatnonzero(complete)
            sig = sig[np.argsort(first[sig], kind="stable")]
            self._orders[order] = sig
        return sig

    def _costs(
        self,
        order: Sequence[int],
        xs: np.ndarray,
        ys: np.ndarray,
        codes: np.ndarray,
    ) -> np.ndarray:
        """Cost of ``C`` arrangements of the dies ``order`` (die indices).

        ``xs`` / ``ys`` are ``(C, k)`` lower-left positions and ``codes``
        the ``(C, k)`` orientation codes, column ``p`` for die
        ``order[p]``.  The cost is the HPWL over located terminals after
        centring, plus the legality penalty, with every float operation
        of the reference ``Point``/``Rect`` evaluation in its order: the
        bounding box is unioned die by die, penalties are summed die by
        die then pair by pair, and signal spans take their min/max over
        ``table + offset`` — exact, since rounding is monotone — before
        one sequential sum (DESIGN.md §11).
        """
        order = tuple(order)
        self._cost_evals += len(xs)
        dies = np.asarray(order)
        w = self._w[dies, codes]
        h = self._h[dies, codes]
        box_x, box_y, box_w, box_h = xs[:, 0], ys[:, 0], w[:, 0], h[:, 0]
        for p in range(1, len(order)):
            x2 = np.maximum(box_x + box_w, xs[:, p] + w[:, p])
            y2 = np.maximum(box_y + box_h, ys[:, p] + h[:, p])
            box_x = np.minimum(box_x, xs[:, p])
            box_y = np.minimum(box_y, ys[:, p])
            box_w = x2 - box_x
            box_h = y2 - box_y
        off_x = self._target.x - (box_x + box_w / 2.0)
        off_y = self._target.y - (box_y + box_h / 2.0)
        tx = xs + off_x[:, None]
        ty = ys + off_y[:, None]

        o_x, o_y, o_x2, o_y2 = self._outline
        clearance = np.minimum(
            np.minimum(tx - o_x, ty - o_y),
            np.minimum(o_x2 - (tx + w), o_y2 - (ty + h)),
        )
        boundary = np.where(
            clearance < self._c_b - 1e-9,
            _ILLEGAL_PENALTY * (1.0 + (self._c_b - clearance)),
            0.0,
        )
        # Die-to-die violations (overlap or gap below c_d) are impossible
        # for the attach-generated candidates but can appear during the
        # in-place orientation refinement, so penalize them here too.
        a, b = np.asarray(
            list(combinations(range(len(order)), 2)), dtype=np.intp
        ).reshape(-1, 2).T
        ax, ay, bx, by = xs[:, a], ys[:, a], xs[:, b], ys[:, b]
        ax2, ay2 = ax + w[:, a], ay + h[:, a]
        bx2, by2 = bx + w[:, b], by + h[:, b]
        dx = np.maximum(np.maximum(bx - ax2, ax - bx2), 0.0)
        dy = np.maximum(np.maximum(by - ay2, ay - by2), 0.0)
        gap = np.where((dx > 0.0) & (dy > 0.0), np.maximum(dx, dy), dx + dy)
        tol = 1e-9
        overlap = (
            (ax < bx2 - tol)
            & (bx < ax2 - tol)
            & (ay < by2 - tol)
            & (by < ay2 - tol)
        )
        spacing = np.where(
            overlap | (gap < self._c_d - 1e-9),
            _ILLEGAL_PENALTY * (1.0 + (self._c_d - gap)),
            0.0,
        )

        sig = self._signal_order(order)
        penalties = boundary.shape[1] + spacing.shape[1]
        terms = np.empty((len(xs), penalties + sig.size))
        terms[:, : boundary.shape[1]] = boundary
        terms[:, boundary.shape[1] : penalties] = spacing
        hpwl = terms[:, penalties:]
        hpwl[:] = 0.0
        for axis, t in ((0, tx), (1, ty)):
            lo = np.repeat(self._esc_lo[None, axis, sig], len(xs), axis=0)
            hi = np.repeat(self._esc_hi[None, axis, sig], len(xs), axis=0)
            for p, die in enumerate(order):
                at = (codes[:, p, None], sig)
                off = t[:, p, None]
                np.minimum(lo, self._lo[axis, die][at] + off, out=lo)
                np.maximum(hi, self._hi[axis, die][at] + off, out=hi)
            hi -= lo
            hpwl += hi  # 0 + span_x, then + span_y: as (dx) + (dy)
        # Zero terms (no violation) leave the non-negative running sum
        # unchanged, so one sequential accumulate reproduces the
        # reference's skip-or-add loop.
        np.add.accumulate(terms, axis=1, out=terms)
        return terms[:, -1].copy()

    def _cost(self, arrangement: Arrangement) -> float:
        """HPWL over located terminals after centring, plus legality penalty."""
        return self._best(list(arrangement), [list(arrangement.values())])[0]

    def _best(
        self,
        die_ids: List[str],
        rows: List[List[Tuple[Point, Orientation]]],
    ) -> Tuple[float, int]:
        """Cheapest of ``rows``, each placing ``die_ids`` in that order.

        Returns ``(cost, index)`` of the first minimum — the winner of the
        reference's strict-``<`` scan over the same candidates.
        """
        order = [self._die_index[d] for d in die_ids]
        xs = np.asarray([[pos.x for pos, _ in row] for row in rows])
        ys = np.asarray([[pos.y for pos, _ in row] for row in rows])
        codes = np.asarray([[_CODE[o] for _, o in row] for row in rows])
        costs = np.concatenate(
            [
                self._costs(order, xs[at], ys[at], codes[at])
                for at in (
                    slice(lo, lo + _COST_CHUNK_ROWS)
                    for lo in range(0, len(rows), _COST_CHUNK_ROWS)
                )
            ]
        )
        j = int(np.argmin(costs))
        return float(costs[j]), j

    # -- the two stages ------------------------------------------------------------

    def run(self) -> GreedyPackingResult:
        """Run both packing stages and return ``F_ref`` (Fig. 5)."""
        with span("floorplan.greedy_packing") as sp:
            result = self._run()
        sp.annotate(cost=result.cost)
        metrics.counter("floorplan.greedy.candidates_evaluated").inc(
            self._cost_evals
        )
        logger.debug(
            "greedy packing: %d candidate arrangements evaluated, "
            "F_ref cost %.4f",
            self._cost_evals,
            result.cost,
        )
        return result

    def _run(self) -> GreedyPackingResult:
        die_ids = [d.id for d in self.design.dies]
        if len(die_ids) == 1:
            arrangement = {die_ids[0]: (Point(0.0, 0.0), Orientation.R0)}
            return self._finish(arrangement)

        # Stage 1: best pair (Fig. 5 lines 2-12).
        origin = Point(0.0, 0.0)
        best_cost = float("inf")
        best_pair: Optional[Arrangement] = None
        for i, d_i in enumerate(die_ids):
            for d_j in die_ids[i + 1 :]:
                rows = []
                for r_i in ALL_ORIENTATIONS:
                    rect_i = self._rect(d_i, origin, r_i)
                    for r_j in ALL_ORIENTATIONS:
                        for side in SIDES:
                            pos_j = self._attach_position(
                                rect_i, d_j, r_j, side
                            )
                            rows.append([(origin, r_i), (pos_j, r_j)])
                cost, j = self._best([d_i, d_j], rows)
                if cost < best_cost:
                    best_cost = cost
                    best_pair = dict(zip((d_i, d_j), rows[j]))
        assert best_pair is not None
        arrangement = dict(best_pair)

        # Stage 2: attach remaining dies one by one (Fig. 5 lines 14-24).
        used_sides: set = set()
        while len(arrangement) < len(die_ids):
            best_cost = float("inf")
            best_step = None
            placed_rects = {
                d: self._rect(d, pos, o)
                for d, (pos, o) in arrangement.items()
            }
            placed = list(arrangement.values())
            others = list(placed_rects.values())
            boundaries = self._available_boundaries(arrangement, used_sides)
            for d in die_ids:
                if d in arrangement:
                    continue
                rows = []
                sites = []
                for orient in ALL_ORIENTATIONS:
                    for anchor, side in boundaries:
                        for align in ("center", "low", "high"):
                            pos = self._attach_position(
                                placed_rects[anchor], d, orient, side, align
                            )
                            rect = self._rect(d, pos, orient)
                            resolved = self._resolve_overlap(rect, others)
                            if resolved is None:
                                continue
                            rows.append(
                                placed
                                + [(Point(resolved.x, resolved.y), orient)]
                            )
                            sites.append((anchor, side))
                if not rows:
                    continue
                cost, j = self._best(list(arrangement) + [d], rows)
                if cost < best_cost:
                    best_cost = cost
                    candidate = dict(arrangement)
                    candidate[d] = rows[j][-1]
                    best_step = (d, candidate) + sites[j]
            if best_step is None:
                raise RuntimeError(
                    "greedy packing could not attach a die without overlap"
                )
            d, arrangement, anchor, side = best_step
            used_sides.add((anchor, side))
            used_sides.add((d, _OPPOSITE[side]))
        arrangement = self._refine_orientations(arrangement)
        return self._finish(arrangement)

    def _refine_orientations(
        self, arrangement: Arrangement
    ) -> Arrangement:
        """Coordinate-descent polish of the per-die orientations.

        The greedy attach order can lock in early orientation choices that
        look poor once all dies are placed; since the whole point of
        ``F_ref`` is its orientation *vector* (EFA_dop re-derives the
        positions anyway), rotate each die in place about its centre and
        keep any strictly improving orientation, sweeping until stable.
        """
        current = dict(arrangement)
        cost = self._cost(current)
        for _ in range(3):
            improved = False
            for die_id in sorted(current):
                pos, orient = current[die_id]
                rect = self._rect(die_id, pos, orient)
                centre = rect.center
                for candidate in ALL_ORIENTATIONS:
                    if candidate is orient:
                        continue
                    die = self.design.die(die_id)
                    w, h = candidate.rotated_dims(die.width, die.height)
                    new_pos = Point(centre.x - w / 2.0, centre.y - h / 2.0)
                    trial = dict(current)
                    trial[die_id] = (new_pos, candidate)
                    trial_cost = self._cost(trial)
                    if trial_cost < cost - 1e-12:
                        current = trial
                        cost = trial_cost
                        orient = candidate
                        improved = True
            if not improved:
                break
        return current

    def _available_boundaries(self, arrangement, used_sides):
        """(die, side) pairs of ``F_ref`` not yet used as contact boundaries."""
        out = []
        for d in arrangement:
            for side in SIDES:
                if (d, side) not in used_sides:
                    out.append((d, side))
        return out

    def _finish(
        self, arrangement: Arrangement
    ) -> GreedyPackingResult:
        """Centre the final arrangement and wrap it as a Floorplan."""
        rects = {
            d: self._rect(d, pos, o) for d, (pos, o) in arrangement.items()
        }
        box = None
        for r in rects.values():
            box = r if box is None else box.union(r)
        target = self.design.interposer.center
        dx = target.x - box.center.x
        dy = target.y - box.center.y
        placements = {
            d: Placement(pos.translated(dx, dy), o)
            for d, (pos, o) in arrangement.items()
        }
        floorplan = Floorplan(self.design, placements)
        orientations = {d: o for d, (pos, o) in arrangement.items()}
        return GreedyPackingResult(
            floorplan, orientations, self._cost(arrangement)
        )


def predetermine_orientations(design: Design) -> GreedyPackingResult:
    """Run the greedy packer; convenience entry used by EFA_dop."""
    return GreedyPacker(design).run()
