"""Batched sequence-pair realization: orientation sweeps and γ− blocks.

EFA's inner loop enumerates, per sequence pair, every combination of the
four die orientations — ``4^n`` candidates that share one constraint-graph
structure and differ only in per-die dimensions.  Re-running the scalar
longest-path packing (and one ``hpwl`` call) per combination is what made
``estWL`` the repo's hottest path; this module instead realizes the whole
sweep vectorially:

* :func:`pack_indices` — the scalar longest-path packing over flat index
  lists (moved here from ``EnumerativeFloorplanner._pack`` so the SA
  floorplanners can share it without importing the enumerator);
* :class:`OrientationSweep` — packs *all* ``4^n`` orientation
  combinations of a sequence pair in batched longest-path passes
  (``O(n^2)`` numpy operations over chunk-length arrays instead of
  ``4^n`` Python-level packings), one product-order chunk of at most
  ``4^SWEEP_SUFFIX`` combinations at a time;
* :class:`MinusBlocks` — the fixed-orientation (EFA_dop) counterpart:
  splits the γ− permutations into lexicographic blocks of up to ``6!``
  rows sharing a prefix and packs a whole block against one γ+ in one
  pass (:func:`pack_block`).

**Bit-identity.**  The batched passes apply exactly the serial packing's
float64 operations — the same additions and the same chain of ``max``
updates in the same order, just broadcast over the combination axis — so
every coordinate, outline extent and downstream HPWL it produces is
bit-identical to the scalar path.  :func:`pack_block` reduces each
coordinate's candidate sums with one ``max`` instead of a chain; ``max``
is exact, so the order does not matter.  The tests and
``benchmarks/bench_batch_eval.py`` assert this with ``==``, not approx.

**Memory contract.**  An ``OrientationSweep`` holds a handful of
``(n, 4^k)`` float64 tables (the per-combination dims and the packing
buffers), ``k = min(n, SWEEP_SUFFIX)``: about 4 MB per table at
``n = 8`` and never more than ``n * 4^8`` entries each at any die count.
A γ− block pack holds a few ``(n, 6!)`` float64 tables, about 46 KB
each at ``n = 8``.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..seqpair import permutation_at_rank

# Suffix length of an orientation-sweep chunk: a chunk holds the 4^k
# combinations that share the codes of their first n - k dies,
# k = min(n, SWEEP_SUFFIX).  Every die count up to 8 sweeps in one chunk.
SWEEP_SUFFIX = 8

# Suffix length of a γ− block: a block holds the k! permutations that
# share their first n - k entries, k = min(n, BLOCK_SUFFIX).  6! rows pack
# as fast per row as 7! and keep the working set near 300 KB, inside the
# memory the flow's later stages reuse.
BLOCK_SUFFIX = 6

__all__ = [
    "BLOCK_SUFFIX",
    "MinusBlocks",
    "OrientationSweep",
    "SWEEP_SUFFIX",
    "die_major",
    "pack_block",
    "pack_indices",
]


def pack_indices(
    minus: Sequence[int],
    rank_plus: Sequence[int],
    dims: Sequence[Tuple[float, float]],
) -> Tuple[List[float], List[float], float, float]:
    """Longest-path sequence-pair packing over die indices.

    ``minus`` is gamma_minus as a sequence of die indices (a valid
    topological order for both constraint graphs); ``rank_plus[i]`` is die
    ``i``'s rank in gamma_plus; ``dims[i]`` its (already oriented, already
    spacing-swollen) width/height.  Returns per-die x/y plus the bounding
    width/height.  Semantics are identical to
    :func:`repro.seqpair.pack_sequence_pair`, which the tests cross-check.
    """
    n = len(minus)
    xs = [0.0] * n
    ys = [0.0] * n
    width = 0.0
    height = 0.0
    for pos in range(n):
        b = minus[pos]
        rb = rank_plus[b]
        x = 0.0
        y = 0.0
        for prev in range(pos):
            a = minus[prev]
            if rank_plus[a] < rb:
                xa = xs[a] + dims[a][0]
                if xa > x:
                    x = xa
            else:
                ya = ys[a] + dims[a][1]
                if ya > y:
                    y = ya
        xs[b] = x
        ys[b] = y
        xe = x + dims[b][0]
        ye = y + dims[b][1]
        if xe > width:
            width = xe
        if ye > height:
            height = ye
    return xs, ys, width, height


class OrientationSweep:
    """All ``4^n`` orientation variants of a sequence pair, in chunks.

    ``dims_by_code[i][c]`` is die ``i``'s swollen ``(width, height)`` under
    orientation code ``c`` (the :func:`repro.floorplan.orientation_code`
    numbering).  The combination axis is ordered exactly like
    ``itertools.product(range(4), repeat=n)`` and split into
    :attr:`chunks` runs of :attr:`rows` combinations: chunk ``c`` fixes
    the codes of the first ``n - k`` dies to the base-4 digits of ``c``
    and varies the last ``k = min(n, SWEEP_SUFFIX)`` from one suffix
    table, so its row ``r`` is global combination ``c * rows + r`` — the
    ``combo_index`` tie-break key.
    """

    def __init__(self, dims_by_code: Sequence[Sequence[Tuple[float, float]]]):
        n = len(dims_by_code)
        k = min(n, SWEEP_SUFFIX)
        self.n = n
        self._prefix = n - k
        self.rows = 4 ** k
        self.chunks = 4 ** (n - k)
        # Per-die swollen dims by orientation code, (n, 4).
        self._w4 = np.asarray([[d[0] for d in per] for per in dims_by_code])
        self._h4 = np.asarray([[d[1] for d in per] for per in dims_by_code])
        # (4^k, n) codes of the current chunk: the suffix columns in
        # itertools.product order (np.indices in C order matches exactly),
        # the prefix columns filled per chunk.
        self.codes = np.empty((self.rows, n), dtype=np.int64)
        self.codes[:, n - k :] = np.indices((4,) * k).reshape(k, -1).T
        # Per-die, per-combination swollen dims, stored (n, 4^k) so the
        # packing loop slices contiguous rows.
        self._w = np.empty((n, self.rows))
        self._h = np.empty((n, self.rows))
        for i in range(n - k, n):
            self._w[i] = self._w4[i][self.codes[:, i]]
            self._h[i] = self._h4[i][self.codes[:, i]]
        self._chunk = -1
        self._load(0)
        # Packing buffers, reused across sequence pairs (one sweep per
        # planner instance; never shared across threads/processes).
        self._xs = np.empty((n, self.rows))
        self._ys = np.empty((n, self.rows))
        self._wout = np.empty(self.rows)
        self._hout = np.empty(self.rows)
        self._tmp = np.empty(self.rows)

    def combo_codes(self, combo: int) -> Tuple[int, ...]:
        """Orientation codes of global combination ``combo``: its ``n``
        base-4 digits, first die most significant."""
        n = self.n
        return tuple((combo >> 2 * (n - 1 - i)) & 3 for i in range(n))

    def _load(self, chunk: int) -> None:
        """Fill the prefix dies' codes and dims for ``chunk``."""
        if chunk == self._chunk:
            return
        prefix = self.combo_codes(chunk * self.rows)[: self._prefix]
        for i, code in enumerate(prefix):
            self.codes[:, i] = code
            self._w[i] = self._w4[i, code]
            self._h[i] = self._h4[i, code]
        self._chunk = chunk

    def pack_all(
        self, minus: Sequence[int], rank_plus: Sequence[int], chunk: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pack one chunk of a sequence pair's orientation combinations.

        Returns ``(xs, ys, width, height)`` where ``xs``/``ys`` are
        ``(n, rows)`` packing origins (die axis first) and ``width`` /
        ``height`` are length-``rows`` outline extents; :attr:`codes`
        then holds the chunk's ``(rows, n)`` code matrix.  The returned
        arrays are internal buffers overwritten by the next call — consume
        (or copy) them before packing again.
        """
        self._load(chunk)
        n = self.n
        xs, ys = self._xs, self._ys
        width, height, tmp = self._wout, self._hout, self._tmp
        width[:] = 0.0
        height[:] = 0.0
        for pos in range(n):
            b = minus[pos]
            rb = rank_plus[b]
            x = xs[b]
            y = ys[b]
            x[:] = 0.0
            y[:] = 0.0
            for prev in range(pos):
                a = minus[prev]
                if rank_plus[a] < rb:
                    np.add(xs[a], self._w[a], out=tmp)
                    np.maximum(x, tmp, out=x)
                else:
                    np.add(ys[a], self._h[a], out=tmp)
                    np.maximum(y, tmp, out=y)
            np.add(x, self._w[b], out=tmp)
            np.maximum(width, tmp, out=width)
            np.add(y, self._h[b], out=tmp)
            np.maximum(height, tmp, out=height)
        return xs, ys, width, height


def pack_block(
    minus: np.ndarray,
    rank_plus: np.ndarray,
    widths: np.ndarray,
    heights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pack_indices` for ``R`` γ− permutations against one γ+.

    ``minus`` is an ``(R, n)`` array of die indices (one γ− per row),
    ``rank_plus`` the γ+ rank of each die and ``widths`` / ``heights``
    the per-die swollen dims.  Returns position-major ``xs`` / ``ys``
    (``xs[p, r]`` is the origin of die ``minus[r, p]``) and the
    length-``R`` outline extents.  Each coordinate is the max of ``0.0``
    and the same ``origin + dim`` sums :func:`pack_indices` compares, so
    every row is bit-identical to it.
    """
    rows, n = minus.shape
    dies = np.ascontiguousarray(minus.T)
    rank = rank_plus[dies]
    xs = np.zeros((n, rows))
    ys = np.zeros((n, rows))
    x_end = widths[dies]
    y_end = heights[dies]
    for pos in range(1, n):
        # Earlier γ− entries sit left of this die when they also come
        # first in γ+, below it otherwise.
        left = rank[:pos] < rank[pos]
        np.max(np.where(left, x_end[:pos], 0.0), axis=0, out=xs[pos])
        np.max(np.where(left, 0.0, y_end[:pos]), axis=0, out=ys[pos])
        x_end[pos] += xs[pos]
        y_end[pos] += ys[pos]
    return xs, ys, x_end.max(axis=0), y_end.max(axis=0)


class MinusBlocks:
    """The γ− permutations of ``range(n)`` in lexicographic blocks.

    Block ``b`` holds ranks ``[b * k!, (b + 1) * k!)``: every permutation
    sharing one ``(n - k)``-prefix, its suffixes in lexicographic order,
    ``k = min(n, BLOCK_SUFFIX)``.  Rows are built from one ``(k!, k)``
    suffix table, so a block costs one gather.
    """

    def __init__(self, n: int):
        self.n = n
        self.k = min(n, BLOCK_SUFFIX)
        self.size = math.factorial(self.k)
        # Die indices (and γ+ ranks) fit the smallest integer type, which
        # keeps a block's index tables at n * k! bytes.
        self.dtype = np.min_scalar_type(n)
        self._suffix = np.asarray(
            list(permutations(range(self.k))), dtype=self.dtype
        ).reshape(self.size, self.k)

    def blocks(self, lo: int, hi: int) -> Iterator[Tuple[int, np.ndarray]]:
        """``(first_rank, minus)`` for the blocks covering ranks
        ``[lo, hi)``, clipped to it; ``minus`` is ``(R, n)``."""
        n, k, size = self.n, self.k, self.size
        if lo >= hi:
            return
        for b in range(lo // size, -(-hi // size)):
            start = b * size
            head = permutation_at_rank(n, start)
            # The block's first permutation: prefix + ascending rest.
            rest = np.asarray(head[n - k :], dtype=self.dtype)
            r_lo = max(lo, start) - start
            r_hi = min(hi, start + size) - start
            minus = np.empty((r_hi - r_lo, n), dtype=self.dtype)
            minus[:, : n - k] = head[: n - k]
            minus[:, n - k :] = rest[self._suffix[r_lo:r_hi]]
            yield start + r_lo, minus


def die_major(minus: np.ndarray, pos_major: np.ndarray) -> np.ndarray:
    """``(R, n)`` per-die values from :func:`pack_block`'s position-major
    ``(n, R)`` output for the same ``minus`` rows."""
    out = np.empty(minus.shape)
    np.put_along_axis(out, minus, pos_major.T, axis=1)
    return out
