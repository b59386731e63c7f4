"""Optimal monotonic bilingual alignment restricted to 1-1 links and deletions.

The restriction collapses the alignment problem to an O(nm) edit-distance
style dynamic program over embedding costs: moves are substitute (1-1 at the
cell cost), skip-source (1-0) and skip-target (0-1), both at a flat penalty.
``dp_tables`` fills the tables of a batch of pairs in one pass over their
anti-diagonals; ``dp_batches`` cuts a list of pair shapes, which may come from
many chapter groups, into such batches. ``align_chapter`` backtraces one pair
from its slice and returns the ``(src, tgt, cost)`` moves of the cover. The
caller turns them into its record: ``pipeline`` writes each pair's
``alignments.jsonl`` line, which multialign reads back as index pairs
(``multialign.Link``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PolyalignError


@dataclass(frozen=True)
class AlignConfig:
    skip_cost: float = 0.15

    def __post_init__(self):
        if type(self.skip_cost) not in (int, float) or not (math.isfinite(self.skip_cost) and self.skip_cost >= 0):
            raise PolyalignError(f"skip_cost must be a finite number >= 0, got {self.skip_cost!r}")


def cost_matrix(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Pairwise dissimilarity 1 - cosine between the rows of the two chapters'
    unit-norm embedding matrices."""
    return 1.0 - np.clip(src.astype(np.float64) @ tgt.astype(np.float64).T, -1.0, 1.0)


# A batch of DP tables holds at most this many padded cells, k * N * M. A
# batch may span chapter groups: the 40 paper-sized groups of the benchmark
# (10 pairs of about 33 by 33 each) take 7 passes, a group of 100 by 100
# chapters takes two, a 330 by 330 pair runs alone, and a long group never
# holds all its tables at once.
BATCH_CELLS = 1 << 16


def dp_batches(shapes: list[tuple[int, int]]) -> list[list[int]]:
    """Consecutive runs of indices into ``shapes``, each run one batch for
    ``dp_tables``: a run grows while its ``k * N * M`` padded cells stay
    within ``BATCH_CELLS``. A pair larger than that runs alone."""
    batches: list[list[int]] = []
    n_max = m_max = 0
    for idx, (n, m) in enumerate(shapes):
        n_max, m_max = max(n_max, n), max(m_max, m)
        if batches and (len(batches[-1]) + 1) * n_max * m_max <= BATCH_CELLS:
            batches[-1].append(idx)
        else:
            batches.append([idx])
            n_max, m_max = n, m
    return batches


def dp_tables(costs: list[np.ndarray], lam: float) -> np.ndarray:
    """DP tables of a batch of cost matrices in one skewed array:
    ``table[k, i + j, i]`` is the cheapest cover of the first ``i`` source
    and ``j`` target segments of pair ``k``.

    Cell ``(i, j)`` depends only on anti-diagonals ``i + j - 1`` and
    ``i + j - 2``, so each anti-diagonal of every pair is one contiguous row,
    and one whole-array operation covers it for all pairs at once. The pairs
    are padded to the batch's largest ``N`` and ``M``: a cell reads only
    ``(i-1, j-1)``, ``(i-1, j)`` and ``(i, j-1)``, so the cells inside a pair's
    own ``n`` by ``m`` rectangle never read padding, and the skewed index does
    not depend on ``M``. Each cell is ``min(sub, min(up, left) + lam)``;
    rounding ``x + lam`` is monotone in ``x``, so that equals the scalar
    recurrence's ``min(sub, up + lam, left + lam)`` bit for bit.
    """
    k = len(costs)
    n_max = max((c.shape[0] for c in costs), default=0)
    m_max = max((c.shape[1] for c in costs), default=0)
    padded = np.zeros((k, n_max, m_max), dtype=np.float64)
    for idx, c in enumerate(costs):
        padded[idx, :c.shape[0], :c.shape[1]] = c
    flat = padded.reshape(k, n_max * m_max)
    table = np.empty((k, n_max + m_max + 1, n_max + 1), dtype=np.float64)
    # Boundaries dp[0, d] and dp[d, 0] as running sums, as the scalar
    # recurrence builds them; accumulate adds in sequence, while d * lam can
    # round differently.
    edge = np.add.accumulate(np.r_[0.0, np.full(max(n_max, m_max), lam)])
    table[:, :m_max + 1, 0] = edge[:m_max + 1]
    diag_idx = np.arange(n_max + 1)
    table[:, diag_idx, diag_idx] = edge[:n_max + 1]
    step = max(m_max - 1, 1)  # with M == 1 every anti-diagonal holds one cell
    for d in range(2, n_max + m_max + 1):
        lo, hi = max(1, d - m_max), min(n_max, d - 1)
        if lo > hi:
            continue
        # costs[:, i - 1, d - i - 1] for i in lo..hi, at flat offset (i - 1) * M + d - i - 1.
        start = (lo - 1) * m_max + d - lo - 1
        diag = flat[:, start:start + (hi - lo) * step + 1:step]
        cells = table[:, d, lo:hi + 1]
        np.add(table[:, d - 2, lo - 1:hi], diag, out=cells)
        np.minimum(cells, np.minimum(table[:, d - 1, lo - 1:hi], table[:, d - 1, lo:hi + 1]) + lam, out=cells)
    return table


def align_chapter(costs: np.ndarray, config: AlignConfig = AlignConfig(), *,
                  table: np.ndarray) -> list[tuple[int | None, int | None, float]]:
    """Minimum-cost monotone full cover of the two segment sequences, as its
    ``(src, tgt, cost)`` moves ordered by (src, tgt): a substitution at its
    cell cost, or a deletion, None on the other side, at the skip cost.
    ``table`` is this pair's slice of a ``dp_tables`` batch that holds ``costs``.

    Ties resolve deterministically: substitute, then skip-source, then
    skip-target.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise PolyalignError(f"cost matrix must be 2-D, got shape {costs.shape}")
    if costs.size and not np.all(np.isfinite(costs)):
        raise PolyalignError("cost matrix contains non-finite entries")
    i, j = costs.shape
    lam = config.skip_cost
    if table.shape[0] < i + j + 1 or table.shape[1] < i + 1:
        raise PolyalignError(f"DP table of shape {table.shape} is too small for {i} by {j} costs")

    # Memoryviews index to Python floats, the same doubles as numpy's scalars
    # but cheaper to read and add one cell at a time.
    cell, cost = memoryview(table), memoryview(costs)
    moves: list[tuple[int | None, int | None, float]] = []
    while i > 0 or j > 0:
        # Exact equality holds: each cell was computed from these expressions.
        d = i + j
        if i > 0 and j > 0 and cell[d, i] == cell[d - 2, i - 1] + cost[i - 1, j - 1]:
            moves.append((i - 1, j - 1, cost[i - 1, j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and cell[d, i] == cell[d - 1, i - 1] + lam:
            moves.append((i - 1, None, lam))
            i -= 1
        else:
            moves.append((None, j - 1, lam))
            j -= 1
    moves.reverse()
    return moves
