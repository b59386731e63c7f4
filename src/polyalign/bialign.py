"""Optimal monotonic bilingual alignment restricted to 1-1 links and deletions.

The restriction collapses the alignment problem to an O(nm) edit-distance
style dynamic program over embedding costs: moves are substitute (1-1 at the
cell cost), skip-source (1-0) and skip-target (0-1), both at a flat penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import PolyalignError


class AlignmentError(PolyalignError):
    pass


@dataclass(frozen=True)
class AlignConfig:
    skip_cost: float = 0.15

    def __post_init__(self):
        if not (math.isfinite(self.skip_cost) and self.skip_cost >= 0):
            raise AlignmentError(f"skip_cost must be a finite number >= 0, got {self.skip_cost!r}")


@dataclass(frozen=True)
class Link:
    src: int | None
    tgt: int | None
    cost: float

    def __post_init__(self):
        if self.src is None and self.tgt is None:
            raise AlignmentError("link must touch at least one side")

    @property
    def is_substitution(self) -> bool:
        return self.src is not None and self.tgt is not None


@dataclass
class BilingualAlignment:
    src_chapter: str
    tgt_chapter: str
    src_ids: tuple[str, ...]
    tgt_ids: tuple[str, ...]
    links: list[Link] = field(default_factory=list)
    total_cost: float = 0.0


def _default_ids(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}:{i}" for i in range(n))


def cost_matrix(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Pairwise dissimilarity 1 - cosine between the rows of the two chapters'
    unit-norm embedding matrices."""
    return 1.0 - np.clip(src.astype(np.float64) @ tgt.astype(np.float64).T, -1.0, 1.0)


def _wavefront(costs: np.ndarray, lam: float) -> np.ndarray:
    """DP table in skewed layout: ``table[i + j, i]`` is the cheapest cover of
    the first ``i`` source and ``j`` target segments.

    Cell ``(i, j)`` depends only on anti-diagonals ``i + j - 1`` and
    ``i + j - 2``, so each anti-diagonal is one contiguous row computed with
    whole-array operations. Each cell is ``min(sub, up, left)`` over the same
    float64 operands, added and compared as the scalar recurrence does, so
    the table is bit-identical to it.
    """
    n, m = costs.shape
    table = np.empty((n + m + 1, n + 1), dtype=np.float64)
    flat = np.ascontiguousarray(costs).ravel()
    step = max(m - 1, 1)  # with m == 1 every anti-diagonal holds one cell
    table[0, 0] = 0.0
    for d in range(1, n + m + 1):
        # Boundaries dp[0, d] and dp[d, 0] as running sums, as the scalar
        # recurrence builds them; d * lam can round differently.
        if d <= m:
            table[d, 0] = table[d - 1, 0] + lam
        if d <= n:
            table[d, d] = table[d - 1, d - 1] + lam
        lo, hi = max(1, d - m), min(n, d - 1)
        if lo > hi:
            continue
        # costs[i - 1, d - i - 1] for i in lo..hi, at flat offset (i - 1) * m + d - i - 1.
        start = (lo - 1) * m + d - lo - 1
        diag = flat[start:start + (hi - lo) * step + 1:step]
        cells = table[d, lo:hi + 1]
        np.add(table[d - 2, lo - 1:hi], diag, out=cells)
        np.minimum(cells, table[d - 1, lo - 1:hi] + lam, out=cells)
        np.minimum(cells, table[d - 1, lo:hi + 1] + lam, out=cells)
    return table


def _backtrace(table: np.ndarray, costs: np.ndarray, lam: float) -> list[tuple[int | None, int | None, float]]:
    moves: list[tuple[int | None, int | None, float]] = []
    i, j = costs.shape
    while i > 0 or j > 0:
        # Exact equality holds: each cell was computed from these expressions.
        d = i + j
        if i > 0 and j > 0 and table[d, i] == table[d - 2, i - 1] + costs[i - 1, j - 1]:
            moves.append((i - 1, j - 1, float(costs[i - 1, j - 1])))
            i, j = i - 1, j - 1
        elif i > 0 and table[d, i] == table[d - 1, i - 1] + lam:
            moves.append((i - 1, None, lam))
            i -= 1
        else:
            moves.append((None, j - 1, lam))
            j -= 1
    moves.reverse()
    return moves


def align_chapter(
    costs: np.ndarray,
    config: AlignConfig | None = None,
    src_chapter: str = "src",
    tgt_chapter: str = "tgt",
    src_ids: tuple[str, ...] | None = None,
    tgt_ids: tuple[str, ...] | None = None,
) -> BilingualAlignment:
    """Minimum-cost monotone full cover of the two segment sequences.

    Ties resolve deterministically: substitute, then skip-source, then
    skip-target. Links come out ordered by (src, tgt).
    """
    if config is None:
        config = AlignConfig()
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size and not np.all(np.isfinite(costs)):
        raise AlignmentError("cost matrix contains non-finite entries")
    n, m = costs.shape if costs.ndim == 2 else (len(costs), 0)
    if costs.ndim != 2:
        costs = costs.reshape(n, m)
    lam = config.skip_cost

    links = [Link(src=s, tgt=t, cost=c) for s, t, c in _backtrace(_wavefront(costs, lam), costs, lam)]
    total = 0.0
    for link in links:
        total += link.cost
    return BilingualAlignment(
        src_chapter=src_chapter,
        tgt_chapter=tgt_chapter,
        src_ids=src_ids if src_ids is not None else _default_ids(src_chapter, n),
        tgt_ids=tgt_ids if tgt_ids is not None else _default_ids(tgt_chapter, m),
        links=links,
        total_cost=total,
    )
