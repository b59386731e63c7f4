"""Lift pairwise alignments to multi-parallel rows.

Per chapter group, the stored pairwise alignments, each a ``BilingualAlignment``
of ``Link`` index pairs, become partner maps once: for each ordered idiom pair
``(x, y)``, every ``x`` segment mapped to its ``y`` partner or None. The pivot
join, the strict intersection of the pivot link sets (consensus) and the
single-pivot rows are dict and set operations on those maps; connected
components of the consensus links become rows, and the length-ratio noise
filter thins them. Consensus trades recall for precision by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .model import ChapterGroup, MultiParallelRow, PolyalignError, Segment

Pair = tuple[str | None, str | None]
Partners = dict[tuple[str, str], dict[str, str | None]]


class Link(NamedTuple):
    """A stored link: a source and a target index, None on a deleted side."""

    src: int | None
    tgt: int | None


@dataclass
class BilingualAlignment:
    """A stored alignment as multialign reads it: links index into the ids."""

    src_ids: tuple[str, ...]
    tgt_ids: tuple[str, ...]
    links: list[Link]


@dataclass(frozen=True)
class PairLinkSet:
    pairs: frozenset[Pair]

    def full_pairs(self) -> frozenset[Pair]:
        return frozenset(p for p in self.pairs if p[0] is not None and p[1] is not None)


@dataclass(frozen=True)
class LengthFilterConfig:
    upper_ratio: float = 1.5
    lower_ratio: float = 0.67
    unit: str = "tokens"  # tokens | characters

    def __post_init__(self):
        for name, ratio in (("upper_ratio", self.upper_ratio), ("lower_ratio", self.lower_ratio)):
            if type(ratio) not in (int, float):
                raise PolyalignError(f"{name} must be a number, got {ratio!r}")
        if not self.upper_ratio > 1:
            raise PolyalignError(f"upper_ratio must be greater than 1, got {self.upper_ratio!r}")
        if not 0 < self.lower_ratio < 1:
            raise PolyalignError(f"lower_ratio must be between 0 and 1, got {self.lower_ratio!r}")
        if self.unit not in ("tokens", "characters"):
            raise PolyalignError(f"unknown length unit {self.unit!r}")


def partner_maps(pair_alignments: dict[tuple[str, str], BilingualAlignment]) -> Partners:
    """Both directions of every alignment: ``(x, y)`` maps each ``x`` segment
    to its ``y`` partner, or to None where the alignment deleted it."""
    partners: Partners = {}
    for (i, j), alignment in pair_alignments.items():
        forward = partners[(i, j)] = {}
        backward = partners[(j, i)] = {}
        src_ids, tgt_ids = alignment.src_ids, alignment.tgt_ids
        for s, t in alignment.links:
            src = src_ids[s] if s is not None else None
            tgt = tgt_ids[t] if t is not None else None
            if src is not None:
                forward[src] = tgt
            if tgt is not None:
                backward[tgt] = src
    return partners


def pivot_join(i_to_p: dict[str, str | None], p_to_j: dict[str, str | None],
               j_to_p: dict[str, str | None]) -> PairLinkSet:
    """Full outer join of idioms ``i`` and ``j`` through a pivot's partner maps.

    ``i`` and ``j`` segments matched to one pivot segment pair up; everything
    else comes out null-paired. Pivot segments never appear in the result.
    """
    pairs = {(a, p_to_j.get(p)) for a, p in i_to_p.items()}
    matched = {b for _, b in pairs}
    pairs |= {(None, b) for b in j_to_p if b not in matched}
    return PairLinkSet(frozenset(pairs))


def pivot_multialign(
    pivot: str,
    idioms: list[str],
    partners: Partners,
    seg_index: dict[str, Segment],
    provenance: str = "",
) -> list[MultiParallelRow]:
    """One row per pivot segment, cells null where an idiom deleted it; a
    segment unmatched to the pivot is in no row, as one cell aligns nothing."""
    others = [k for k in idioms if k != pivot]
    pivot_ids = partners[(pivot, others[0])] if others else {}
    rows: list[MultiParallelRow] = []
    for p_seg in pivot_ids:
        cells: dict[str, Segment | None] = {pivot: seg_index[p_seg]}
        for k in others:
            other = partners[(pivot, k)][p_seg]
            cells[k] = seg_index[other] if other is not None else None
        rows.append(MultiParallelRow(cells=cells, provenance=provenance))
    return rows


def consensus(pair_sets: dict[str, PairLinkSet]) -> PairLinkSet:
    """Strict intersection of the pivot link sets for one idiom pair.

    Only full (non-null, non-null) pairs participate.
    """
    return PairLinkSet(frozenset.intersection(*(s.full_pairs() for s in pair_sets.values())))


def assemble_rows(
    consensus_sets: list[PairLinkSet],
    group: ChapterGroup,
    seg_index: dict[str, Segment],
    dropped: list[list[str]] | None = None,
) -> list[MultiParallelRow]:
    """Connected components of the consensus pairs become corpus rows.

    Components holding two segments of the same idiom are contradictory and
    are dropped whole (precision over recall); ``dropped`` receives each one's
    sorted segment ids.
    """
    adj: dict[str, set[str]] = {}
    for s in consensus_sets:
        for a, b in s.full_pairs():
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

    seen: set[str] = set()
    rows: list[MultiParallelRow] = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, component = [start], []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        segments = [seg_index[sid] for sid in component]
        by_idiom: dict[str, list[Segment]] = {}
        for seg in segments:
            by_idiom.setdefault(seg.idiom, []).append(seg)
        if any(len(v) > 1 for v in by_idiom.values()):
            if dropped is not None:
                dropped.append(sorted(component))
            continue
        cells: dict[str, Segment | None] = {idiom: None for idiom in group.idioms()}
        for idiom, segs in by_idiom.items():
            cells[idiom] = segs[0]
        rows.append(MultiParallelRow(cells=cells, provenance=group.group_id))

    rows.sort(key=lambda r: min((s.position, s.id) for s in r.non_null().values()))
    return rows


def length_filter(row: MultiParallelRow, config: LengthFilterConfig = LengthFilterConfig()) -> MultiParallelRow:
    """Null out cells whose length strays beyond the ratio bounds.

    The average is computed once over the original row; removal needs a
    strict inequality, so cells exactly at a bound are kept. Removed cells
    are recorded in the row flags.
    """
    present = row.non_null()
    if len(present) < 2:
        return row
    avg = sum(seg.length(config.unit) for seg in present.values()) / len(present)
    cells: dict[str, Segment | None] = dict(row.cells)
    flags = set(row.flags)
    for idiom, seg in present.items():
        ln = seg.length(config.unit)
        if ln > config.upper_ratio * avg or ln < config.lower_ratio * avg:
            cells[idiom] = None
            flags.add(f"noise-filtered:{idiom}")
    return MultiParallelRow(cells=cells, provenance=row.provenance, flags=frozenset(flags), row_id=row.row_id)


def align_group_consensus(
    group: ChapterGroup,
    pair_alignments: dict[tuple[str, str], BilingualAlignment],
    seg_index: dict[str, Segment],
    dropped: list[list[str]] | None = None,
) -> list[MultiParallelRow]:
    """Consensus rows for one chapter group from its pairwise alignments.

    ``pair_alignments`` holds one alignment per idiom pair of the group, keyed
    by its ``(src idiom, tgt idiom)``. For each pair ``(i, j)`` the direct links
    stand in for pivots ``i`` and ``j``, and every other idiom ``p`` joins
    ``i`` to ``j`` through its partner maps.
    """
    idioms = group.idioms()
    partners = partner_maps(pair_alignments)
    consensus_sets: list[PairLinkSet] = []
    for i, j in combinations(idioms, 2):
        direct = PairLinkSet(frozenset(partners[(i, j)].items()))
        per_pivot = {
            p: direct if p in (i, j) else pivot_join(partners[(i, p)], partners[(p, j)], partners[(j, p)])
            for p in idioms
        }
        consensus_sets.append(consensus(per_pivot))
    return assemble_rows(consensus_sets, group, seg_index, dropped)
