"""Alignment-quality evaluation.

Strict precision/recall/F1 against gold rows (a hypothesis link counts only
on exact match of its full source/target sets, deletions excluded).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

from .model import MultiParallelRow, PolyalignError, Segment, read_idiom_table

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, correct: int, n_hyp: int, n_gold: int) -> "PRF":
        if n_hyp == 0 or n_gold == 0:
            logger.warning(
                "empty denominator in strict PRF (hyp=%d, gold=%d)", n_hyp, n_gold
            )
        p = correct / n_hyp if n_hyp else 0.0
        r = correct / n_gold if n_gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(precision=p, recall=r, f1=f1)


# A gold row: idiom -> ordered tuple of segment ids (empty = deletion).
@dataclass
class GoldAlignment:
    idioms: list[str]
    rows: list[dict[str, tuple[str, ...]]]


GoldLink = tuple[tuple[str, ...], tuple[str, ...]]


def _as_links(pairs) -> set[GoldLink]:
    """Normalize an iterable of (source, target) link pairs, hypothesis or gold.

    A side is one id, None, or a collection of ids. Each element becomes
    (source id tuple, target id tuple); null-sided entries (deletions) are
    dropped.
    """
    links: set[GoldLink] = set()
    for a, b in pairs:
        a_set = tuple(a) if isinstance(a, (tuple, list, set, frozenset)) else (a,)
        b_set = tuple(b) if isinstance(b, (tuple, list, set, frozenset)) else (b,)
        a_set = tuple(sorted(x for x in a_set if x is not None))
        b_set = tuple(sorted(x for x in b_set if x is not None))
        if a_set and b_set:
            links.add((a_set, b_set))
    return links


def strict_prf(hypothesis, gold) -> PRF:
    """Strict precision/recall/F1 of hypothesis links against gold links.

    A hypothesis link is correct iff its (source-set, target-set) exactly
    equals a gold link's sets. Deletions count in neither numerator nor
    denominator.
    """
    hyp = _as_links(hypothesis)
    gld = _as_links(gold)
    correct = len(hyp & gld)
    return PRF.from_counts(correct, len(hyp), len(gld))


def multi_prf(
    hypothesis: list[MultiParallelRow], gold: GoldAlignment
) -> tuple[dict[tuple[str, str], PRF], PRF]:
    """Per-idiom-pair strict PRF plus the unweighted macro average. Each pair's
    sides go to ``strict_prf`` as they are: a hypothesis cell as its segment id
    or None, a gold cell as its id tuple."""
    table: dict[tuple[str, str], PRF] = {}
    for idiom_a, idiom_b in combinations(sorted(gold.idioms), 2):
        cells = [(row.cells.get(idiom_a), row.cells.get(idiom_b)) for row in hypothesis]
        table[(idiom_a, idiom_b)] = strict_prf(
            [(a and a.id, b and b.id) for a, b in cells],
            [(row.get(idiom_a, ()), row.get(idiom_b, ())) for row in gold.rows],
        )
    if table:
        scores = list(table.values())
        macro = PRF(
            precision=sum(s.precision for s in scores) / len(scores),
            recall=sum(s.recall for s in scores) / len(scores),
            f1=sum(s.f1 for s in scores) / len(scores),
        )
    else:
        macro = PRF(0.0, 0.0, 0.0)
    return table, macro


def load_gold(path, seg_index: dict[str, Segment]) -> GoldAlignment:
    """Parse the gold TSV: an idiom-column table (``read_idiom_table``) of two
    or more idioms of the corpus ``seg_index`` indexes, whose cells are
    ';'-separated ids of its segments, each under its own idiom. A file that
    fails a check is a PolyalignError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            idioms, cell_rows = read_idiom_table(fh.read(), "gold", "gold row", f"{path}: ")
    except ValueError as exc:  # not UTF-8, or a header cell that is no idiom code
        raise PolyalignError(f"{path}: not a gold file ({exc})") from exc
    if len(idioms) < 2:
        raise PolyalignError(f"{path}: the header must name two or more idioms")
    corpus_idioms = {seg.idiom for seg in seg_index.values()}
    unknown = [idiom for idiom in idioms if idiom not in corpus_idioms]
    if unknown:
        raise PolyalignError(f"{path}: idiom(s) {', '.join(unknown)} not in the corpus")
    rows: list[dict[str, tuple[str, ...]]] = []
    seen: dict[str, int] = {}
    for row_no, cells in enumerate(cell_rows, start=1):
        row: dict[str, tuple[str, ...]] = {}
        for idiom, cell in zip(idioms, cells):
            ids = tuple(s.strip() for s in cell.split(";") if s.strip())
            row[idiom] = ids
            for sid in ids:
                if sid not in seg_index or seg_index[sid].idiom != idiom:
                    raise PolyalignError(f"{path}: gold row {row_no} names {sid!r}, no {idiom} segment of the corpus")
                if sid in seen:
                    raise PolyalignError(f"{path}: segment {sid!r} appears in gold rows {seen[sid]} and {row_no}")
                seen[sid] = row_no
        if not any(row.values()):
            raise PolyalignError(f"{path}: gold row {row_no} has no non-empty cell")
        rows.append(row)
    return GoldAlignment(idioms=idioms, rows=rows)
