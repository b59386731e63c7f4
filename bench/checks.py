"""Checks of a build's outputs against computations made apart from the program.

Each check recomputes what it compares from the inputs or from the method's
definition, never from a stored copy of earlier outputs:

- alignments: every record is a monotone full cover of its two chapters,
  each link costs ``1 - cos`` of the segment vectors (or the skip cost),
  ``total_cost`` is the sum of the link costs, and it equals the optimum of
  the row-wise DP in :func:`optimal_cost`, which shares no code with
  ``polyalign.bialign``;
- rows: every row has two or more cells and no segment sits in two rows;
- quality: strict PRF from the set-comprehension scorer in
  :func:`macro_prf` equals ``polyalign.evaluate.multi_prf`` and stays above
  ``PRF_FLOOR``;
- stats: the totals in ``stats.json`` equal counts made from the raw input
  documents and from ``rows.jsonl``.
"""

from __future__ import annotations

import json
import os
import re
import unicodedata
from itertools import combinations

import numpy as np

TOL = 1e-9

# Floors the synthetic fixture must clear on every seed (README, "Checks").
PRF_FLOOR = {"precision": 0.95, "recall": 0.70, "f1": 0.80}


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def optimal_cost(costs: np.ndarray, skip: float) -> float:
    """Cheapest monotone cover by substitutions and skips, one row at a time.

    With ``t[k] = min(D[i-1,k-1] + c[i-1,k-1], D[i-1,k] + skip)`` the left
    moves along row ``i`` make ``D[i,j] = min_k<=j (t[k] + (j-k) * skip)``,
    a running minimum.
    """
    n, m = costs.shape
    ramp = skip * np.arange(m + 1)
    prev = ramp.copy()
    for i in range(n):
        t = np.empty(m + 1)
        t[0] = prev[0] + skip
        t[1:] = np.minimum(prev[:-1] + costs[i], prev[1:] + skip)
        prev = ramp + np.minimum.accumulate(t - ramp)
    return float(prev[m])


def check_alignments(path: str, vector_of, skip: float) -> None:
    """Check every alignments.jsonl record."""
    for rec in read_jsonl(path):
        where = f"{rec['src_chapter']} x {rec['tgt_chapter']}"
        src_ids, tgt_ids = rec["src_ids"], rec["tgt_ids"]
        a = np.array([vector_of(s) for s in src_ids], dtype=np.float64).reshape(len(src_ids), -1)
        b = np.array([vector_of(s) for s in tgt_ids], dtype=np.float64).reshape(len(tgt_ids), -1)
        costs = 1.0 - np.clip(a @ b.T, -1.0, 1.0) if len(a) and len(b) else np.zeros((len(a), len(b)))
        i = j = 0
        total = 0.0
        for link in rec["links"]:
            s, t = link["src"], link["tgt"]
            _require(s is not None or t is not None, f"{where}: empty link")
            _require(s is None or s == i, f"{where}: source {s} out of order (expected {i})")
            _require(t is None or t == j, f"{where}: target {t} out of order (expected {j})")
            expected = costs[s, t] if s is not None and t is not None else skip
            _require(abs(link["cost"] - expected) <= TOL, f"{where}: link ({s}, {t}) costs {link['cost']}, not {expected}")
            i += s is not None
            j += t is not None
            total += link["cost"]
        _require((i, j) == (len(src_ids), len(tgt_ids)), f"{where}: cover ends at ({i}, {j})")
        _require(abs(total - rec["total_cost"]) <= TOL, f"{where}: total_cost is not the sum of link costs")
        best = optimal_cost(costs, skip)
        _require(abs(best - rec["total_cost"]) <= TOL, f"{where}: total_cost {rec['total_cost']} is not the optimum {best}")


def row_cells(rows_path: str) -> list[dict]:
    """rows.jsonl as a list of {idiom: (segment id, text) or None}."""
    return [
        {idiom: (c["segment_id"], c["text"]) if c else None for idiom, c in doc["cells"].items()}
        for doc in read_jsonl(rows_path)
    ]


def check_rows(rows: list[dict]) -> None:
    seen: set[str] = set()
    for row in rows:
        present = [cell[0] for cell in row.values() if cell is not None]
        _require(len(present) >= 2, f"row with {len(present)} cells: {present}")
        for idiom, cell in row.items():
            _require(cell is None or cell[0].split("/")[0] == idiom, f"cell {cell} filed under {idiom}")
        _require(seen.isdisjoint(present), f"segment in two rows: {sorted(seen & set(present))}")
        seen.update(present)


def macro_prf(rows: list[dict], gold_rows: list[dict], idioms) -> dict[str, float]:
    """Strict PRF per idiom pair, macro-averaged, by set comprehension.

    A row contributes the link ``((a,), (b,))`` for each pair of its filled
    cells; a gold row contributes its two (sorted) id sets when both are
    non-empty. Deletions count nowhere.
    """
    per_pair = []
    for a, b in combinations(sorted(idioms), 2):
        hyp = {((r[a][0],), (r[b][0],)) for r in rows if r.get(a) and r.get(b)}
        ref = {(tuple(sorted(g[a])), tuple(sorted(g[b]))) for g in gold_rows if g.get(a) and g.get(b)}
        hit = len(hyp & ref)
        p = hit / len(hyp) if hyp else 0.0
        r = hit / len(ref) if ref else 0.0
        per_pair.append((p, r, 2 * p * r / (p + r) if p + r else 0.0))
    return {
        key: sum(s[k] for s in per_pair) / len(per_pair)
        for k, key in enumerate(("precision", "recall", "f1"))
    }


def check_quality(own: dict[str, float], program) -> None:
    for key, floor in PRF_FLOOR.items():
        theirs = getattr(program, key)
        _require(abs(own[key] - theirs) <= 1e-12, f"macro {key}: scorer {own[key]} vs multi_prf {theirs}")
        _require(own[key] >= floor, f"macro {key} {own[key]:.4f} below the floor {floor}")


def _tokens(text: str) -> int:
    return len(unicodedata.normalize("NFC", text).split())


_TAG = re.compile(r"<[^>]*>")


def raw_counts(raw_docs: dict[str, str]) -> dict[str, dict[str, int]]:
    """Per-idiom volumes, segments and tokens straight from the raw documents.

    The synthetic volumes hold one plain ``<p>`` element per segment.
    """
    per: dict[str, dict[str, int]] = {}
    for doc in map(json.loads, raw_docs.values()):
        c = per.setdefault(doc["idiom"], {"volumes": 0, "segments": 0, "tokens": 0})
        c["volumes"] += 1
        for chapter in doc["chapters"]:
            for element in chapter["elements"]:
                c["segments"] += 1
                c["tokens"] += _tokens(_TAG.sub(" ", element["html"]))
    return per


def check_stats(stats_path: str, rows: list[dict], raw: dict[str, dict[str, int]]) -> None:
    """Compare stats.json with a recount; ``rows`` must have passed check_rows,
    so every filled cell is a distinct aligned segment."""
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    aligned: dict[str, dict[str, int]] = {}
    for row in rows:
        for idiom, cell in row.items():
            if cell is not None:
                a = aligned.setdefault(idiom, {"aligned_segments": 0, "aligned_tokens": 0})
                a["aligned_segments"] += 1
                a["aligned_tokens"] += _tokens(cell[1])
    expected = {idiom: {**raw[idiom], **aligned.get(idiom, {"aligned_segments": 0, "aligned_tokens": 0})} for idiom in raw}
    total = {key: sum(e[key] for e in expected.values()) for key in next(iter(expected.values()))}
    _require(stats["per_idiom"] == expected, f"stats.json per_idiom {stats['per_idiom']} != recount {expected}")
    _require(stats["total"] == total, f"stats.json total {stats['total']} != recount {total}")


def check_hashes(builds: list[dict], final: dict[str, str], reference: dict[str, str] | None) -> list[str | None]:
    """Per build, why its artifacts cannot be trusted, or None.

    ``final`` holds the hashes of the output directory the other checks
    read; ``reference`` those of the set-up's cold build of the same inputs.
    """
    verdicts = []
    for b in builds:
        if b["files"] != b["manifest"]:
            verdicts.append("artifact hashes differ from manifest.json")
        elif b["files"] != final:
            verdicts.append("artifacts differ from the checked build")
        elif reference is not None and b["files"] != reference:
            verdicts.append("warm rebuild is not bit-identical to the cold build")
        else:
            verdicts.append(None)
    return verdicts


def check_outputs(out_dir: str, corpus, vector_of, skip: float) -> dict[str, float]:
    """Run every content check on one output directory; return the macro PRF."""
    from polyalign.evaluate import multi_prf
    from polyalign.export import load_rows
    from polyalign.model import load_corpus, segment_index

    check_alignments(os.path.join(out_dir, "alignments.jsonl"), vector_of, skip)
    rows_path = os.path.join(out_dir, "rows.jsonl")
    rows = row_cells(rows_path)
    check_rows(rows)
    check_stats(os.path.join(out_dir, "stats.json"), rows, raw_counts(corpus.raw_docs))
    own = macro_prf(rows, corpus.gold.rows, corpus.gold.idioms)
    hyp = load_rows(rows_path, segment_index(load_corpus(os.path.join(out_dir, "corpus.json"))))
    check_quality(own, multi_prf(hyp, corpus.gold)[1])
    return own
