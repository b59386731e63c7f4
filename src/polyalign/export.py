"""Corpus emission: row files, bitext extractions, statistics, splits, sheets.

JSON-lines is the canonical row format (streamable, diff-able, order-stable);
TSV is used only where flat text is the point (bitext, evaluation sheets).
"""

from __future__ import annotations

import json
import random
import re

from .model import BookVolume, MultiParallelRow, PolyalignError, Segment, _Fields, volume_of

# Identifies the deterministic generator behind sample_rows in manifests.
SAMPLER_NAME = "mt19937/sample-v1"


def row_to_dict(row: MultiParallelRow) -> dict:
    return {
        "row_id": row.row_id,
        "cells": {
            idiom: ({"segment_id": seg.id, "text": seg.text} if seg is not None else None)
            for idiom, seg in sorted(row.cells.items())
        },
        "provenance": row.provenance,
        "flags": sorted(row.flags),
    }


def export_rows(rows: list[MultiParallelRow], out_path) -> int:
    """Write one JSON object per row, in order, each under its own ``row_id``; UTF-8."""
    with open(out_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row_to_dict(row), ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    return len(rows)


_row_fields = _Fields(row_id=str, provenance=str)


def load_rows(path, seg_index: dict[str, Segment]) -> list[MultiParallelRow]:
    """Re-import a rows.jsonl file; each cell's segment_id resolves through the
    corpus index to a segment of the cell's idiom. A row keeps its ``row_id``:
    a string, unique in the file, that starts with its provenance and ``/r``; it and
    the provenance are typed by ``model._Fields``."""
    rows: list[MultiParallelRow] = []
    line_of: dict[str, int] = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
                ids = {idiom: None if cell is None else cell["segment_id"] for idiom, cell in doc["cells"].items()}
                (row_id, provenance), flags = _row_fields(doc), doc.get("flags", [])
                if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
                    raise TypeError(f"flags {flags!r} is not a list of strings")
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise PolyalignError(f"{path}, line {line_no}: not a row record ({type(exc).__name__}: {exc})") from exc
            if not row_id.startswith(provenance + "/r"):
                raise PolyalignError(f"{path}, line {line_no}: row_id {row_id!r} does not start with {provenance}/r")
            if line_of.setdefault(row_id, line_no) != line_no:
                raise PolyalignError(f"{path}, line {line_no}: row_id {row_id!r} repeats the id of line {line_of[row_id]}")
            cells: dict[str, Segment | None] = {}
            for idiom, sid in ids.items():
                seg = seg_index.get(sid) if isinstance(sid, str) else None
                if sid is not None and (seg is None or seg.idiom != idiom):
                    raise PolyalignError(f"{path}, line {line_no}: row references unknown segment {sid!r}, "
                                         f"no {idiom} segment of the corpus")
                cells[idiom] = seg
            rows.append(MultiParallelRow(cells=cells, provenance=provenance, flags=frozenset(flags), row_id=row_id))
    return rows


_WS_RE = re.compile(r"[\t\n\r]+")


def export_bitext(corpus: list[BookVolume], rows: list[MultiParallelRow], idiom_a: str, idiom_b: str,
                  out_path) -> int:
    """Two-column TSV of rows where both idioms are present; both idioms must
    be in the corpus."""
    corpus_idioms = {vol.idiom for vol in corpus}
    for idiom in (idiom_a, idiom_b):
        if idiom not in corpus_idioms:
            raise PolyalignError(f"idiom {idiom!r} not present in the corpus")
    count = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for row in rows:
            a = row.cells.get(idiom_a)
            b = row.cells.get(idiom_b)
            if a is None or b is None:
                continue
            fh.write(_WS_RE.sub(" ", a.text) + "\t" + _WS_RE.sub(" ", b.text) + "\n")
            count += 1
    return count


_STATS_KEYS = ("volumes", "segments", "aligned_segments", "tokens", "aligned_tokens")


def stats(corpus: list[BookVolume], rows: list[MultiParallelRow]) -> dict:
    """Overall vs aligned segment/token counts per idiom, plus their totals:
    the ``stats.json`` document, ``{"per_idiom": {idiom: counts}, "total": counts}``.

    Aligned = segments appearing in rows with at least two non-null cells.
    The rows come from ``load_rows``, so every cell is a corpus segment.
    """
    per: dict[str, dict[str, int]] = {}
    for vol in corpus:
        s = per.setdefault(vol.idiom, dict.fromkeys(_STATS_KEYS, 0))
        s["volumes"] += 1
        for chap in vol.chapters:
            s["segments"] += len(chap.segments)
            s["tokens"] += sum(seg.token_count for seg in chap.segments)

    counted: set[str] = set()
    for row in rows:
        present = row.non_null()
        if len(present) < 2:
            continue
        for seg in present.values():
            if seg.id in counted:
                continue
            counted.add(seg.id)
            s = per[seg.idiom]
            s["aligned_segments"] += 1
            s["aligned_tokens"] += seg.token_count

    total = {key: sum(s[key] for s in per.values()) for key in _STATS_KEYS}
    return {"per_idiom": dict(sorted(per.items())), "total": total}


def render_stats(report: dict) -> str:
    """Aligned-column text table: idiom, volumes, overall/aligned counts."""
    header = ["Idiom", "Volumes", "Segments", "Aligned Seg.", "Tokens", "Aligned Tok."]
    body = [[idiom] + [s[key] for key in _STATS_KEYS] for idiom, s in sorted(report["per_idiom"].items())]
    body.append(["Total"] + [report["total"][key] for key in _STATS_KEYS])
    table = [header] + [[str(c) for c in row] for row in body]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for r_idx, r in enumerate(table):
        lines.append("  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(r, widths))))
        if r_idx == 0 or r_idx == len(table) - 2:
            lines.append("-" * (sum(widths) + 2 * (len(header) - 1)))
    return "\n".join(lines) + "\n"


SPLIT_NAMES = ("train", "validation", "test", "extra")


def split_rows(
    rows: list[MultiParallelRow],
    assignment: dict[str, str],
    conflicts: list[dict] | None = None,
) -> dict[str, list[MultiParallelRow]]:
    """Partition rows by the split of their member volumes: each split's rows, in order.

    Every value of ``assignment`` must be one of ``SPLIT_NAMES``. A row whose
    member volumes map to different splits is dropped, and ``conflicts`` gets
    its record ``{"row_id", "splits"}``; an unassigned volume is an error.
    """
    for volume, split in assignment.items():
        if split not in SPLIT_NAMES:
            raise PolyalignError(f"volume {volume!r} maps to {split!r}, "
                                 f"not one of {', '.join(SPLIT_NAMES)}")
    out: dict[str, list[MultiParallelRow]] = {name: [] for name in SPLIT_NAMES}
    for row in rows:
        splits = set()
        for seg in row.non_null().values():
            vol = volume_of(seg.id)
            if vol not in assignment:
                raise PolyalignError(f"volume {vol!r} has no split assignment")
            splits.add(assignment[vol])
        if len(splits) != 1:
            if conflicts is not None:
                conflicts.append({"row_id": row.row_id, "splits": sorted(splits)})
            continue
        out[splits.pop()].append(row)
    return out


def sample_rows(rows: list[MultiParallelRow], n: int, seed: int):
    """Uniform sample without replacement; same (seed, input) -> same sheet.

    Returns (header, sheet rows) where each sheet row is
    [row_id, text per idiom in sorted order].
    """
    if not 0 <= n <= len(rows):
        raise PolyalignError(f"cannot sample {n} of {len(rows)} rows")
    idioms = sorted({i for row in rows for i in row.cells})
    header = ["row_id"] + idioms
    sheet = []
    for row in random.Random(seed).sample(rows, n):
        cells = [
            _WS_RE.sub(" ", row.cells[i].text) if row.cells.get(i) is not None else ""
            for i in idioms
        ]
        sheet.append([row.row_id] + cells)
    return header, sheet


def write_sheet(header: list[str], sheet: list[list[str]], out_path) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in sheet:
            fh.write("\t".join(row) + "\n")
