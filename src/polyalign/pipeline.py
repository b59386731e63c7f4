"""End-to-end pipeline: ingest, embed, bialign, multialign, export.

``run_pipeline`` always runs the five stages in order; a partial rerun is the
CLI's stage commands. Each stage's work is one function; the ``stage_*``
functions bind it to the artifacts in ``out_dir``, and the CLI's stage
commands bind it to the files named by their flags, with the settings of the
config file that ``run`` takes. Both write every file through ``committing``,
as ``out(name)``: the temporary path ``<name>.tmp``, renamed to ``<name>``
when the block returns, or to ``<name>.quarantine`` when it raises. Ingest
stores the corpus and a copy of the chapter mapping as ``mapping.tsv``; the
corpus and its chapter groups are then resolved once from those two files
(``corpus_groups``), as the CLI's ``embed``, ``bialign`` and ``multialign``
resolve them, and handed to the later stages. Each input is checked where it
is read: a volume by ``parse_volume``, an alignment by ``load_alignments``.
Multialign reads ``alignments.jsonl`` one chapter group at a time, in the
record order ``load_alignments`` requires, and builds that group's rows on
partner maps (see ``multialign``) before it reads the next, so it holds one
group's alignments, not the corpus's. Every run writes a manifest with the
resolved config, the content hashes of exactly the files its stages committed,
and per-stage counts, so a build can be audited and reproduced bit-for-bit
(with a warm embedding cache).
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from itertools import combinations, islice
from operator import itemgetter

import numpy as np

from . import export as export_mod
from .bialign import AlignConfig, align_chapter, cost_matrix, dp_batches, dp_tables
from .embedding import HASH_DIM_DEFAULT, HASH_DIM_MIN, MODES, EmbeddingCache, ProviderConfig, embed_segments
from .ingest import build_chapter_groups, parse_volume
from .model import (
    BookVolume,
    ChapterGroup,
    MultiParallelRow,
    PolyalignError,
    _Fields,
    load_corpus,
    load_json_object,
    save_corpus,
    segment_index,
    validate_corpus,
    write_json,
)
from .multialign import (
    BilingualAlignment,
    LengthFilterConfig,
    Link,
    align_group_consensus,
    length_filter,
    partner_maps,
    pivot_multialign,
)

logger = logging.getLogger(__name__)

_PATHS = ("raw_dir", "mapping", "cache_dir", "out_dir")


@dataclass
class PipelineConfig:
    raw_dir: str = ""
    mapping: str = ""
    cache_dir: str = ""
    out_dir: str = ""
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    mode: str = "text"
    dim: int = HASH_DIM_DEFAULT
    align: AlignConfig = field(default_factory=AlignConfig)
    length_filter: LengthFilterConfig = field(default_factory=LengthFilterConfig)
    # Runs are serial; only 1 is accepted. The field stays while
    # bench/worker.py passes it.
    workers: int = 1

    def __post_init__(self):
        # Paths may be given as str or os.PathLike; the manifest stores str.
        for name in _PATHS:
            path = getattr(self, name)
            if not isinstance(path, (str, os.PathLike)):
                raise PolyalignError(f"{name} must be a path, got {path!r}")
            setattr(self, name, os.fspath(path))
        if self.workers != 1:
            raise PolyalignError(f"workers must be 1, got {self.workers!r}")
        least = HASH_DIM_MIN if self.provider.name == "hash" else 1
        if type(self.dim) is not int or self.dim < least:
            raise PolyalignError(f"dim must be a positive integer, at least {HASH_DIM_MIN} for the hash provider, "
                                 f"got {self.dim!r}")
        if self.mode not in MODES:
            raise PolyalignError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        """The config ``doc`` describes; an unknown key, at the top or in a
        nested section, and a section that is not an object raise a
        PolyalignError naming it."""
        doc = dict(doc)
        try:
            for name, section in (("provider", ProviderConfig), ("align", AlignConfig),
                                  ("length_filter", LengthFilterConfig)):
                value = doc.get(name, {})
                if not isinstance(value, dict):
                    raise PolyalignError(f"{name} must be an object, got {value!r}")
                doc[name] = section(**value)
            return cls(**doc)
        except TypeError as exc:
            raise PolyalignError(f"bad config: {exc}") from exc

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["workers"]
        return doc


def load_config(path) -> PipelineConfig:
    """The config the file at ``path`` describes. A path it leaves empty is an
    error: an empty ``raw_dir`` would read the working directory's files."""
    config = PipelineConfig.from_dict(load_json_object(path))
    empty = [name for name in _PATHS if not getattr(config, name)]
    if empty:
        raise PolyalignError(f"{path}: no path given for {', '.join(empty)}")
    return config


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def committing(directory=""):
    """Commit the files written in the block together: ``out(name)`` records the
    path ``<directory>/<name>``, which no other output may share, and returns
    ``<path>.tmp`` to write. If the block returns, each recorded file is renamed
    to its path, and an earlier failure's ``<path>.quarantine`` is removed; if it
    raises, each one written is renamed to ``<path>.quarantine``, the file at
    its path is left as it was, and an OSError on ``<path>.tmp`` names ``<path>``,
    the file the caller asked for."""
    paths: list[str] = []

    def out(name) -> str:
        path = os.path.join(directory, name)
        if os.path.realpath(path) in map(os.path.realpath, paths):
            raise PolyalignError(f"{path} is named for two outputs")
        paths.append(path)
        return path + ".tmp"

    try:
        yield out
    except BaseException as exc:
        for path in paths:
            if os.path.exists(path + ".tmp"):
                os.replace(path + ".tmp", path + ".quarantine")
        if isinstance(exc, OSError) and exc.filename in [path + ".tmp" for path in paths]:
            exc.filename = exc.filename.removesuffix(".tmp")
        raise
    for path in paths:
        os.replace(path + ".tmp", path)
        with suppress(FileNotFoundError):
            os.remove(path + ".quarantine")


# ---------------------------------------------------------------------------
# Stage work over explicit paths: the stages below and the CLI's stage
# commands both run these.


@contextmanager
def _naming(path):
    """Add the input file's name to the PolyalignError, or the UTF-8 decoding
    error, raised inside."""
    try:
        yield
    except (PolyalignError, UnicodeDecodeError) as exc:
        raise PolyalignError(f"{exc} (in {path})") from exc


def ingest_raw(raw_dir, mapping, corpus_path, warnings_path) -> dict:
    """Parse the raw volumes, check that no idiom repeats a volume id, group
    their chapters by the mapping, and write the corpus and the ingest warnings."""
    raw_paths = sorted(glob.glob(os.path.join(raw_dir, "*.json")))
    if not raw_paths:
        raise PolyalignError(f"no raw volume documents in {raw_dir!r}")
    warnings = []
    volumes: list[BookVolume] = []
    for path in raw_paths:
        with open(path, "rb") as fh, _naming(path):
            volumes.append(parse_volume(fh.read(), warnings))
    volumes.sort(key=lambda v: (v.idiom, v.volume_id))
    violations = validate_corpus(volumes)
    if violations:
        raise PolyalignError("corpus validation failed: " + "; ".join(violations[:5]))
    with open(mapping, encoding="utf-8") as fh, _naming(mapping):
        groups = build_chapter_groups(volumes, fh.read(), warnings)

    save_corpus(volumes, corpus_path)
    with open(warnings_path, "w", encoding="utf-8") as fh:
        for w in warnings:
            fh.write(json.dumps(w, ensure_ascii=False) + "\n")
    return {
        "volumes": len(volumes),
        "chapter_groups": len(groups),
        "segments": sum(len(c.segments) for v in volumes for c in v.chapters),
        "warnings": len(warnings),
    }


def corpus_groups(corpus_path, mapping) -> tuple[list[BookVolume], list[ChapterGroup]]:
    """The ingested corpus and its chapter groups, resolved from the mapping."""
    volumes = load_corpus(corpus_path)
    with open(mapping, encoding="utf-8") as fh, _naming(mapping):
        return volumes, build_chapter_groups(volumes, fh.read())


def _chapter_matrix(chapter, config: PipelineConfig, cache: EmbeddingCache):
    return embed_segments(
        list(chapter.segments),
        provider_config=config.provider,
        mode=config.mode,
        cache=cache,
        dim=config.dim,
    )


def _pair_costs(work: list[tuple[ChapterGroup, tuple[str, str]]], config: PipelineConfig,
                cache: EmbeddingCache) -> Iterator[np.ndarray]:
    """The cost matrix of each ``(group, pair)`` of ``work``, in order. A
    chapter is embedded when a pair of its group first uses it, and a group's
    embeddings are dropped when the next group starts."""
    current, matrices = None, {}
    for group, (i, j) in work:
        if group is not current:
            current, matrices = group, {}
        for idiom in (i, j):
            if idiom not in matrices:
                matrices[idiom] = _chapter_matrix(group.members[idiom], config, cache)
        yield cost_matrix(matrices[i], matrices[j])


def _align_batch(work: list[tuple[ChapterGroup, tuple[str, str]]], costs: list[np.ndarray],
                 config: PipelineConfig) -> list[dict]:
    """Alignment records of one ``dp_batches`` batch of ``(group, pair)``
    items, given their cost matrices; the tables are freed on return. This is
    the one place an ``alignments.jsonl`` record is built. ``total_cost`` adds
    the link costs left to right, as ``+=`` does on every Python; ``sum()`` of
    floats is compensated from 3.12 on and could round differently."""
    records = []
    for (group, (i, j)), c, table in zip(work, costs, dp_tables(costs, config.align.skip_cost)):
        links, total = [], 0.0
        for src, tgt, cost in align_chapter(c, config.align, table=table):
            links.append({"src": src, "tgt": tgt, "cost": cost})
            total += cost
        records.append({
            "group": group.group_id,
            "src_idiom": i,
            "tgt_idiom": j,
            "src_chapter": f"{group.group_id}/{i}",
            "tgt_chapter": f"{group.group_id}/{j}",
            "src_ids": [s.id for s in group.members[i].segments],
            "tgt_ids": [s.id for s in group.members[j].segments],
            "links": links,
            "total_cost": total,
        })
    return records


def align_pairs(groups: list[ChapterGroup], alignments_path, config: PipelineConfig,
                pair: tuple[str, str] | None = None) -> dict:
    """Align every idiom pair of every group, or only ``pair`` in either order:
    two distinct idioms that some group holds. The kept pairs of all groups form
    one work list, in group order, then pair order, and are aligned in
    ``dp_batches``: one ``dp_tables`` pass per batch, which may span groups,
    then one backtrace per pair. Records are written in work-list order, and
    only one batch's cost matrices and tables are held at a time. Each chapter
    is embedded once per group, and only if one of its pairs is kept."""
    if pair is not None and (len(set(pair)) != 2 or not any(set(pair) <= g.members.keys() for g in groups)):
        raise PolyalignError(f"no chapter group holds the pair {':'.join(pair)!r} of two distinct idioms")
    work = [(group, p) for group in groups for p in combinations(group.idioms(), 2)
            if pair is None or pair in (p, p[::-1])]
    shapes = [(len(group.members[i].segments), len(group.members[j].segments)) for group, (i, j) in work]
    costs = _pair_costs(work, config, EmbeddingCache(config.cache_dir))
    with open(alignments_path, "w", encoding="utf-8") as fh:
        for batch in dp_batches(shapes):
            items = work[batch[0]:batch[-1] + 1]
            for record in _align_batch(items, list(islice(costs, len(items))), config):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"chapter_pairs": len(work)}


# The keys every record and every link of ``alignments.jsonl`` must have,
# including the ones multialign does not read; a record's are typed too, and a
# link's cost is a finite int or float (an integer skip_cost writes int costs).
_record_fields = _Fields(group=str, src_idiom=str, tgt_idiom=str, src_chapter=str, tgt_chapter=str, total_cost=float)
_link_keys = itemgetter("src", "tgt", "cost")
_cost_types = {int, float}


def load_alignments(path, groups: list[ChapterGroup]
                    ) -> Iterator[tuple[ChapterGroup, dict[tuple[str, str], BilingualAlignment]]]:
    """``(group, {(src idiom, tgt idiom): alignment})`` for each of ``groups``, in their order (the
    mapping's group order), read from ``path`` one group at a time: a group is yielded once the
    first record of a later group, or the end of the file, is read, so at most one record of the
    next group is held with it.

    This is the one check of a record: its keys have their types (``_Fields``), its ids are its
    group's chapter ids (one tuple per chapter, built here and shared by that chapter's
    alignments), its links a monotone 1-1 full cover, no other record holds its pair, and it does
    not follow a later group's records. So a group's records must be together and in the mapping's
    group order, as ``align_pairs`` writes them; per-pair ``bialign`` outputs concatenated into one
    file are rejected. The keys of records already read are kept, so a repeated pair is reported
    wherever it sits."""
    chapter_ids = {(g.group_id, k): tuple(s.id for s in c.segments) for g in groups for k, c in g.members.items()}
    rank = {g.group_id: n for n, g in enumerate(groups)}
    order = iter(groups)
    current, pairs = next(order, None), {}
    seen: set[tuple[str, str, str]] = set()
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
                gid, i, j, *_ = _record_fields(doc)
                known = chapter_ids.get((gid, i)), chapter_ids.get((gid, j))
                stale = (tuple(doc["src_ids"]), tuple(doc["tgt_ids"])) != known
                links = list(map(_link_keys, doc["links"]))
                costs = [cost for _, _, cost in links]
                if not _cost_types.issuperset(map(type, costs)) or not math.isfinite(sum(costs)):
                    bad = [c for c in costs if type(c) not in _cost_types or not math.isfinite(c)] or [sum(costs)]
                    raise ValueError(f"field 'cost' is {bad[0]!r}, not a finite int or float")
                alignment = BilingualAlignment(*known, [Link(src, tgt) for src, tgt, _ in links])
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise PolyalignError(
                    f"{path}, line {line_no}: not an alignment record ({type(exc).__name__}: {exc})"
                ) from exc
            name = f"{i}:{j}"
            if stale:
                problem = "does not match the corpus's chapters; rerun bialign on this corpus"
            elif (gid, i, j) in seen:
                problem = "is stored twice"
            elif (gid, j, i) in seen:
                name, problem = f"{j}:{i}", f"is stored twice, the second time as {name}"
            elif rank[gid] < rank[current.group_id]:
                problem = (f"follows group {current.group_id}'s records: each group's records must be together and "
                           "in the mapping's group order, as bialign writes them")
            else:
                problem = _cover_problem(alignment)
            if problem:
                raise PolyalignError(f"{path}, line {line_no}: group {gid}: the {name} alignment {problem}")
            while gid != current.group_id:
                yield current, pairs
                current, pairs = next(order), {}
            # Interned, a key costs its tuple and not three more strings.
            seen.add((sys.intern(gid), sys.intern(i), sys.intern(j)))
            pairs[(i, j)] = alignment
    while current is not None:
        yield current, pairs
        current, pairs = next(order, None), {}


def _cover_problem(alignment: BilingualAlignment) -> str | None:
    """Why the stored links are not a monotone 1-1 full cover, or None."""
    n, m = len(alignment.src_ids), len(alignment.tgt_ids)
    if (None, None) in alignment.links:
        return "has a link that touches neither side: a link must touch at least one side"
    srcs = [s for s, _ in alignment.links if s is not None]
    tgts = [t for _, t in alignment.links if t is not None]
    if any(type(k) is not int for k in srcs + tgts):
        return "has a link index that is not an integer"
    if any(not 0 <= k < n for k in srcs) or any(not 0 <= k < m for k in tgts):
        return "has a segment index out of range"
    if sorted(srcs) != list(range(n)) or sorted(tgts) != list(range(m)):
        return "does not link every segment exactly once"
    subs = [(s, t) for s, t in alignment.links if s is not None and t is not None]
    if any(a >= c or b >= d for (a, b), (c, d) in zip(subs, subs[1:])):
        return "has 1-1 links that are not increasing"
    return None


def build_rows(groups: list[ChapterGroup], alignments_path, rows_path,
               length_config: LengthFilterConfig | None, pivot: str | None = None) -> dict:
    """Multi-parallel rows of every group: the consensus of every pivot or, given ``pivot``,
    that pivot's join; some group must hold the pivot, and a group that does not adds no rows.
    It reads only the groups, whose chapters hold every segment of a group's rows, and the
    alignments, in one loop over ``load_alignments``, which checks each record: a group's rows
    are built before the next group's records are read. A group that lacks a pair the build
    needs fails it once the whole file has been read, so a bad record later in the file is the
    error reported. Without ``length_config`` no cell is length-filtered. Rows left with fewer
    than two cells are demoted; a contradictory consensus component is only counted
    (``dropped_components``). Kept rows get the ``row_id`` ``<provenance>/r<index in the
    file>``, and are written once, after every group."""
    if pivot is not None and not any(pivot in g.members for g in groups):
        raise PolyalignError(f"no chapter group has the pivot idiom {pivot!r}")
    all_rows = []
    dropped: list[list[str]] = []
    demoted = 0
    missing = ""
    for group, pair_alignments in load_alignments(alignments_path, groups):
        idioms = group.idioms()
        if pivot is None:
            needed = combinations(idioms, 2)
        elif pivot in group.members:
            needed = [(pivot, j) for j in idioms if j != pivot]
        else:
            continue
        lacking = [f"{i}:{j}" for i, j in needed if (i, j) not in pair_alignments and (j, i) not in pair_alignments]
        if lacking and not missing:
            missing = f"group {group.group_id} has no alignment of {', '.join(lacking)}"
        if missing:
            continue
        seg_index = {s.id: s for chap in group.members.values() for s in chap.segments}
        if pivot is None:
            aligned = align_group_consensus(group, pair_alignments, seg_index, dropped)
        else:
            aligned = pivot_multialign(pivot, idioms, partner_maps(pair_alignments), seg_index,
                                       provenance=group.group_id)
        for row in aligned:
            if length_config is not None:
                row = length_filter(row, length_config)
            if len(row.non_null()) >= 2:
                row_id = f"{row.provenance}/r{len(all_rows):05d}"
                all_rows.append(MultiParallelRow(row.cells, row.provenance, row.flags, row_id))
            else:
                demoted += 1

    if missing:
        raise PolyalignError(f"{missing}; consensus needs every idiom pair (bialign --pair all)")
    export_mod.export_rows(all_rows, rows_path)
    return {"rows": len(all_rows), "dropped_components": len(dropped), "demoted_rows": demoted}


# ---------------------------------------------------------------------------
# Stages: the work above bound to the artifacts in out_dir


def _final(config: PipelineConfig, name: str) -> str:
    return os.path.join(config.out_dir, name)


def stage_ingest(config: PipelineConfig, out: Callable[[str], str]) -> dict:
    corpus, mapping, warnings = out("corpus.json"), out("mapping.tsv"), out("warnings.jsonl")
    # Later stages group chapters by this copy, never by the input file.
    shutil.copyfile(config.mapping, mapping)
    return ingest_raw(config.raw_dir, mapping, corpus, warnings)


def stage_embed(config: PipelineConfig, out: Callable[[str], str] | None, groups: list[ChapterGroup]) -> dict:
    """Embed every chapter that a group holds through the cache. It writes no
    artifact and never calls ``out``; the CLI's ``embed`` passes None."""
    cache = EmbeddingCache(config.cache_dir)
    chapters = [chap for g in groups for chap in g.members.values()]
    for chap in chapters:
        _chapter_matrix(chap, config, cache)
    return {"segments_embedded": sum(len(c.segments) for c in chapters), "chapter_groups": len(groups)}


def stage_bialign(config: PipelineConfig, out: Callable[[str], str], groups: list[ChapterGroup]) -> dict:
    return align_pairs(groups, out("alignments.jsonl"), config)


def stage_multialign(config: PipelineConfig, out: Callable[[str], str], groups: list[ChapterGroup]) -> dict:
    return build_rows(groups, _final(config, "alignments.jsonl"), out("rows.jsonl"), config.length_filter)


def stage_export(config: PipelineConfig, out: Callable[[str], str], volumes: list[BookVolume]) -> dict:
    seg_index = segment_index(volumes)
    rows = export_mod.load_rows(_final(config, "rows.jsonl"), seg_index)
    report = export_mod.stats(volumes, rows)
    write_json(report, out("stats.json"))
    with open(out("stats.txt"), "w", encoding="utf-8") as fh:
        fh.write(export_mod.render_stats(report))
    return {"aligned_rows": len(rows), "total_aligned_segments": report["total"]["aligned_segments"]}


_STAGE_FNS = {
    "ingest": stage_ingest,
    "embed": stage_embed,
    "bialign": stage_bialign,
    "multialign": stage_multialign,
    "export": stage_export,
}


def run_pipeline(config: PipelineConfig) -> dict:
    """Run the five stages in order and write the run manifest. The corpus and
    its chapter groups are resolved once, from what ingest stored. Each stage
    runs in its own ``committing`` block over ``out_dir``, and is given its
    ``out``. The manifest hashes exactly the committed files; an earlier
    build's manifest is removed before the first stage runs."""
    os.makedirs(config.out_dir, exist_ok=True)
    # An earlier build's manifest hashes files this run replaces; a failed run must not leave it.
    with suppress(FileNotFoundError):
        os.remove(_final(config, "manifest.json"))
    config_json = json.dumps(config.to_dict(), sort_keys=True)
    manifest = {
        "toolkit": "polyalign",
        "config": config.to_dict(),
        "config_hash": hashlib.sha256(config_json.encode()).hexdigest(),
        "sampler": export_mod.SAMPLER_NAME,
        "stages": {},
        "artifacts": {},
    }
    # Once every stage has returned, the names given to ``out`` are the committed files.
    committed: list[str] = []

    def run_stage(stage: str, *inputs) -> None:
        t0 = time.monotonic()
        try:
            with committing(config.out_dir) as commit:
                def out(name: str) -> str:
                    committed.append(name)
                    return commit(name)

                counts = _STAGE_FNS[stage](config, out, *inputs)
        except Exception as exc:
            raise PolyalignError(f"stage {stage!r} failed: {exc}") from exc
        counts["seconds"] = round(time.monotonic() - t0, 3)
        manifest["stages"][stage] = counts
        logger.info("stage %s: %s", stage, counts)

    start = time.monotonic()
    run_stage("ingest")
    volumes, groups = corpus_groups(_final(config, "corpus.json"), _final(config, "mapping.tsv"))
    run_stage("embed", groups)
    run_stage("bialign", groups)
    run_stage("multialign", groups)
    run_stage("export", volumes)
    manifest["wall_seconds"] = round(time.monotonic() - start, 3)
    for name in committed:
        manifest["artifacts"][name] = _sha256_file(_final(config, name))
    write_json(manifest, _final(config, "manifest.json"))
    return manifest
