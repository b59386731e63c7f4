"""Core data model: idioms, volumes, chapters, segments and multi-parallel rows.

All values are plain frozen dataclasses, immutable after construction. The
records a build makes once per item, ``Segment`` and ``MultiParallelRow``
(and ``multialign.Link``, a named tuple), are slotted: they carry no
``__dict__``. Segment ids encode (idiom, volume, chapter key, position) so
that every downstream artifact is self-describing; ``volume_header`` checks a
volume's parts of one, ``volume_of`` reads it back, ``_Fields`` types JSON keys.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from html import unescape
from json.encoder import encode_basestring
from operator import itemgetter

VOLUME_KINDS = ("workbook", "commentary")

# The "format" of corpus.json, which load_corpus requires.
CORPUS_FORMAT = "polyalign-corpus/1"

_IDIOM_RE = re.compile(r"[a-z][a-z0-9_-]*")
# Segment ids join with "/", mapping cells with "#" and mapping columns with tabs.
_VOLUME_ID_RE = re.compile(r"[^/#\s]+")
_TAG_RE = re.compile(r"<[^>]*>")


class PolyalignError(Exception):
    """The package's one error class; the CLI reports it as one line."""


def check_idiom(code: str) -> str:
    """Validate an idiom code (non-empty, lowercase) and return it."""
    if not _IDIOM_RE.fullmatch(code):
        raise ValueError(f"invalid idiom code: {code!r}")
    return code


def parse_pair(text: str) -> tuple[str, str]:
    """``SRC:TGT`` as two distinct idiom codes."""
    src, _, tgt = text.partition(":")
    if src == tgt or not _IDIOM_RE.fullmatch(src) or not _IDIOM_RE.fullmatch(tgt):
        raise PolyalignError(f"pair {text!r} is not SRC:TGT, two distinct idiom codes")
    return src, tgt


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def count_tokens(text: str) -> int:
    """Whitespace tokens of the NFC-normalized text."""
    return len(nfc(text).split())


def text_content(text: str) -> str:
    """A segment's text with its tags removed and its escapes decoded."""
    return unescape(_TAG_RE.sub("", text) if "<" in text else text)


_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def normalize_chapter_key(title: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    key = _PUNCT_RE.sub(" ", nfc(title).lower())
    return " ".join(key.split())


def make_segment_id(idiom: str, volume_id: str, chapter_key: str, position: int) -> str:
    return f"{idiom}/{volume_id}/{chapter_key}/{position}"


def volume_of(segment_id: str) -> str:
    parts = segment_id.split("/")
    if len(parts) < 4:
        raise PolyalignError(f"malformed segment id {segment_id!r}")
    return parts[1]


@dataclass(frozen=True, slots=True)
class Segment:
    """One extracted text unit.

    ``html`` is the segment's markup as the segmenter re-renders it from the
    parsed element: tag names lowercased, character data and attribute
    values escaped, never the element's own bytes. ``text`` is the segment
    as markup with only ``<strong>`` tags retained, ``<``, ``>`` and ``&``
    escaped as ``&lt;``, ``&gt;`` and ``&amp;``, and whitespace collapsed.
    ``content()`` is that text with its tags removed and escapes decoded
    (``text_content``): ``token_count`` and a length in characters count it,
    and ``text`` mode embeds it.
    """

    id: str
    idiom: str
    position: int
    html: str
    text: str
    token_count: int

    def content(self) -> str:
        return text_content(self.text)

    def length(self, unit: str = "tokens") -> int:
        if unit == "tokens":
            return self.token_count
        if unit == "characters":
            return len(self.content())
        raise ValueError(f"unknown length unit: {unit!r}")


@dataclass(frozen=True)
class Chapter:
    key: str
    title: str
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class BookVolume:
    idiom: str
    volume_id: str
    grade: int
    kind: str
    chapters: tuple[Chapter, ...]


@dataclass(frozen=True)
class ChapterGroup:
    """2-5 chapters describing the same content across idioms."""

    group_id: str
    members: dict[str, Chapter]

    def idioms(self) -> list[str]:
        return sorted(self.members)


@dataclass(frozen=True, slots=True)
class MultiParallelRow:
    """One corpus row: at most one segment per idiom, null where absent, and
    its ``row_id`` in a row file, given by ``build_rows`` or read by ``load_rows``."""

    cells: dict[str, Segment | None]
    provenance: str
    flags: frozenset[str] = frozenset()
    row_id: str = ""

    def non_null(self) -> dict[str, Segment]:
        return {k: v for k, v in self.cells.items() if v is not None}


def read_idiom_table(text: str, name: str, row: str, prefix: str = "") -> tuple[list[str], list[list[str]]]:
    """The idioms and rows of an idiom-column TSV, such as the chapter mapping or a
    gold file: a header of distinct idiom codes, then per non-blank line a row of
    stripped cells, padded with "" to the header's width. A header cell that is no
    code raises ``check_idiom``'s ValueError; no line, a repeated idiom and a cell
    beyond the header raise a PolyalignError of ``prefix`` and a message naming
    ``name`` or ``row``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PolyalignError(f"{prefix}empty {name} file")
    idioms = [check_idiom(col.strip()) for col in lines[0].split("\t")]
    repeated = [idiom for col, idiom in enumerate(idioms) if idiom in idioms[:col]]
    if repeated:
        raise PolyalignError(f"{prefix}{name} header: idiom {repeated[0]} names two columns")
    rows = []
    for row_no, line in enumerate(lines[1:], start=1):
        cells = [c.strip() for c in line.split("\t")]
        if any(cells[len(idioms):]):
            raise PolyalignError(f"{prefix}{row} {row_no}: a cell lies beyond the header's {len(idioms)} columns")
        rows.append(cells[: len(idioms)] + [""] * (len(idioms) - len(cells)))
    return idioms, rows


def validate_corpus(volumes: list[BookVolume]) -> list[str]:
    """What ``parse_volume`` cannot see in one document: one "where: message"
    per volume id that an idiom uses twice, empty if none."""
    counts = Counter((vol.idiom, vol.volume_id) for vol in volumes)
    return [f"{idiom}/{volume_id}: duplicate volume_id" for (idiom, volume_id), n in counts.items() if n > 1]


# ---------------------------------------------------------------------------
# Corpus serialization (corpus.json)


class _Fields:
    """Reads a record's named fields, each of exactly its type (no bool passes
    for an int); a missing one raises KeyError, a wrong one TypeError."""

    def __init__(self, **types: type):
        self.types = types
        self.kinds = tuple(types.values())
        self.get = itemgetter(*types)

    def __call__(self, record: dict) -> tuple:
        values = self.get(record)
        if tuple(map(type, values)) != self.kinds:
            for (name, kind), value in zip(self.types.items(), values):
                if type(value) is not kind:
                    raise TypeError(f"field {name!r} is {value!r}, not {kind.__name__}")
        return values


_volume_fields = _Fields(idiom=str, volume_id=str, grade=int, kind=str)
_chapter_fields = _Fields(key=str, title=str)
_segment_fields = _Fields(id=str, position=int, html=str, text=str, token_count=int)


def volume_header(record: dict) -> tuple[str, str, int, str]:
    """A volume record's idiom, volume_id, grade and kind, checked here for ingest and for a
    stored corpus alike: KeyError if one is missing, TypeError if mistyped, else ValueError."""
    idiom, volume_id, grade, kind = _volume_fields(record)
    check_idiom(idiom)
    if not _VOLUME_ID_RE.fullmatch(volume_id):
        raise ValueError(f"field 'volume_id' is {volume_id!r}, not a non-empty string free of '/', '#' and whitespace")
    if kind not in VOLUME_KINDS:
        raise ValueError(f"field 'kind' is {kind!r}, not one of {', '.join(VOLUME_KINDS)}")
    return idiom, volume_id, grade, kind


def corpus_from_dict(doc: dict) -> list[BookVolume]:
    """The volumes of a ``CORPUS_FORMAT`` document; a field of the wrong type, a
    volume header that ``volume_header`` refuses, a segment id that does not spell
    ``idiom/volume_id/key/position`` or that an earlier segment holds, a volume id
    that an idiom uses twice (``validate_corpus``, as ingest checks it), and another
    format raise KeyError, TypeError or ValueError."""
    if doc["format"] != CORPUS_FORMAT:
        raise ValueError(f"format {doc['format']!r} is not {CORPUS_FORMAT!r}")
    volumes = []
    ids: set[str] = set()
    for v in doc["volumes"]:
        idiom, volume_id, grade, kind = volume_header(v)
        chapters = []
        for c in v["chapters"]:
            key, title = _chapter_fields(c)
            segments = []
            for s in c["segments"]:
                sid, position, html, text, token_count = _segment_fields(s)
                if sid != make_segment_id(idiom, volume_id, key, position):
                    raise ValueError(f"segment id {sid!r} does not spell idiom/volume_id/key/position")
                if sid in ids:
                    raise ValueError(f"segment id {sid!r} is held by two segments")
                ids.add(sid)
                segments.append(Segment(sid, idiom, position, html, text, token_count))
            chapters.append(Chapter(key=key, title=title, segments=tuple(segments)))
        volumes.append(BookVolume(idiom=idiom, volume_id=volume_id, grade=grade, kind=kind, chapters=tuple(chapters)))
    violations = validate_corpus(volumes)
    if violations:
        raise ValueError("; ".join(violations))
    return volumes


def save_corpus(volumes: list[BookVolume], path) -> None:
    """Write ``corpus.json``, one chapter at a time.

    The bytes are exactly what ``json.dump`` writes of ``doc`` with
    ``ensure_ascii=False`` and ``indent=1``, and a newline, where ``doc`` is
    ``{"format": CORPUS_FORMAT, "volumes": [...]}`` and each volume, chapter and segment is an object of
    its fields in declaration order (a segment without its ``idiom``). The
    layout is spelled out here and strings go through ``encode_basestring``,
    the string encoder ``json.dump`` uses, so no dict copy of the corpus is
    built and no value passes through the pure-Python indenting encoder.
    """
    s = encode_basestring
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "format": {s(CORPUS_FORMAT)},\n "volumes": [')
        for v_idx, v in enumerate(volumes):
            fh.write(f'{"," if v_idx else ""}\n  {{\n   "idiom": {s(v.idiom)},\n   "volume_id": {s(v.volume_id)},\n'
                     f'   "grade": {v.grade},\n   "kind": {s(v.kind)},\n   "chapters": [')
            for c_idx, c in enumerate(v.chapters):
                segments = ",\n      ".join([
                    f'{{\n       "id": {s(g.id)},\n       "position": {g.position},\n       "html": {s(g.html)},\n'
                    f'       "text": {s(g.text)},\n       "token_count": {g.token_count}\n      }}'
                    for g in c.segments
                ])
                segments = f"[\n      {segments}\n     ]" if segments else "[]"
                fh.write(f'{"," if c_idx else ""}\n    {{\n     "key": {s(c.key)},\n     "title": {s(c.title)},\n'
                         f'     "segments": {segments}\n    }}')
            fh.write("\n   ]\n  }" if v.chapters else "]\n  }")
        fh.write("\n ]\n}\n" if volumes else "]\n}\n")


def load_json_object(path) -> dict:
    """The JSON object in the file at ``path``; anything else raises a
    PolyalignError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise PolyalignError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise PolyalignError(f"{path}: not a JSON object")
    return doc


def write_json(doc: dict, path) -> None:
    """Write ``doc`` to ``path`` as a JSON document: keys sorted, a one-space
    indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_corpus(path) -> list[BookVolume]:
    with open(path, encoding="utf-8") as fh:
        try:
            return corpus_from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise PolyalignError(f"{path}: not a polyalign corpus ({type(exc).__name__}: {exc})") from exc


def segment_index(volumes: list[BookVolume]) -> dict[str, Segment]:
    """Map every segment id in the corpus to its Segment."""
    return {seg.id: seg for vol in volumes for chap in vol.chapters for seg in chap.segments}
