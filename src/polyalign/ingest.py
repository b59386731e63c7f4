"""Parse raw volume documents and segment their HTML content.

Segmentation follows the block structure of the markup: every paragraph,
list item, table cell or heading becomes one candidate segment, with no
sentence splitting. Inline markup is stripped except ``<strong>``; the text
stays markup, so a literal ``<``, ``>`` or ``&`` in it is escaped. The content
of a ``<script>`` or ``<style>`` element is neither text nor markup.

A plain element, one lowercase block tag or ``div`` with no attributes around
text with no ``<``, ``>`` or ``&``, is segmented without the HTML parser; its
output equals the parser's.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from html import escape
from html.parser import HTMLParser

from .model import (
    BookVolume,
    Chapter,
    ChapterGroup,
    PolyalignError,
    Segment,
    count_tokens,
    make_segment_id,
    nfc,
    normalize_chapter_key,
    read_idiom_table,
    text_content,
    volume_header,
)


# An ingest warning is the warnings.jsonl record {"source": ..., "message": ...}.
Warnings = list[dict[str, str]]


# Block-level node set; div counts only when it has no block children.
BLOCK_TAGS = frozenset(
    {"p", "li", "td", "th", "h1", "h2", "h3", "h4", "h5", "h6"}
)
CONTAINER_TAGS = frozenset(
    {"div", "ul", "ol", "table", "thead", "tbody", "tfoot", "tr", "body", "html",
     "section", "article", "blockquote"}
)
STRUCTURAL_TAGS = BLOCK_TAGS | CONTAINER_TAGS
VOID_TAGS = frozenset({"br", "hr", "img", "input", "meta", "link", "wbr"})
# Elements whose content is code, not text: it is left out of text and markup.
SCRIPT_TAGS = frozenset({"script", "style"})

# A plain element. The parser's tree for one is a single leaf block holding the text as
# written, with no reference to decode and nothing to escape, so segment_html skips it.
_PLAIN = re.compile(rf"<({'|'.join(sorted(BLOCK_TAGS | {'div'}))})>([^<>&]*)</\1>")

# Tags whose open instance is implicitly closed by a new sibling.
_AUTOCLOSE = {
    "li": ("li",),
    "p": ("p",),
    "td": ("td", "th"),
    "th": ("td", "th"),
    "tr": ("tr", "td", "th"),
}


@dataclass
class _Node:
    tag: str  # "" for text nodes and the root
    attrs: list = field(default_factory=list)
    children: list = field(default_factory=list)
    text: str = ""


class _TreeBuilder(HTMLParser):
    def __init__(self, warnings: Warnings, source: str):
        super().__init__(convert_charrefs=True)
        self.root = _Node(tag="")
        self.stack = [self.root]
        self.warnings = warnings
        self.source = source

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag in _AUTOCLOSE:
            closable = _AUTOCLOSE[tag]
            for node in reversed(self.stack[1:]):
                if node.tag in closable:
                    while self.stack[-1] is not node:
                        self.stack.pop()
                    self.stack.pop()
                    break
                if node.tag in STRUCTURAL_TAGS:
                    break
        node = _Node(tag=tag, attrs=list(attrs))
        self.stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        node = _Node(tag=tag.lower(), attrs=list(attrs))
        self.stack[-1].children.append(node)

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in VOID_TAGS:
            return
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        self.warnings.append({"source": self.source, "message": f"unmatched closing tag </{tag}>"})

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(_Node(tag="", text=data))

    def close(self):
        super().close()
        if len(self.stack) > 1:
            open_tags = ", ".join(n.tag for n in self.stack[1:])
            self.warnings.append(
                {"source": self.source, "message": f"unclosed tags at end of element: {open_tags}"}
            )
            del self.stack[1:]


def _render(node: _Node) -> tuple[str, str]:
    """(text, markup) of ``node``, character data and attribute values escaped.

    The text keeps only ``<strong>`` tags, around non-blank content, and
    ``<br>`` becomes a space; a ``<script>`` or ``<style>`` element is left out
    of both."""
    if not node.tag:
        text = escape(node.text, quote=False)
        return text, text
    if node.tag in SCRIPT_TAGS:
        return "", ""
    attrs = "".join([f" {k}" if v is None else f' {k}="{escape(v)}"' for k, v in node.attrs])
    if node.tag in VOID_TAGS:
        return " " if node.tag == "br" else "", f"<{node.tag}{attrs}/>"
    parts = [_render(c) for c in node.children]
    text = "".join([t for t, _ in parts])
    if node.tag == "strong" and text.strip():
        text = f"<strong>{text}</strong>"
    return text, f"<{node.tag}{attrs}>{''.join([h for _, h in parts])}</{node.tag}>"


def _nfc_runs(markup: str) -> str:
    """``markup`` with each run of character data (``[^<>]+``: a text, or a tag's name
    and attributes) NFC-normalized on its own, so no mark composes with a ``>``."""
    if unicodedata.is_normalized("NFC", markup):
        return markup
    return re.sub(r"[^<>]+", lambda run: nfc(run[0]), markup)


def _emit(nodes: list[_Node], out: list[tuple[str, str]]) -> None:
    """Append ``nodes`` as one candidate, whitespace collapsed, unless its text is empty."""
    if not nodes:
        return
    parts = [_render(n) for n in nodes]
    text = " ".join(_nfc_runs("".join([t for t, _ in parts])).split())
    if text:
        out.append((text, _nfc_runs("".join([h for _, h in parts]).strip())))


def _walk(node: _Node, out: list[tuple[str, str]]) -> None:
    """Emit (text, html) candidates for block nodes and stray inline runs."""
    # Leaf blocks (and leaf divs) become one candidate with their own markup.
    leaf = not any(c.tag in STRUCTURAL_TAGS for c in node.children)
    if leaf and (node.tag in BLOCK_TAGS or node.tag == "div"):
        _emit([node], out)
        return
    run: list[_Node] = []
    for child in node.children:
        if child.tag in STRUCTURAL_TAGS:
            _emit(run, out)
            run = []
            _walk(child, out)
        else:
            run.append(child)
    _emit(run, out)


def segment_html(
    element_html: str, warnings: Warnings | None = None, source: str = "<element>"
) -> list[tuple[str, str]]:
    """Split one element's markup into candidate segments.

    Returns (text, html) pairs: text has inline tags stripped except
    ``<strong>``, literal ``<``, ``>`` and ``&`` escaped, and whitespace
    collapsed; html is the candidate's markup re-rendered from the parsed
    tree, character data and attribute values escaped, so equal content gets
    equal markup however the element was cut. In both, each run of character
    data is NFC-normalized on its own (``_nfc_runs``), so no tag changes.
    Empty candidates are dropped. Unbalanced markup is recovered best-effort
    with a warning record; the call never raises for bad markup.

    A plain element (``_PLAIN``: one lowercase block tag or ``div`` with no
    attributes, closed by the same tag, around text with no ``<``, ``>`` or
    ``&``) skips the parser: its text is its inner text, whitespace collapsed,
    and its html the element itself, both normalized as the parser's are.
    """
    plain = _PLAIN.fullmatch(element_html)
    if plain:
        text = " ".join(_nfc_runs(plain[2]).split())
        return [(text, _nfc_runs(element_html))] if text else []
    if warnings is None:
        warnings = []
    builder = _TreeBuilder(warnings, source)
    builder.feed(element_html)
    builder.close()

    out: list[tuple[str, str]] = []
    _walk(builder.root, out)
    return out


def parse_volume(raw: bytes | str, warnings: Warnings | None = None) -> BookVolume:
    """Parse one raw volume document (ingestion JSON, UTF-8) into a BookVolume; a wrong type
    or value raises a PolyalignError naming the field of a header (``model.volume_header``
    checks it) and, past the header, the volume as ``idiom/volume_id``."""
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except UnicodeDecodeError as exc:
        raise PolyalignError(f"volume document is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolyalignError(
            f"malformed volume document at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        idiom, volume_id, grade, kind = volume_header(doc)
        raw_chapters = [(c["title"], [e["html"] for e in c["elements"]]) for c in doc["chapters"]]
    except KeyError as exc:
        raise PolyalignError(f"volume document missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise PolyalignError(f"volume document: {exc}") from exc
    vol_ref = f"{idiom}/{volume_id}"

    chapters: dict[str, Chapter] = {}
    for title, elements in raw_chapters:
        if not isinstance(title, str):
            raise PolyalignError(f"{vol_ref}: chapter title {title!r} is not a string")
        key = normalize_chapter_key(title)
        if not key:
            raise PolyalignError(f"{vol_ref}: chapter title {title!r} normalizes to an empty key")
        if key in chapters:
            raise PolyalignError(f"{vol_ref}: two chapters have the key {key!r}")
        segments: list[Segment] = []
        for elem_idx, element_html in enumerate(elements):
            source = f"{vol_ref}/{key}#element{elem_idx}"
            if not isinstance(element_html, str):
                raise PolyalignError(f"{source}: html {element_html!r} is not a string")
            for text, html in segment_html(element_html, warnings, source):
                pos = len(segments)
                segments.append(
                    Segment(
                        id=make_segment_id(idiom, volume_id, key, pos),
                        idiom=idiom,
                        position=pos,
                        html=html,
                        text=text,
                        token_count=count_tokens(text_content(text)),
                    )
                )
        chapters[key] = Chapter(key=key, title=title, segments=tuple(segments))
    return BookVolume(
        idiom=idiom, volume_id=volume_id, grade=grade, kind=kind, chapters=tuple(chapters.values())
    )


def build_chapter_groups(
    volumes: list[BookVolume],
    mapping_text: str,
    warnings: Warnings | None = None,
) -> list[ChapterGroup]:
    """Assemble cross-idiom ChapterGroups from the mapping TSV, an idiom-column
    table (``read_idiom_table``).

    Cells are "volume_id#chapter_key"; a dangling reference is an error naming
    the row and cell, and so is a chapter that a group of an earlier row
    already holds; a chapter with no segments is left out with a warning;
    rows left with fewer than two members are skipped with a warning (no
    parallel content).
    """
    if warnings is None:
        warnings = []
    try:
        idioms, rows = read_idiom_table(mapping_text, "chapter mapping", "mapping row")
    except ValueError as exc:
        raise PolyalignError(f"chapter mapping header: {exc}") from exc
    chapters: dict[tuple[str, str, str], Chapter] = {}
    for vol in volumes:
        for chap in vol.chapters:
            chapters[(vol.idiom, vol.volume_id, chap.key)] = chap

    groups: list[ChapterGroup] = []
    row_of: dict[tuple[str, str], int] = {}  # (idiom, cell) -> the row whose group holds it
    for row_idx, cells in enumerate(rows, start=1):
        members: dict[str, Chapter] = {}
        for idiom, cell in zip(idioms, cells):
            if not cell:
                continue
            if "#" not in cell:
                raise PolyalignError(
                    f"mapping row {row_idx}, idiom {idiom}: cell {cell!r} is not volume_id#chapter_key"
                )
            volume_id, _, chapter_key = cell.partition("#")
            chap = chapters.get((idiom, volume_id, chapter_key))
            if chap is None:
                raise PolyalignError(
                    f"mapping row {row_idx}, idiom {idiom}: no chapter {chapter_key!r} in volume {volume_id!r}"
                )
            if not chap.segments:
                warnings.append({"source": f"mapping row {row_idx}",
                                 "message": f"idiom {idiom}: chapter {cell} has no segments, left out"})
                continue
            members[idiom] = chap
        if len(members) < 2:
            warnings.append({"source": f"mapping row {row_idx}",
                             "message": f"skipped: only {len(members)} member(s), no parallel content"})
            continue
        for idiom, cell in zip(idioms, cells):
            if idiom in members and row_of.setdefault((idiom, cell), row_idx) != row_idx:
                raise PolyalignError(
                    f"mapping row {row_idx}, idiom {idiom}: chapter {cell} is already grouped by row {row_of[(idiom, cell)]}"
                )
        groups.append(ChapterGroup(group_id=f"g{row_idx:04d}", members=members))
    return groups
