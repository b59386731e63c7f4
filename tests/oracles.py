"""Independent naive oracles and random instance generators for the tests.

The alignment DP is checked against exhaustive enumeration of every monotone
cover, and the set operations against plain set comprehensions over pair
lists; none of them shares code with the implementation it checks. The one
exception is ``segment_html_reference``, the segmenter as it was before its
text and markup renderers were merged (less the verbatim-markup rules, which
the segmenter dropped too, and with its rules since: ``<script>`` and
``<style>`` content is left out, and each run of character data is
NFC-normalized on its own): it parses with the shipped ``_TreeBuilder``,
which it does not check. ``corpus_to_dict`` is the corpus document that
``save_corpus`` must write, and ``greedy_accuracy`` is the 1-NN harness for
comparing embedding inputs, which only the tests use. ``align_alone`` is not
an oracle: it runs the shipped DP on one pair, as a batch of its own.
"""

from __future__ import annotations

import hashlib
import random
import re
import struct
import unicodedata
from html import escape

import numpy as np

from polyalign.bialign import AlignConfig, align_chapter, dp_tables
from polyalign.ingest import BLOCK_TAGS, SCRIPT_TAGS, STRUCTURAL_TAGS, VOID_TAGS, Warnings, _Node, _TreeBuilder
from polyalign.model import BookVolume, PolyalignError, nfc
from polyalign.multialign import BilingualAlignment, Link


Move = tuple[int | None, int | None, float]


def random_alignment(rng: random.Random, n: int, m: int, src_prefix: str, tgt_prefix: str) -> BilingualAlignment:
    """A random monotone full cover between n source and m target segments."""
    links = []
    i = j = 0
    while i < n or j < m:
        moves = []
        if i < n and j < m:
            moves.append("sub")
        if i < n:
            moves.append("del_src")
        if j < m:
            moves.append("del_tgt")
        move = rng.choice(moves)
        if move == "sub":
            rng.random()  # a link's cost, which multialign does not read; drawing it fixes each seed's instance
            links.append(Link(src=i, tgt=j))
            i += 1
            j += 1
        elif move == "del_src":
            links.append(Link(src=i, tgt=None))
            i += 1
        else:
            links.append(Link(src=None, tgt=j))
            j += 1
    return BilingualAlignment(
        src_ids=tuple(f"{src_prefix}{k}" for k in range(n)),
        tgt_ids=tuple(f"{tgt_prefix}{k}" for k in range(m)),
        links=links,
    )


def align_alone(costs: np.ndarray, config: AlignConfig = AlignConfig()) -> list[Move]:
    """``align_chapter``'s moves for one pair aligned as a batch of its own."""
    return align_chapter(costs, config, table=dp_tables([costs], config.skip_cost)[0])


def alignment_of(moves: list[Move], src_ids: tuple[str, ...], tgt_ids: tuple[str, ...]) -> BilingualAlignment:
    """The alignment multialign reads for ``align_chapter``'s moves."""
    return BilingualAlignment(src_ids, tgt_ids, [Link(s, t) for s, t, _ in moves])


def pairs_by_id(alignment: BilingualAlignment) -> list[tuple[str | None, str | None]]:
    """The alignment's links as (src id, tgt id) pairs, None on the deleted side."""
    return [
        (
            alignment.src_ids[l.src] if l.src is not None else None,
            alignment.tgt_ids[l.tgt] if l.tgt is not None else None,
        )
        for l in alignment.links
    ]


def naive_pivot_join(a_ip_pairs, a_pj_pairs):
    """Set-comprehension reference for the pivot join.

    Inputs are plain (id, id) pair lists (None for a deleted side) with the
    pivot as the second element of the first list and the first element of
    the second list.
    """
    matched = {
        (si, sj)
        for (si, sp) in a_ip_pairs
        if si is not None and sp is not None
        for (sp2, sj) in a_pj_pairs
        if sp2 == sp and sj is not None
    }
    i_matched = {si for (si, _sj) in matched}
    j_matched = {sj for (_si, sj) in matched}
    i_all = {si for (si, _sp) in a_ip_pairs if si is not None}
    j_all = {sj for (_sp, sj) in a_pj_pairs if sj is not None}
    return (
        matched
        | {(si, None) for si in i_all - i_matched}
        | {(None, sj) for sj in j_all - j_matched}
    )


def naive_consensus(pair_sets):
    """Reference intersection over full pairs of every input set."""
    full_sets = [
        {p for p in pairs if p[0] is not None and p[1] is not None}
        for pairs in pair_sets
    ]
    out = full_sets[0]
    for s in full_sets[1:]:
        out = out & s
    return out


def naive_rows(edges, idioms, segments):
    """Reference row assembly: connected components of the consensus edges.

    ``segments`` maps each id to its (idiom, position). A component holding
    two segments of one idiom is dropped. Returns the rows as idiom -> id
    dicts (None where empty) ordered by their earliest (position, id), and
    the dropped components as sorted id lists ordered by their smallest id.
    """
    components = []
    for a, b in edges:
        touching = [c for c in components if a in c or b in c]
        components = [c for c in components if c not in touching] + [{a, b}.union(*touching)]
    rows, dropped = [], []
    for component in components:
        owners = [segments[sid][0] for sid in component]
        if len(set(owners)) < len(owners):
            dropped.append(sorted(component))
            continue
        row = dict.fromkeys(idioms)
        row.update({segments[sid][0]: sid for sid in component})
        rows.append((min((segments[sid][1], sid) for sid in component), row))
    return [row for _, row in sorted(rows, key=lambda r: r[0])], sorted(dropped)


def naive_group_consensus(idioms, links, segments):
    """Reference consensus rows of one chapter group.

    ``links`` maps each stored idiom pair (i, j) to its (i id, j id) pairs,
    None on a deleted side. Every idiom pair's consensus intersects its
    direct links (standing in for pivots i and j) with the pivot join
    through each other idiom; ``naive_rows`` assembles the result.
    """
    def pairs(x, y):
        if (x, y) in links:
            return links[(x, y)]
        return [(b, a) for a, b in links[(y, x)]]

    edges = set()
    for n, i in enumerate(idioms):
        for j in idioms[n + 1:]:
            edges |= naive_consensus([
                pairs(i, j) if p in (i, j) else naive_pivot_join(pairs(i, p), pairs(p, j))
                for p in idioms
            ])
    return naive_rows(edges, idioms, segments)


def cosine(u, v) -> float:
    """Cosine similarity, clamped to [-1, 1]. Zero vectors are an error."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise PolyalignError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise PolyalignError("cosine of a zero vector is undefined")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def hash_embed_reference(text: str, dim: int) -> np.ndarray:
    """Reference 3-gram hashing embedding: one keyed BLAKE2 digest per gram
    occurrence, added into the vector one gram at a time."""
    if dim < 8:
        raise PolyalignError("hash_embed requires dim >= 8")
    text = unicodedata.normalize("NFC", text).lower()
    grams = [text] if len(text) < 3 else [text[i : i + 3] for i in range(len(text) - 2)]
    vec = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=b"polyalign-ngram-v1").digest()
        value = struct.unpack("<Q", digest)[0]
        bucket = value % dim
        sign = 1.0 if (value >> 63) & 1 else -1.0
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return (vec / norm).astype(np.float32)


BRUTE_FORCE_BOUND = 8

_MOVE_RANK = {"substitute": 0, "skip-source": 1, "skip-target": 2}


def _enumerate_covers(n: int, m: int):
    """All monotone full covers as forward move lists (src, tgt, kind)."""
    if n == 0 and m == 0:
        yield []
        return
    if n > 0 and m > 0:
        for rest in _enumerate_covers(n - 1, m - 1):
            yield rest + [(n - 1, m - 1, "substitute")]
    if n > 0:
        for rest in _enumerate_covers(n - 1, m):
            yield rest + [(n - 1, None, "skip-source")]
    if m > 0:
        for rest in _enumerate_covers(n, m - 1):
            yield rest + [(None, m - 1, "skip-target")]


def brute_force_align(costs: np.ndarray, config: AlignConfig | None = None) -> tuple[list[Move], float]:
    """Exhaustive oracle: enumerate every monotone full cover, take the best.
    Returns its ``(src, tgt, cost)`` moves and its total cost.

    Tie-breaking matches the DP backtrace: among equal-cost covers, the one
    whose reversed move-kind sequence (substitute < skip-source < skip-target)
    is lexicographically smallest wins. Bounded to n, m <= 8.
    """
    if config is None:
        config = AlignConfig()
    costs = np.asarray(costs, dtype=np.float64)
    n, m = costs.shape
    if n > BRUTE_FORCE_BOUND or m > BRUTE_FORCE_BOUND:
        raise PolyalignError(f"brute force bounded to {BRUTE_FORCE_BOUND}x{BRUTE_FORCE_BOUND}")
    lam = config.skip_cost

    best = None
    best_key = None
    for cover in _enumerate_covers(n, m):
        total = 0.0
        for s, t, kind in cover:
            total += costs[s, t] if kind == "substitute" else lam
        key = (total, tuple(_MOVE_RANK[kind] for _, _, kind in reversed(cover)))
        if best_key is None or key < best_key:
            best, best_key = cover, key

    moves = [(s, t, float(costs[s, t]) if kind == "substitute" else lam) for s, t, kind in best]
    return moves, float(best_key[0])


def left_to_right_total(moves: list[Move]) -> float:
    """The moves' costs added in order, as ``alignments.jsonl`` stores ``total_cost``."""
    total = 0.0
    for _, _, cost in moves:
        total += cost
    return total


def check_full_cover(moves: list[Move], n: int, m: int) -> None:
    """Raise if the moves are not a monotone full cover of n by m segments."""
    srcs = [s for s, _, _ in moves if s is not None]
    tgts = [t for _, t, _ in moves if t is not None]
    if sorted(srcs) != list(range(n)) or sorted(tgts) != list(range(m)):
        raise PolyalignError("alignment does not cover all segments exactly once")
    subs = [(s, t) for s, t, _ in moves if s is not None and t is not None]
    for (i, j), (i2, j2) in zip(subs, subs[1:]):
        if not (i < i2 and j < j2):
            raise PolyalignError("1-1 links are not monotone")


def scalar_dp_table(costs: np.ndarray, lam: float) -> np.ndarray:
    """Reference DP table ``dp[i, j]``, one cell at a time.

    ``dp[i, j]`` is the cheapest monotone cover of the first ``i`` source and
    ``j`` target segments: ``min(sub, up, left)`` over substitution at the
    cell cost and a deletion on either side at ``lam``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n, m = costs.shape
    dp = np.empty((n + 1, m + 1), dtype=np.float64)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        dp[i, 0] = dp[i - 1, 0] + lam
    for j in range(1, m + 1):
        dp[0, j] = dp[0, j - 1] + lam
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i, j] = min(
                dp[i - 1, j - 1] + costs[i - 1, j - 1],
                dp[i - 1, j] + lam,
                dp[i, j - 1] + lam,
            )
    return dp


def partner_vector_rows(idioms, links, segments):
    """Reference consensus rows of one chapter group of 1-1 alignments, as
    partner-vector classes.

    ``links`` maps each stored idiom pair (i, j) to its (i id, j id) pairs,
    None on a deleted side; ``segments`` maps each id to its (idiom,
    position). A segment's vector holds, at each idiom of the group, the
    segment itself at its own idiom and its partner (or None) at the others.
    Two segments are a consensus link exactly when their vectors are equal
    and hold no None, so the rows are the classes of two or more segments
    sharing such a vector. Rows come as idiom -> id dicts (None where empty),
    ordered by their earliest (position, id).
    """
    partner = {}
    for (i, j), pairs in links.items():
        for a, b in pairs:
            if a is not None:
                partner[(a, j)] = b
            if b is not None:
                partner[(b, i)] = a
    classes = {}
    for sid, (idiom, _) in segments.items():
        vector = tuple(sid if k == idiom else partner.get((sid, k)) for k in idioms)
        if None not in vector:
            classes.setdefault(vector, []).append(sid)
    rows = []
    for members in classes.values():
        if len(members) >= 2:
            row = dict.fromkeys(idioms)
            row.update({segments[sid][0]: sid for sid in members})
            rows.append((min((segments[sid][1], sid) for sid in members), row))
    return [row for _, row in sorted(rows, key=lambda r: r[0])]


# The segmenter as two renderers (text and markup) over the parsed tree.


def _render_attrs(attrs) -> str:
    parts = []
    for name, value in attrs:
        if value is None:
            parts.append(f" {name}")
        else:
            parts.append(f' {name}="{escape(value)}"')
    return "".join(parts)


def _render_html(node: _Node) -> str:
    """Markup of ``node``, with character data and attribute values escaped;
    a ``<script>`` or ``<style>`` element has none."""
    if node.tag in SCRIPT_TAGS:
        return ""
    if node.tag == "" and not node.children:
        return escape(node.text, quote=False)
    inner = "".join(_render_html(c) for c in node.children)
    if node.tag == "":
        return inner
    if node.tag in VOID_TAGS and not node.children:
        return f"<{node.tag}{_render_attrs(node.attrs)}/>"
    return f"<{node.tag}{_render_attrs(node.attrs)}>{inner}</{node.tag}>"


def _render_text(node: _Node) -> str:
    """Inline text with only <strong> retained; <br> becomes a space.

    Character data is escaped (``&lt;``, ``&gt;``, ``&amp;``), so a kept
    ``<strong>`` tag and a literal ``<`` in the content stay distinct. A
    ``<script>`` or ``<style>`` element has no text.
    """
    if node.tag in SCRIPT_TAGS:
        return ""
    if node.tag == "":
        if node.children:
            return "".join(_render_text(c) for c in node.children)
        return escape(node.text, quote=False)
    if node.tag == "br":
        return " "
    inner = "".join(_render_text(c) for c in node.children)
    if node.tag == "strong":
        return f"<strong>{inner}</strong>" if inner.strip() else inner
    return inner


def nfc_runs(markup: str) -> str:
    """``markup`` with each run of characters other than ``<`` and ``>`` NFC-normalized
    on its own, so that no mark composes with a tag's ``<`` or ``>``."""
    return re.sub(r"[^<>]+", lambda run: nfc(run[0]), markup)


def _collapse(text: str) -> str:
    return " ".join(nfc_runs(text).split())


def _is_structural(node: _Node) -> bool:
    return node.tag in STRUCTURAL_TAGS


def _walk(node: _Node, out: list[tuple[str, str]]) -> None:
    """Emit (text, html) candidates for block nodes and stray inline runs."""
    has_structure = any(_is_structural(c) for c in node.children)

    # Leaf blocks (and leaf divs) become one candidate with their own markup.
    if not has_structure and (node.tag in BLOCK_TAGS or node.tag == "div"):
        text = _collapse("".join(_render_text(c) for c in node.children))
        if text:
            out.append((text, _render_html(node)))
        return

    run: list[_Node] = []

    def flush():
        if not run:
            return
        text = _collapse("".join(_render_text(n) for n in run))
        if text:
            html = "".join(_render_html(n) for n in run).strip()
            out.append((text, html))
        run.clear()

    for child in node.children:
        if _is_structural(child):
            flush()
            _walk(child, out)
        else:
            run.append(child)
    flush()


def segment_html_reference(
    element_html: str, warnings: Warnings | None = None, source: str = "<element>"
) -> list[tuple[str, str]]:
    """Split one element's markup into candidate segments.

    Returns (text, html) pairs: text has inline tags stripped except
    ``<strong>``, literal ``<``, ``>`` and ``&`` escaped, whitespace
    collapsed and each run of character data NFC-normalized; html is the
    candidate's markup as parsed. Empty candidates are dropped. Unbalanced markup is recovered best-effort
    with a warning record; the call never raises for bad markup.
    """
    if warnings is None:
        warnings = []
    builder = _TreeBuilder(warnings, source)
    builder.feed(element_html)
    builder.close()

    out: list[tuple[str, str]] = []
    _walk(builder.root, out)
    return out


def corpus_to_dict(volumes: list[BookVolume]) -> dict:
    """The corpus document: ``save_corpus`` writes exactly
    ``json.dumps(corpus_to_dict(volumes), ensure_ascii=False, indent=1)`` and a newline."""
    return {
        "format": "polyalign-corpus/1",
        "volumes": [
            {
                "idiom": v.idiom,
                "volume_id": v.volume_id,
                "grade": v.grade,
                "kind": v.kind,
                "chapters": [
                    {
                        "key": c.key,
                        "title": c.title,
                        "segments": [
                            {
                                "id": s.id,
                                "position": s.position,
                                "html": s.html,
                                "text": s.text,
                                "token_count": s.token_count,
                            }
                            for s in c.segments
                        ],
                    }
                    for c in v.chapters
                ],
            }
            for v in volumes
        ],
    }


def greedy_accuracy(
    src: np.ndarray, tgt: np.ndarray, gold_pairs: list[tuple[int, int]]
) -> float:
    """Fraction of gold 1-1 pairs whose argmax-cosine target is the gold one.

    Ties go to the lowest target index.
    """
    if not gold_pairs:
        raise PolyalignError("greedy_accuracy requires at least one gold pair")
    sims = src.astype(np.float64) @ tgt.astype(np.float64).T
    correct = 0
    for s, t in gold_pairs:
        if not (0 <= s < sims.shape[0] and 0 <= t < sims.shape[1]):
            raise PolyalignError(f"gold pair ({s}, {t}) out of range for {sims.shape}")
        if int(np.argmax(sims[s])) == t:  # np.argmax returns the first maximum
            correct += 1
    return correct / len(gold_pairs)
