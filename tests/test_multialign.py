import json
import math
import random
import re
from itertools import combinations, zip_longest

import pytest

from oracles import (
    align_alone,
    alignment_of,
    naive_consensus,
    naive_group_consensus,
    naive_pivot_join,
    naive_rows,
    pairs_by_id,
    partner_vector_rows,
    random_alignment,
)
from polyalign.bialign import cost_matrix
from polyalign.embedding import embed_segments
from polyalign.ingest import build_chapter_groups
from polyalign.model import ChapterGroup, Chapter, MultiParallelRow, PolyalignError, Segment
from polyalign.multialign import (
    BilingualAlignment,
    LengthFilterConfig,
    Link,
    PairLinkSet,
    align_group_consensus,
    assemble_rows,
    consensus,
    length_filter,
    partner_maps,
    pivot_join,
    pivot_multialign,
)
from polyalign.pipeline import build_rows, corpus_groups, ingest_raw
from synth import generate


def alignment_from_pairs(pairs):
    """Build a BilingualAlignment from explicit id pairs."""
    src_ids = [a for a, _ in pairs if a is not None]
    tgt_ids = [b for _, b in pairs if b is not None]
    src_pos = {s: i for i, s in enumerate(src_ids)}
    tgt_pos = {t: i for i, t in enumerate(tgt_ids)}
    links = [
        Link(src=src_pos[a] if a is not None else None,
             tgt=tgt_pos[b] if b is not None else None)
        for a, b in pairs
    ]
    return BilingualAlignment(src_ids=tuple(src_ids), tgt_ids=tuple(tgt_ids), links=links)


def join_through_pivot(a_ip, a_pj):
    """pivot_join on the partner maps of an i-p and a p-j alignment."""
    partners = partner_maps({("i", "p"): a_ip, ("p", "j"): a_pj})
    return pivot_join(partners[("i", "p")], partners[("p", "j")], partners[("j", "p")])


def multialign_on_pivot(pivot, alignments, index):
    """pivot_multialign over alignments with the pivot on their source side."""
    partners = partner_maps({(pivot, k): a for k, a in alignments.items()})
    return pivot_multialign(pivot, sorted([pivot, *alignments]), partners, index)


def seg(sid, idiom, pos=0, text="t t t"):
    return Segment(id=sid, idiom=idiom, position=pos, html=f"<p>{text}</p>",
                   text=text, token_count=len(text.split()))


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """A two-group corpus ingested to disk: its directory and its chapter groups."""
    root = tmp_path_factory.mktemp("ingested")
    corpus = generate(seed=0, n_groups=2, segs_per_chapter=5)
    raw = root / "raw"
    raw.mkdir()
    for name, doc in corpus.raw_docs.items():
        (raw / name).write_text(doc, encoding="utf-8")
    (root / "mapping.tsv").write_text(corpus.mapping_tsv, encoding="utf-8")
    ingest_raw(raw, root / "mapping.tsv", root / "corpus.json", root / "warnings.jsonl")
    return root, corpus_groups(root / "corpus.json", root / "mapping.tsv")[1]


def write_alignments(path, groups, stale_pair=None):
    """Position-by-position alignments of every idiom pair of every group. In the
    last group, the ``stale_pair`` alignment carries its first idiom's segment ids
    from the first group's chapter."""
    with open(path, "w", encoding="utf-8") as fh:
        for group in groups:
            for i, j in combinations(group.idioms(), 2):
                ids = {k: [s.id for s in group.members[k].segments] for k in (i, j)}
                if group is groups[-1] and (i, j) == stale_pair:
                    ids[i] = [s.id for s in groups[0].members[i].segments]
                a = alignment_from_pairs(list(zip_longest(ids[i], ids[j])))
                fh.write(json.dumps({
                    "group": group.group_id, "src_idiom": i, "tgt_idiom": j,
                    "src_chapter": f"{group.group_id}/{i}", "tgt_chapter": f"{group.group_id}/{j}",
                    "src_ids": list(a.src_ids), "tgt_ids": list(a.tgt_ids),
                    "links": [{"src": l.src, "tgt": l.tgt, "cost": 0.1} for l in a.links],
                    "total_cost": 0.1 * len(a.links),
                }) + "\n")


def rows_on(root, alignments, pivot=None):
    _, groups = corpus_groups(root / "corpus.json", root / "mapping.tsv")
    return build_rows(groups, alignments, root / "rows.jsonl", None, pivot=pivot)


class TestPivotJoin:
    def test_spec_hand_case(self):
        a_ip = alignment_from_pairs([("a1", "p1"), ("a2", "p2"), ("a3", None)])
        a_pj = alignment_from_pairs([("p1", "b1"), ("p2", None), (None, "b3")])
        out = join_through_pivot(a_ip, a_pj)
        assert out.pairs == frozenset(
            {("a1", "b1"), ("a2", None), ("a3", None), (None, "b3")}
        )

    def test_empty_inputs(self):
        a_ip = alignment_from_pairs([])
        a_pj = alignment_from_pairs([])
        assert join_through_pivot(a_ip, a_pj).pairs == frozenset()

    def test_identity_join(self):
        a_ip = alignment_from_pairs([(f"a{k}", f"p{k}") for k in range(3)])
        a_pj = alignment_from_pairs([(f"p{k}", f"b{k}") for k in range(3)])
        out = join_through_pivot(a_ip, a_pj)
        assert out.pairs == frozenset({(f"a{k}", f"b{k}") for k in range(3)})

    def test_pivot_chapter_mismatch_errors(self, ingested, tmp_path):
        # The consensus joins through every pivot; one alignment whose pivot side
        # is another chapter's fails the build, and no rows are written.
        root, groups = ingested
        i, j = groups[-1].idioms()[:2]
        write_alignments(tmp_path / "fresh.jsonl", groups)
        assert rows_on(root, tmp_path / "fresh.jsonl")["rows"] > 0
        (root / "rows.jsonl").unlink()
        write_alignments(tmp_path / "stale.jsonl", groups, stale_pair=(i, j))
        with pytest.raises(PolyalignError, match=f"group {groups[-1].group_id}: the {i}:{j} alignment "
                                                "does not match the corpus's chapters; rerun bialign"):
            rows_on(root, tmp_path / "stale.jsonl")
        assert not (root / "rows.jsonl").exists()

    def test_pivot_segments_never_in_output(self):
        rng = random.Random(0)
        for _ in range(50):
            n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            a_ip = random_alignment(rng, n, k, "a", "p")
            a_pj = random_alignment(rng, k, m, "p", "b")
            out = join_through_pivot(a_ip, a_pj)
            flat = {x for p in out.pairs for x in p if x is not None}
            assert not any(x.startswith("p") for x in flat)
            # every non-pivot segment appears exactly once
            sides = [p[0] for p in out.pairs if p[0]] + [p[1] for p in out.pairs if p[1]]
            assert sorted(sides) == sorted({f"a{i}" for i in range(n)} | {f"b{j}" for j in range(m)})

    def test_matches_naive_oracle(self):
        rng = random.Random(1)
        for _ in range(200):
            n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            a_ip = random_alignment(rng, n, k, "a", "p")
            a_pj = random_alignment(rng, k, m, "p", "b")
            out = join_through_pivot(a_ip, a_pj)
            assert out.pairs == frozenset(
                naive_pivot_join(pairs_by_id(a_ip), pairs_by_id(a_pj))
            )


class TestPivotMultialign:
    def _index(self, ids_by_idiom):
        return {
            sid: seg(sid, idiom, pos)
            for idiom, ids in ids_by_idiom.items()
            for pos, sid in enumerate(ids)
        }

    def test_identity_join_all_cells_filled(self):
        alignments = {
            idiom: alignment_from_pairs([(f"p{k}", f"{idiom}{k}") for k in range(2)])
            for idiom in ("x", "y", "z", "w")
        }
        index = self._index({"p": ["p0", "p1"], "x": ["x0", "x1"], "y": ["y0", "y1"],
                             "z": ["z0", "z1"], "w": ["w0", "w1"]})
        out = multialign_on_pivot("p", alignments, index)
        assert len(out) == 2
        for row in out:
            assert all(v is not None for v in row.cells.values())
            assert len(row.cells) == 5

    def test_pivot_deletion_leaves_null_cell(self):
        alignments = {
            "x": alignment_from_pairs([("p0", "x0")]),
            "y": alignment_from_pairs([("p0", None), (None, "y0")]),
        }
        index = self._index({"p": ["p0"], "x": ["x0"], "y": ["y0"]})
        out = multialign_on_pivot("p", alignments, index)
        pivot_row = out[0]
        assert pivot_row.cells["x"].id == "x0"
        assert pivot_row.cells["y"] is None

    def test_unmatched_segment_is_in_no_row(self):
        alignments = {
            "x": alignment_from_pairs([("p0", None), (None, "x0")]),
        }
        index = self._index({"p": ["p0"], "x": ["x0"]})
        out = multialign_on_pivot("p", alignments, index)
        assert [row.cells for row in out] == [{"p": index["p0"], "x": None}]

    def test_rows_partition_pivot_segments(self):
        rng = random.Random(2)
        for _ in range(20):
            k = rng.randint(1, 6)
            alignments = {
                idiom: random_alignment(rng, k, rng.randint(0, 6), "p", idiom)
                for idiom in ("x", "y")
            }
            ids = {"p": [f"p{i}" for i in range(k)]}
            for idiom, al in alignments.items():
                ids[idiom] = list(al.tgt_ids)
            out = multialign_on_pivot("p", alignments, self._index(ids))
            pivot_cells = [r.cells["p"].id for r in out if r.cells.get("p") is not None]
            assert sorted(pivot_cells) == sorted(ids["p"])

    def test_inconsistent_pivot_chapter_errors(self, ingested, tmp_path):
        # One pivot alignment whose pivot chapter is another group's fails the
        # single-pivot build, and no rows are written.
        root, groups = ingested
        pivot, other = groups[-1].idioms()[:2]
        write_alignments(tmp_path / "fresh.jsonl", groups)
        assert rows_on(root, tmp_path / "fresh.jsonl", pivot)["rows"] > 0
        (root / "rows.jsonl").unlink()
        write_alignments(tmp_path / "stale.jsonl", groups, stale_pair=(pivot, other))
        with pytest.raises(PolyalignError, match=f"group {groups[-1].group_id}: the {pivot}:{other} alignment "
                                                "does not match the corpus's chapters; rerun bialign"):
            rows_on(root, tmp_path / "stale.jsonl", pivot)
        assert not (root / "rows.jsonl").exists()


def link_set(pairs):
    return PairLinkSet(frozenset(pairs))


class TestConsensus:
    def test_five_identical_sets(self):
        s = {("a1", "b1"), ("a2", "b2")}
        sets = {p: link_set(s) for p in "pqrst"}
        out = consensus(sets)
        assert out.pairs == frozenset(s)

    def test_one_missing_pair_excluded(self):
        full = {("x", "y"), ("u", "v")}
        sets = {p: link_set(full) for p in "pqrs"}
        sets["t"] = link_set({("u", "v")})
        assert consensus(sets).pairs == frozenset({("u", "v")})

    def test_disjoint_inputs_empty(self):
        sets = {"p": link_set({("a", "b")}), "q": link_set({("c", "d")})}
        assert consensus(sets).pairs == frozenset()

    def test_null_pairs_do_not_participate(self):
        sets = {
            "p": link_set({("a", "b"), ("c", None)}),
            "q": link_set({("a", "b"), (None, "d")}),
        }
        assert consensus(sets).pairs == frozenset({("a", "b")})

    def test_subset_law_and_oracle_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(100):
            n_sets = rng.randint(1, 5)
            universe = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
            raw_sets = []
            for _k in range(n_sets):
                pairs = set(rng.sample(universe, rng.randint(0, 8)))
                if rng.random() < 0.5:
                    pairs.add((f"a{rng.randint(0,3)}", None))
                raw_sets.append(pairs)
            sets = {f"p{k}": link_set(p) for k, p in enumerate(raw_sets)}
            out = consensus(sets)
            assert out.pairs == frozenset(naive_consensus(raw_sets))
            for s in sets.values():
                assert out.pairs <= s.full_pairs() | s.pairs


def make_group(ids_by_idiom, group_id="g1"):
    members = {}
    for idiom, ids in ids_by_idiom.items():
        segs = tuple(seg(sid, idiom, pos) for pos, sid in enumerate(ids))
        members[idiom] = Chapter(key="c", title="C", segments=segs)
    return ChapterGroup(group_id=group_id, members=members)


class TestAssembleRows:
    def _index(self, ids_by_idiom):
        return {
            sid: seg(sid, idiom, pos)
            for idiom, ids in ids_by_idiom.items()
            for pos, sid in enumerate(ids)
        }

    def test_triangle_component_is_one_row(self):
        ids = {"x": ["a"], "y": ["b"], "z": ["c"]}
        group = make_group(ids)
        sets = [
            link_set({("a", "b")}),
            link_set({("b", "c")}),
            link_set({("a", "c")}),
        ]
        out = assemble_rows(sets, group, self._index(ids))
        assert len(out) == 1
        row = out[0]
        assert {s.id for s in row.non_null().values()} == {"a", "b", "c"}

    def test_same_idiom_conflict_drops_component(self):
        ids = {"x": ["a"], "y": ["b", "b2"]}
        group = make_group(ids)
        sets = [link_set({("a", "b"), ("a", "b2")})]
        dropped = []
        out = assemble_rows(sets, group, self._index(ids), dropped)
        assert out == []
        assert dropped == [["a", "b", "b2"]]

    def test_no_edges_no_rows(self):
        ids = {"x": ["a"], "y": ["b"]}
        out = assemble_rows([], make_group(ids), self._index(ids))
        assert out == []

    def test_each_segment_in_at_most_one_row(self):
        rng = random.Random(4)
        ids = {"x": [f"x{i}" for i in range(6)], "y": [f"y{i}" for i in range(6)],
               "z": [f"z{i}" for i in range(6)]}
        group = make_group(ids)
        index = self._index(ids)
        for _ in range(30):
            sets = []
            for a, b in (("x", "y"), ("y", "z"), ("x", "z")):
                pairs = {
                    (f"{a}{rng.randint(0,5)}", f"{b}{rng.randint(0,5)}")
                    for _ in range(rng.randint(0, 5))
                }
                sets.append(link_set(pairs))
            out = assemble_rows(sets, group, index)
            seen = [s.id for row in out for s in row.non_null().values()]
            assert len(seen) == len(set(seen))

    def test_matches_naive_rows(self):
        rng = random.Random(6)
        ids = {k: [f"{k}{i}" for i in range(4)] for k in ("x", "y", "z")}
        group = make_group(ids)
        index = self._index(ids)
        segments = {sid: (s.idiom, s.position) for sid, s in index.items()}
        n_rows = n_dropped = 0
        for _ in range(100):
            sets = [
                link_set({(rng.choice(ids[a]), rng.choice(ids[b])) for _ in range(rng.randint(0, 4))})
                for a, b in (("x", "y"), ("y", "z"), ("x", "z"))
            ]
            dropped = []
            out = assemble_rows(sets, group, index, dropped)
            rows, naive_dropped = naive_rows(
                {p for s in sets for p in s.pairs}, group.idioms(), segments
            )
            assert [cell_ids(row) for row in out] == rows
            assert dropped == naive_dropped
            n_rows += len(rows)
            n_dropped += len(dropped)
        assert n_rows and n_dropped


def cell_ids(row):
    return {idiom: seg.id if seg is not None else None for idiom, seg in row.cells.items()}


def noisy_group(rng):
    """A random 3- to 5-idiom group and one alignment per idiom pair.

    Each idiom keeps most of a few shared concepts; most pairs are aligned
    by concept, the rest at random, and some are stored target-first.
    """
    idioms = ["v", "w", "x", "y", "z"][: rng.randint(3, 5)]
    concepts = range(rng.randint(0, 5))
    kept = {k: [c for c in concepts if rng.random() < 0.8] for k in idioms}
    ids = {k: [f"{k}{c}" for c in kept[k]] for k in idioms}
    alignments = {}
    for i, j in combinations(idioms, 2):
        if rng.random() < 0.5:
            i, j = j, i
        if rng.random() < 0.8:
            pairs = [(f"{i}{c}" if c in kept[i] else None, f"{j}{c}" if c in kept[j] else None)
                     for c in sorted(set(kept[i]) | set(kept[j]))]
            alignments[(i, j)] = alignment_from_pairs(pairs)
        else:
            alignment = random_alignment(rng, len(ids[i]), len(ids[j]), i, j)
            alignment.src_ids, alignment.tgt_ids = tuple(ids[i]), tuple(ids[j])
            alignments[(i, j)] = alignment
    return make_group(ids), alignments


def substitution_heavy_group(rng):
    """A random 3- to 5-idiom group and one alignment per idiom pair, some
    stored target-first. Each cover takes a 1-1 link with probability 0.9
    wherever both sides have segments left, else deletes one."""
    idioms = ["v", "w", "x", "y", "z"][: rng.randint(3, 5)]
    ids = {k: [f"{k}{n}" for n in range(rng.randint(1, 8))] for k in idioms}
    alignments = {}
    for i, j in combinations(idioms, 2):
        if rng.random() < 0.5:
            i, j = j, i
        src, tgt, pairs = list(ids[i]), list(ids[j]), []
        while src or tgt:
            if src and tgt and rng.random() < 0.9:
                pairs.append((src.pop(0), tgt.pop(0)))
            elif src and (not tgt or rng.random() < 0.5):
                pairs.append((src.pop(0), None))
            else:
                pairs.append((None, tgt.pop(0)))
        alignments[(i, j)] = alignment_from_pairs(pairs)
    return make_group(ids), alignments


def dp_aligned_groups(corpus):
    """Each chapter group of a synthetic corpus with the DP alignment of every idiom pair."""
    out = []
    for group in build_chapter_groups(corpus.volumes, corpus.mapping_tsv):
        chapters = group.members
        matrices = {k: embed_segments(list(c.segments)) for k, c in chapters.items()}
        out.append((group, {
            (i, j): alignment_of(align_alone(cost_matrix(matrices[i], matrices[j])),
                                 tuple(s.id for s in chapters[i].segments),
                                 tuple(s.id for s in chapters[j].segments))
            for i, j in combinations(group.idioms(), 2)
        }))
    return out


class TestGroupConsensus:
    def test_rows_are_partner_vector_classes(self, small_corpus):
        # With 1-1 covers a consensus link joins two segments whose partner
        # vectors are equal and complete, so no component ever holds two
        # segments of one idiom and nothing is dropped.
        rng = random.Random(11)
        sources = {
            "corpus": dp_aligned_groups(small_corpus),
            "random": [substitution_heavy_group(rng) for _ in range(500)],
        }
        n_rows = dict.fromkeys(sources, 0)
        for source, groups in sources.items():
            for group, alignments in groups:
                index = {s.id: s for chapter in group.members.values() for s in chapter.segments}
                dropped = []
                out = align_group_consensus(group, alignments, index, dropped)
                rows = partner_vector_rows(
                    group.idioms(),
                    {pair: pairs_by_id(a) for pair, a in alignments.items()},
                    {sid: (s.idiom, s.position) for sid, s in index.items()},
                )
                assert [cell_ids(row) for row in out] == rows
                assert dropped == []
                n_rows[source] += len(rows)
        # 43 and 735 rows as generated; uniform random covers give far fewer.
        assert n_rows["corpus"] >= 40 and n_rows["random"] >= 500

    def test_matches_naive_group_consensus(self):
        # Consensus edges of 1-1 alignments never join two segments of one
        # idiom, so nothing is dropped here; test_matches_naive_rows drives
        # that path through assemble_rows.
        rng = random.Random(7)
        n_rows = 0
        for _ in range(300):
            group, alignments = noisy_group(rng)
            index = {s.id: s for chapter in group.members.values() for s in chapter.segments}
            dropped = []
            out = align_group_consensus(group, alignments, index, dropped)
            rows, naive_dropped = naive_group_consensus(
                group.idioms(),
                {pair: pairs_by_id(a) for pair, a in alignments.items()},
                {sid: (s.idiom, s.position) for sid, s in index.items()},
            )
            assert [cell_ids(row) for row in out] == rows
            assert dropped == naive_dropped
            n_rows += len(rows)
        assert n_rows > 100


class TestLengthFilter:
    def _row(self, lengths, unit="tokens"):
        cells = {}
        for k, n in enumerate(lengths):
            text = " ".join(["w"] * n)
            cells[f"i{k}"] = seg(f"i{k}/v/c/{k}", f"i{k}", k, text)
        return MultiParallelRow(cells=cells, provenance="g1")

    def test_long_outlier_removed(self):
        row = self._row([4, 4, 4, 10])
        out = length_filter(row)
        kept = {i: s.token_count for i, s in out.non_null().items()}
        assert sorted(kept.values()) == [4, 4, 4]
        assert "noise-filtered:i3" in out.flags

    def test_equal_lengths_unchanged(self):
        row = self._row([5, 5, 5])
        out = length_filter(row)
        assert out.cells == row.cells
        assert out.flags == frozenset()

    def test_boundary_is_strict(self):
        # avg(3, 9) = 6; 3 < 0.67*6 = 4.02 so removed; 9 == 1.5*6 kept.
        row = self._row([3, 9])
        out = length_filter(row)
        kept = [s.token_count for s in out.non_null().values()]
        assert kept == [9]

    def test_exactly_at_bounds_kept(self):
        # avg(5, 6, 7) = 6; bounds are (4.02, 9.0), every length inside.
        row = self._row([5, 6, 7])
        out = length_filter(row)
        assert len(out.non_null()) == 3

    def test_average_not_recomputed(self):
        # Single pass: avg(1, 5, 6) = 4; 1 < 2.68 removed; 6 <= 6.0 kept even
        # though the post-removal average would change the bounds.
        row = self._row([1, 5, 6])
        out = length_filter(row)
        assert sorted(s.token_count for s in out.non_null().values()) == [5, 6]

    def test_character_unit(self):
        cells = {
            "a": seg("a/v/c/0", "a", 0, "xx"),
            "b": seg("b/v/c/1", "b", 1, "x" * 40),
        }
        row = MultiParallelRow(cells=cells, provenance="g")
        out = length_filter(row, LengthFilterConfig(unit="characters"))
        assert len(out.non_null()) < 2

    def test_character_unit_counts_content_not_markup(self):
        cells = {
            "a": seg("a/v/c/0", "a", 0, "abc def"),
            "b": seg("b/v/c/1", "b", 1, "abc <strong>def</strong>"),
        }
        row = MultiParallelRow(cells=cells, provenance="g")
        out = length_filter(row, LengthFilterConfig(unit="characters"))
        assert out.cells == row.cells
        assert out.flags == frozenset()

    def test_invalid_config(self):
        with pytest.raises(PolyalignError, match="^upper_ratio must be greater than 1, got 0.9$"):
            LengthFilterConfig(upper_ratio=0.9)

    @pytest.mark.parametrize("ratios, message", [
        ({"upper_ratio": 1}, "upper_ratio must be greater than 1, got 1"),
        ({"upper_ratio": math.nan}, "upper_ratio must be greater than 1, got nan"),
        ({"lower_ratio": 1.2}, "lower_ratio must be between 0 and 1, got 1.2"),
        ({"lower_ratio": 0}, "lower_ratio must be between 0 and 1, got 0"),
        ({"lower_ratio": -0.5, "upper_ratio": 0.5}, "upper_ratio must be greater than 1, got 0.5"),
    ], ids=["upper-1", "upper-nan", "lower-above-1", "lower-0", "both"])
    def test_out_of_range_ratio_names_its_field_and_value(self, ratios, message):
        with pytest.raises(PolyalignError, match=f"^{re.escape(message)}$"):
            LengthFilterConfig(**ratios)

    def test_retained_cells_within_bounds(self):
        rng = random.Random(5)
        cfg = LengthFilterConfig()
        for _ in range(100):
            lengths = [rng.randint(1, 30) for _ in range(rng.randint(2, 6))]
            row = self._row(lengths)
            avg = sum(lengths) / len(lengths)
            out = length_filter(row, cfg)
            for s in out.non_null().values():
                assert cfg.lower_ratio * avg <= s.token_count <= cfg.upper_ratio * avg
