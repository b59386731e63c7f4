import logging
import random

import numpy as np
import pytest

from polyalign.evaluate import (
    GoldAlignment,
    PRF,
    load_gold,
    multi_prf,
    strict_prf,
)
from polyalign.model import MultiParallelRow, PolyalignError, Segment

from oracles import greedy_accuracy


def seg(sid, idiom, pos=0):
    return Segment(id=sid, idiom=idiom, position=pos, html="<p>x</p>",
                   text="x", token_count=1)


class TestStrictPRF:
    def test_identity_is_perfect(self):
        links = {("a1", "b1"), ("a2", "b2")}
        out = strict_prf(links, links)
        assert (out.precision, out.recall, out.f1) == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        # Hypothesis has 3 links, gold has 3, 2 agree: P = R = F1 = 2/3.
        hyp = {("a1", "b1"), ("a2", "b2"), ("a3", "b4")}
        gold = {("a1", "b1"), ("a2", "b2"), ("a3", "b3")}
        out = strict_prf(hyp, gold)
        assert out.precision == pytest.approx(2 / 3)
        assert out.recall == pytest.approx(2 / 3)
        assert out.f1 == pytest.approx(2 / 3)

    def test_deletions_excluded_from_both_denominators(self):
        hyp = {("a1", "b1"), ("a2", None), (None, "b9")}
        gold = {("a1", "b1"), ("a7", None)}
        out = strict_prf(hyp, gold)
        assert (out.precision, out.recall, out.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_sets_score_zero(self):
        out = strict_prf({("a1", "b1")}, {("a2", "b2")})
        assert (out.precision, out.recall, out.f1) == (0.0, 0.0, 0.0)

    def test_set_valued_sides_order_insensitive(self):
        hyp = {(("a2", "a1"), ("b1",))}
        gold = {(("a1", "a2"), ("b1",))}
        assert strict_prf(hyp, gold).f1 == 1.0

    def test_partial_set_overlap_is_wrong(self):
        # A 2-1 hypothesis link sharing one source with a 1-1 gold link
        # matches nothing under the strict criterion.
        hyp = {(("a1", "a2"), ("b1",))}
        gold = {(("a1",), ("b1",))}
        out = strict_prf(hyp, gold)
        assert out.precision == 0.0

    def test_empty_denominators_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="polyalign.evaluate"):
            out = strict_prf(set(), {("a1", "b1")})
        assert out.precision == 0.0 and out.recall == 0.0
        assert any("empty denominator" in r.message for r in caplog.records)

    def test_precision_recall_swap_under_exchange(self):
        rng = random.Random(0)
        for _ in range(50):
            universe = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
            hyp = set(rng.sample(universe, rng.randint(1, 8)))
            gold = set(rng.sample(universe, rng.randint(1, 8)))
            fwd = strict_prf(hyp, gold)
            bwd = strict_prf(gold, hyp)
            assert fwd.precision == pytest.approx(bwd.recall)
            assert fwd.recall == pytest.approx(bwd.precision)
            assert fwd.f1 == pytest.approx(bwd.f1)


def make_alignment(rows_spec):
    """rows_spec: list of dict idiom -> segment id (or None)."""
    rows = []
    for k, spec in enumerate(rows_spec):
        cells = {
            idiom: seg(sid, idiom, k) if sid is not None else None
            for idiom, sid in spec.items()
        }
        rows.append(MultiParallelRow(cells=cells, provenance="t"))
    return rows


class TestMultiPRF:
    def gold(self):
        return GoldAlignment(
            idioms=["x", "y", "z"],
            rows=[
                {"x": ("x0",), "y": ("y0",), "z": ("z0",)},
                {"x": ("x1",), "y": ("y1",), "z": ()},
            ],
        )

    def test_identical_alignment_scores_one_everywhere(self):
        hyp = make_alignment([
            {"x": "x0", "y": "y0", "z": "z0"},
            {"x": "x1", "y": "y1", "z": None},
        ])
        table, macro = multi_prf(hyp, self.gold())
        assert set(table) == {("x", "y"), ("x", "z"), ("y", "z")}
        for prf in table.values():
            assert prf.f1 == 1.0
        assert macro.f1 == 1.0

    def test_macro_is_unweighted_mean(self):
        # (x, y) pair fully right, pairs with z fully wrong.
        hyp = make_alignment([
            {"x": "x0", "y": "y0", "z": "z1"},
            {"x": "x1", "y": "y1", "z": None},
        ])
        table, macro = multi_prf(hyp, self.gold())
        assert table[("x", "y")].f1 == 1.0
        assert table[("x", "z")].f1 == 0.0
        assert table[("y", "z")].f1 == 0.0
        assert macro.precision == pytest.approx(1 / 3)
        assert macro.f1 == pytest.approx(1 / 3)

    def test_empty_hypothesis(self):
        table, macro = multi_prf(make_alignment([]), self.gold())
        assert macro == PRF(0.0, 0.0, 0.0)
        assert all(p.recall == 0.0 for p in table.values())

    def test_gold_deletion_not_demanded(self):
        # Gold row 2 has no z cell, so a null z in the hypothesis row is
        # neither rewarded nor punished on pairs involving z.
        hyp = make_alignment([
            {"x": "x0", "y": "y0", "z": "z0"},
            {"x": "x1", "y": "y1", "z": None},
        ])
        table, _ = multi_prf(hyp, self.gold())
        assert table[("x", "z")].precision == 1.0
        assert table[("x", "z")].recall == 1.0


def unit_matrix(rows):
    arr = np.asarray(rows, dtype=np.float64)
    arr = arr / np.linalg.norm(arr, axis=1, keepdims=True)
    return arr.astype(np.float32)


class TestGreedyAccuracy:
    def test_self_alignment_is_one(self):
        rng = np.random.default_rng(1)
        m = unit_matrix(rng.normal(size=(10, 16)))
        pairs = [(i, i) for i in range(10)]
        assert greedy_accuracy(m, m, pairs) == 1.0

    def test_constructed_half_wrong(self):
        src = unit_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
        tgt = unit_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.9, 0.1, 0]])
        # Sources 0 and 3 both hit target 0 first; gold says 3 -> 3.
        pairs = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert greedy_accuracy(src, tgt, pairs) == pytest.approx(0.75)
        assert greedy_accuracy(src, tgt, [(3, 3), (3, 0)]) == pytest.approx(0.5)

    def test_ties_go_to_lowest_index(self):
        src = unit_matrix([[1, 0]])
        tgt = unit_matrix([[1, 0], [1, 0]])
        assert greedy_accuracy(src, tgt, [(0, 0)]) == 1.0
        assert greedy_accuracy(src, tgt, [(0, 1)]) == 0.0

    def test_empty_gold_errors(self):
        m = unit_matrix([[1, 0]])
        with pytest.raises(PolyalignError, match="greedy_accuracy requires at least one gold pair"):
            greedy_accuracy(m, m, [])

    def test_out_of_range_pair_errors(self):
        m = unit_matrix([[1, 0]])
        with pytest.raises(PolyalignError, match=r"gold pair \(0, 5\) out of range for \(1, 1\)"):
            greedy_accuracy(m, m, [(0, 5)])


class TestLoadGold:
    def write(self, tmp_path, text):
        p = tmp_path / "gold.tsv"
        p.write_text(text, encoding="utf-8")
        return p

    def index(self, *ids):
        """A corpus index holding ``ids``, each in the idiom named by its first letter."""
        return {sid: seg(sid, sid[0]) for sid in ids}

    def test_basic_rows(self, tmp_path):
        p = self.write(tmp_path, "x\ty\nx0\ty0\nx1;x2\t\n")
        gold = load_gold(p, self.index("x0", "x1", "x2", "y0"))
        assert gold.idioms == ["x", "y"]
        assert gold.rows[0] == {"x": ("x0",), "y": ("y0",)}
        assert gold.rows[1] == {"x": ("x1", "x2"), "y": ()}

    def test_short_rows_padded(self, tmp_path):
        gold = load_gold(self.write(tmp_path, "x\ty\tz\nx0\ty0\n"), self.index("x0", "y0", "z0"))
        assert gold.rows[0]["z"] == ()

    def test_duplicate_id_names_both_rows(self, tmp_path):
        p = self.write(tmp_path, "x\ty\nx0\ty0\nx0\ty1\n")
        with pytest.raises(PolyalignError, match="rows 1 and 2"):
            load_gold(p, self.index("x0", "y0", "y1"))

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(PolyalignError, match=r"gold\.tsv: empty gold file$"):
            load_gold(self.write(tmp_path, ""), self.index("x0"))

    def test_all_empty_row_errors(self, tmp_path):
        # Stray separators with no ids leave every cell empty.
        with pytest.raises(PolyalignError, match="row 1"):
            load_gold(self.write(tmp_path, "x\ty\n;\t;\n"), self.index("x0", "y0"))

    def test_header_must_be_idiom_codes(self, tmp_path):
        p = self.write(tmp_path, '{\n "dim": 256\n}\n')
        with pytest.raises(PolyalignError, match=r"gold\.tsv: not a gold file \(invalid idiom code"):
            load_gold(p, self.index("x0", "y0"))

    @pytest.mark.parametrize("header", ["x", "x\tx"])
    def test_header_must_name_two_distinct_idioms(self, tmp_path, header):
        p = self.write(tmp_path, f"{header}\nx0\n")
        expected = {"x": "the header must name two or more idioms", "x\tx": "gold header: idiom x names two columns"}
        with pytest.raises(PolyalignError, match=rf"gold\.tsv: {expected[header]}$"):
            load_gold(p, self.index("x0", "x1", "y0"))

    def test_cell_beyond_the_header_names_the_file_and_row(self, tmp_path):
        p = self.write(tmp_path, "x\ty\nx0\ty0\nx1\t\ty1\n")
        with pytest.raises(PolyalignError, match=r"gold\.tsv: gold row 2: a cell lies beyond the header's 2 columns$"):
            load_gold(p, self.index("x0", "x1", "y0", "y1"))

    def test_idioms_must_be_in_the_corpus(self, tmp_path):
        p = self.write(tmp_path, "x\tw\nx0\t\n")
        with pytest.raises(PolyalignError, match=r"gold\.tsv: idiom\(s\) w not in the corpus"):
            load_gold(p, self.index("x0", "y0"))

    def test_ids_must_be_corpus_segments_of_their_idiom(self, tmp_path):
        index = self.index("x0", "y0")
        for cells in ("x9\ty0", "y0\tx0"):
            p = self.write(tmp_path, f"x\ty\n{cells}\n")
            with pytest.raises(PolyalignError, match=r"gold\.tsv: gold row 1 names '[xy]\d', no x segment"):
                load_gold(p, index)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_bytes(b"x\ty\n\xff\xfe\n")
        with pytest.raises(PolyalignError, match=r"gold\.tsv: not a gold file"):
            load_gold(p, self.index("x0", "y0"))
