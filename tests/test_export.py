import json

import pytest

from polyalign.export import (
    export_bitext,
    export_rows,
    load_rows,
    render_stats,
    sample_rows,
    split_rows,
    stats,
    write_sheet,
)
from polyalign.model import (
    BookVolume,
    Chapter,
    MultiParallelRow,
    PolyalignError,
    Segment,
)


def seg(idiom, vol, pos, text):
    return Segment(
        id=f"{idiom}/{vol}/c/{pos}", idiom=idiom, position=pos,
        html=f"<p>{text}</p>", text=text, token_count=len(text.split()),
    )


def make_corpus():
    """Two idioms, two volumes each, three segments per volume."""
    volumes = []
    segments = {}
    for idiom in ("puter", "vallader"):
        for vol in ("vol01", "vol02"):
            segs = tuple(
                seg(idiom, vol, p, f"{idiom} {vol} word{p}") for p in range(3)
            )
            for s in segs:
                segments[s.id] = s
            volumes.append(
                BookVolume(idiom=idiom, volume_id=vol, grade=1, kind="workbook",
                           chapters=(Chapter(key="c", title="C", segments=segs),))
            )
    return volumes, segments


def make_rows(segments, specs, provenance="g001"):
    """Rows with the ids ``build_rows`` gives them: provenance, /r, index."""
    rows = []
    for spec in specs:
        cells = {
            idiom: segments[sid] if sid is not None else None
            for idiom, sid in spec.items()
        }
        rows.append(MultiParallelRow(cells=cells, provenance=provenance, row_id=f"{provenance}/r{len(rows):05d}"))
    return rows


@pytest.fixture()
def corpus():
    return make_corpus()


@pytest.fixture()
def alignment(corpus):
    _, segments = corpus
    return make_rows(segments, [
        {"puter": "puter/vol01/c/0", "vallader": "vallader/vol01/c/0"},
        {"puter": "puter/vol01/c/1", "vallader": None},
        {"puter": "puter/vol02/c/0", "vallader": "vallader/vol02/c/0"},
    ])


class TestRowsRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path, corpus, alignment):
        _, segments = corpus
        path = tmp_path / "rows.jsonl"
        n = export_rows(alignment, path)
        assert n == 3
        back = load_rows(path, segments)
        assert len(back) == 3
        for orig, loaded in zip(alignment, back):
            assert loaded.cells == orig.cells
            assert loaded.provenance == orig.provenance
            assert loaded.flags == orig.flags

    def test_blank_lines_are_skipped(self, tmp_path, corpus, alignment):
        _, segments = corpus
        path = tmp_path / "rows.jsonl"
        export_rows(alignment, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n" + "\n \n".join(lines) + "\n\n", encoding="utf-8")
        assert load_rows(path, segments) == alignment

    def test_double_export_is_byte_identical(self, tmp_path, alignment):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_rows(alignment, p1)
        export_rows(alignment, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_ids_are_sequential(self, tmp_path, alignment):
        path = tmp_path / "rows.jsonl"
        export_rows(alignment, path)
        ids = [json.loads(l)["row_id"] for l in path.read_text().splitlines()]
        assert ids == ["g001/r00000", "g001/r00001", "g001/r00002"]

    def test_unknown_segment_on_load_errors(self, tmp_path, alignment):
        path = tmp_path / "rows.jsonl"
        export_rows(alignment, path)
        with pytest.raises(PolyalignError, match="unknown segment"):
            load_rows(path, {})

    def test_non_ascii_is_preserved_verbatim(self, tmp_path):
        s = seg("puter", "vol01", 0, "chavà tschêl")
        rows = [MultiParallelRow(cells={"puter": s}, provenance="g")]
        path = tmp_path / "rows.jsonl"
        export_rows(rows, path)
        assert "chavà tschêl" in path.read_text(encoding="utf-8")


class TestBitext:
    def test_only_complete_pairs_emitted(self, tmp_path, corpus, alignment):
        path = tmp_path / "bitext.tsv"
        n = export_bitext(corpus[0], alignment, "puter", "vallader", path)
        assert n == 2
        lines = path.read_text().splitlines()
        assert lines[0] == "puter vol01 word0\tvallader vol01 word0"

    def test_tabs_and_newlines_sanitized(self, tmp_path):
        a = Segment(id="x/v/c/0", idiom="x", position=0, html="<p>a</p>",
                    text="a\tb\nc", token_count=3)
        b = seg("y", "v", 0, "d")
        rows = [MultiParallelRow(cells={"x": a, "y": b}, provenance="g")]
        volumes = [BookVolume(idiom=s.idiom, volume_id="v", grade=1, kind="workbook",
                              chapters=(Chapter(key="c", title="C", segments=(s,)),)) for s in (a, b)]
        path = tmp_path / "bitext.tsv"
        export_bitext(volumes, rows, "x", "y", path)
        line = path.read_text().splitlines()[0]
        assert line == "a b c\td"

    def test_absent_idiom_errors(self, tmp_path, corpus, alignment):
        with pytest.raises(PolyalignError, match="sursilvan"):
            export_bitext(corpus[0], alignment, "puter", "sursilvan", tmp_path / "o.tsv")


class TestStats:
    def test_counts_match_independent_oracle(self, corpus, alignment):
        volumes, _ = corpus
        report = stats(volumes, alignment)

        # Independent tally written directly from the raw structures.
        for idiom in ("puter", "vallader"):
            all_segs = [
                s for v in volumes if v.idiom == idiom
                for c in v.chapters for s in c.segments
            ]
            aligned_ids = {
                s.id for row in alignment
                if len(row.non_null()) >= 2
                for s in row.non_null().values() if s.idiom == idiom
            }
            assert report["per_idiom"][idiom] == {
                "volumes": 2,
                "segments": len(all_segs),
                "tokens": sum(s.token_count for s in all_segs),
                "aligned_segments": len(aligned_ids),
                "aligned_tokens": sum(s.token_count for s in all_segs if s.id in aligned_ids),
            }
        for key, value in report["total"].items():
            assert value == sum(s[key] for s in report["per_idiom"].values())

    def test_single_cell_rows_not_aligned(self, corpus):
        volumes, segments = corpus
        rows = make_rows(segments, [{"puter": "puter/vol01/c/0", "vallader": None}])
        report = stats(volumes, rows)
        assert report["per_idiom"]["puter"]["aligned_segments"] == 0

    def test_duplicate_segment_counted_once(self, corpus):
        volumes, segments = corpus
        rows = make_rows(segments, [
            {"puter": "puter/vol01/c/0", "vallader": "vallader/vol01/c/0"},
            {"puter": "puter/vol01/c/0", "vallader": "vallader/vol01/c/1"},
        ])
        report = stats(volumes, rows)
        assert report["per_idiom"]["puter"]["aligned_segments"] == 1

    def test_render_and_dict_agree(self, corpus, alignment):
        volumes, _ = corpus
        report = stats(volumes, alignment)
        text = render_stats(report)
        assert "Total" in text
        for idiom, s in report["per_idiom"].items():
            assert idiom in text
            assert str(s["segments"]) in text
        assert str(report["total"]["tokens"]) in text.splitlines()[-1]


class TestSplitRows:
    def test_partition_by_volume(self, alignment):
        assignment = {"vol01": "train", "vol02": "test"}
        out = split_rows(alignment, assignment)
        assert len(out["train"]) == 2
        assert len(out["test"]) == 1
        assert len(out["validation"]) == 0
        total = sum(len(a) for a in out.values())
        assert total == len(alignment)

    def test_conflicting_row_dropped_and_logged(self, corpus):
        _, segments = corpus
        rows = make_rows(segments, [
            {"puter": "puter/vol01/c/0", "vallader": "vallader/vol02/c/0"},
        ])
        conflicts = []
        out = split_rows(rows, {"vol01": "train", "vol02": "test"}, conflicts)
        assert all(len(a) == 0 for a in out.values())
        assert conflicts == [{"row_id": "g001/r00000", "splits": ["test", "train"]}]

    def test_unassigned_volume_errors(self, alignment):
        with pytest.raises(PolyalignError, match="vol02"):
            split_rows(alignment, {"vol01": "train"})

    def test_unknown_split_name_errors(self, alignment):
        with pytest.raises(PolyalignError, match="dev"):
            split_rows(alignment, {"vol01": "dev", "vol02": "dev"})

    def test_split_value_that_is_not_a_string_errors(self, alignment):
        with pytest.raises(PolyalignError, match=r"'vol01' maps to \['train'\]"):
            split_rows(alignment, {"vol01": ["train"], "vol02": "train"})

    def test_unknown_split_name_is_rejected_not_logged_as_a_conflict(self, corpus):
        _, segments = corpus
        rows = make_rows(segments, [
            {"puter": "puter/vol01/c/0", "vallader": "vallader/vol02/c/0"},
        ])
        conflicts = []
        with pytest.raises(PolyalignError, match="'vol02' maps to 'dev'"):
            split_rows(rows, {"vol01": "train", "vol02": "dev"}, conflicts)
        assert conflicts == []


class TestSampleRows:
    def test_same_seed_same_sheet(self, alignment):
        h1, s1 = sample_rows(alignment, 2, seed=7)
        h2, s2 = sample_rows(alignment, 2, seed=7)
        assert (h1, s1) == (h2, s2)

    def test_rows_are_distinct(self, alignment):
        _, sheet = sample_rows(alignment, 3, seed=1)
        ids = [r[0] for r in sheet]
        assert len(set(ids)) == 3

    def test_oversampling_errors(self, alignment):
        with pytest.raises(PolyalignError, match="cannot sample 4 of 3 rows"):
            sample_rows(alignment, 4, seed=0)

    def test_header_covers_all_idioms(self, alignment):
        header, sheet = sample_rows(alignment, 1, seed=0)
        assert header == ["row_id", "puter", "vallader"]
        assert len(sheet[0]) == len(header)

    def test_write_sheet_round_trip(self, tmp_path, alignment):
        header, sheet = sample_rows(alignment, 2, seed=3)
        path = tmp_path / "sheet.tsv"
        write_sheet(header, sheet, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == header
        assert len(lines) == 3
