import contextlib
import json
import re
from html import escape, unescape
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import polyalign.ingest as ingest
from polyalign.ingest import (
    build_chapter_groups,
    parse_volume,
    segment_html,
)
from polyalign.model import PolyalignError

from oracles import nfc_runs, segment_html_reference
from synth import generate

PLAIN_TAGS = ("p", "li", "td", "th", "h1", "h2", "h3", "h4", "h5", "h6", "div")


def volume_doc(chapters, idiom="sursilvan", volume_id="v1"):
    return json.dumps(
        {"idiom": idiom, "volume_id": volume_id, "grade": 2, "kind": "workbook", "chapters": chapters}
    )


def markup_trees():
    """Nested block, container and inline markup whose text holds ``<``, ``>`` and ``&``."""
    text = st.text(alphabet="ab <>&", max_size=6).map(lambda t: escape(t, quote=False))
    tags = st.sampled_from(["p", "li", "td", "h2", "div", "ul", "section", "strong", "em", "span"])
    values = st.text(alphabet='a<>&"', max_size=4)
    title = st.one_of(st.just(""), values.map(lambda v: f' title="{escape(v)}"'))
    return st.recursive(
        text,
        lambda inner: st.tuples(tags, title, st.lists(inner, max_size=4)).map(
            lambda node: f"<{node[0]}{node[1]}>{''.join(node[2])}</{node[0]}>"
        ),
        max_leaves=12,
    )


def tag_soup():
    """Unbalanced markup: open, closed and self-closed block, container, inline and
    void tags, ``<script>`` and ``<style>``, stray closing tags, valued and bare
    attributes, and text holding ``<``, ``>``, ``&``, tabs and characters that NFC
    composes, U+0338 among them, which composes with a ``>``."""
    names = st.sampled_from(["p", "li", "td", "th", "h3", "div", "ul", "tr", "table", "section",
                             "strong", "em", "span", "br", "img", "hr", "LI", "Strong",
                             "script", "style", "Style"])
    value = st.text(alphabet='a<>&" ', max_size=4).map(lambda v: f'="{escape(v)}"')
    attrs = st.lists(st.tuples(st.sampled_from([" title", " hidden"]), st.just("") | value)
                     .map("".join), max_size=2).map("".join)
    tag = st.tuples(st.sampled_from(["<{0}{1}>", "</{0}>", "<{0}{1}/>"]), names, attrs).map(
        lambda t: t[0].format(t[1], t[2]))
    text = st.text(alphabet="ae <>&\t\n\u0301\u0338\u212b", max_size=6) | st.sampled_from(["&lt;", "&amp;b"])
    return st.lists(tag | text, max_size=12).map("".join)


def plain_elements():
    """One attribute-free block tag around text with no ``<``, ``>`` or ``&``: blank
    or not, with whitespace that ``str.split`` and HTML tell apart, quotes, ``=``, ``/``
    and characters that NFC changes, U+0338 among them, which composes with a ``>``."""
    text = st.text(alphabet="ab \t\n\r\x0c\xa0\u2028\"'=/\u00df\u0301\u0338", max_size=8)
    return st.tuples(st.sampled_from(PLAIN_TAGS), text).map(lambda t: f"<{t[0]}>{t[1]}</{t[0]}>")


@contextlib.contextmanager
def counting_tree_builders():
    """Yield a list that gains one item per ``_TreeBuilder`` that ingest makes in the block."""
    built = []

    class Counting(ingest._TreeBuilder):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.source)

    with mock.patch.object(ingest, "_TreeBuilder", Counting):
        yield built


def check_against_reference(markup) -> int:
    """Assert that segment_html's candidates and warnings for ``markup`` equal the
    two-renderer segmenter's, and return how many parse trees segment_html built."""
    warnings, expected_warnings = [], []
    with counting_tree_builders() as built:
        out = segment_html(markup, warnings, "vol#element0")
    # The reference keeps markup as parsed; the segmenter NFC-normalizes each run of character data.
    expected = [(t, nfc_runs(h)) for t, h in segment_html_reference(markup, expected_warnings, "vol#element0")]
    assert out == expected
    assert warnings == expected_warnings
    return len(built)


def assert_valid_segments(vol):
    """Each segment's text is non-blank, has at least one token and keeps only ``<strong>`` tags."""
    for chap in vol.chapters:
        for seg in chap.segments:
            assert seg.text.strip() and seg.token_count >= 1
            assert set(re.findall(r"</?\s*([a-zA-Z0-9]+)", seg.text)) <= {"strong"}


def content(markup):
    """Characters of markup with every tag removed and escapes decoded, whitespace collapsed."""
    return " ".join(unescape(re.sub(r"<[^>]*>", "", markup)).split())


class TestSegmentHtml:
    def test_paragraph_and_list_items(self):
        out = segment_html("<p>A</p><ul><li>B</li><li>C</li></ul>")
        assert [t for t, _ in out] == ["A", "B", "C"]

    def test_strong_is_retained(self):
        out = segment_html("<p>x <strong>y</strong> z</p>")
        assert out == [("x <strong>y</strong> z", "<p>x <strong>y</strong> z</p>")]

    def test_other_inline_tags_are_stripped(self):
        out = segment_html("<p>a <em>b</em> <span>c</span></p>")
        assert [t for t, _ in out] == ["a b c"]

    def test_empty_input(self):
        assert segment_html("") == []

    def test_whitespace_only_paragraph_dropped(self):
        assert segment_html("<p>  </p>") == []

    def test_plain_text_is_one_segment(self):
        assert segment_html("just text") == [("just text", "just text")]

    def test_table_cells_are_segments(self):
        out = segment_html("<table><tr><td>a</td><td>b</td></tr><tr><th>c</th></tr></table>")
        assert [t for t, _ in out] == ["a", "b", "c"]

    def test_headings_are_segments(self):
        out = segment_html("<h1>T</h1><p>body</p>")
        assert [t for t, _ in out] == ["T", "body"]

    def test_nested_list_flattens_to_innermost_items(self):
        out = segment_html("<ul><li>B<ul><li>C</li></ul></li></ul>")
        assert [t for t, _ in out] == ["B", "C"]

    def test_leaf_div_is_a_segment(self):
        out = segment_html("<div>x</div>")
        assert [t for t, _ in out] == ["x"]

    def test_div_with_block_children_is_a_container(self):
        out = segment_html("<div><p>a</p><p>b</p></div>")
        assert [t for t, _ in out] == ["a", "b"]

    def test_unbalanced_markup_recovers_with_warning(self):
        warnings = []
        out = segment_html("<p>a<p>b</li>", warnings)
        assert [t for t, _ in out] == ["a", "b"]
        assert warnings

    def test_br_becomes_space_not_a_split(self):
        out = segment_html("<p>a<br>b</p>")
        assert [t for t, _ in out] == ["a b"]

    def test_whitespace_collapses(self):
        out = segment_html("<p>  a \n\t b  </p>")
        assert [t for t, _ in out] == ["a b"]

    @given(
        st.lists(
            st.text(alphabet="abc xyz", min_size=0, max_size=12),
            min_size=0,
            max_size=5,
        )
    )
    def test_no_content_loss_or_invention(self, texts):
        html = "".join(f"<p>{t}</p>" for t in texts)
        out = segment_html(html)
        strip = lambda s: re.sub(r"\s+|<[^>]+>", "", s)
        assert "".join(strip(t) for t, _ in out) == strip("".join(texts))

    def test_candidate_html_is_nfc(self):
        # Re-rendered markup: two blocks, one decomposed, one precomposed.
        out = segment_html("<p>cafe\u0301</p><p>caf\u00e9</p>")
        assert out == [("caf\u00e9", "<p>caf\u00e9</p>")] * 2
        # A single block is re-rendered too.
        assert segment_html("<p>cafe\u0301</p>") == [("caf\u00e9", "<p>caf\u00e9</p>")]

    def test_candidate_html_does_not_depend_on_how_the_element_was_cut(self):
        alone = [("a &lt; b &amp; c", "a &lt; b &amp; c")]
        assert segment_html("a < b & c") == alone
        assert segment_html("a < b & c<p>d</p>")[:1] == alone
        assert segment_html("<P CLASS=x>a < b</P>") == [("a &lt; b", '<p class="x">a &lt; b</p>')]
        assert segment_html("<div><p>a < b</p></div>") == segment_html("<div><p>a < b</p><p>d</p></div>")[:1]

    def test_candidate_html_escapes_text_and_attributes(self):
        out = segment_html('<ul><li>a &lt; b</li><li>c &amp; d</li></ul>')
        assert out == [("a &lt; b", "<li>a &lt; b</li>"), ("c &amp; d", "<li>c &amp; d</li>")]
        out = segment_html('<div><p title="a&quot;b">x</p><p>y</p></div>')
        assert out == [("x", '<p title="a&quot;b">x</p>'), ("y", "<p>y</p>")]

    @given(markup_trees())
    def test_random_nested_markup(self, markup):
        out = segment_html(markup)
        vol = parse_volume(volume_doc([{"title": "One", "elements": [{"html": markup}]}]))
        segs = vol.chapters[0].segments
        assert [seg.text for seg in segs] == [text for text, _ in out]
        assert [seg.position for seg in segs] == list(range(len(segs)))
        assert len({seg.id for seg in segs}) == len(segs)
        assert_valid_segments(vol)
        for text, candidate in out:
            assert [t for t, _ in segment_html(candidate)] == [text]
            assert content(candidate) == content(text)

    @settings(max_examples=2000, deadline=None)
    @given(tag_soup())
    def test_matches_the_two_renderer_segmenter(self, markup):
        check_against_reference(markup)

    @settings(max_examples=1000, deadline=None)
    @given(plain_elements())
    def test_plain_element_skips_the_parser_and_matches_it(self, markup):
        assert check_against_reference(markup) == 0

    @pytest.mark.parametrize("markup", [
        '<p class="x">a b</p>', "<p hidden>a</p>", "<P>a b</P>", "<p>a &amp; b</p>", "<p>a&nbsp;b</p>",
        "<p>a <strong>b</strong></p>", " <p>a</p>", "<p>a</p>\n", "<p>x</li>", "<h1>x</h2>",
        "<p>a</p><p>b</p>", "<span>x</span>", "<ul>x</ul>", "<p>x",
    ])
    def test_near_miss_of_a_plain_element_takes_the_parser(self, markup):
        assert check_against_reference(markup) == 1

    @pytest.mark.parametrize("markup, expected", [
        ("<p>Hi</p><style>p{color:red}</style>", [("Hi", "<p>Hi</p>")]),
        ("<p>Hi<script>var a=1;</script></p>", [("Hi", "<p>Hi</p>")]),
        ("<div><script>if (a < b) {}</script></div><p><style>p{}</style></p>", []),
        ("<script>x</script>", []),
    ])
    def test_script_and_style_content_is_not_text(self, markup, expected):
        # Each case takes the parser.
        with counting_tree_builders() as built:
            assert segment_html(markup) == expected
        assert len(built) == 1

    @pytest.mark.parametrize("markup, trees", [("<p>\u0338x</p>", 0), ("<P>\u0338x</P>", 1)])
    def test_a_mark_that_opens_the_text_leaves_the_tag_whole(self, markup, trees):
        # NFC of the whole element would compose ">" and U+0338 into U+226F.
        with counting_tree_builders() as built:
            assert segment_html(markup) == [("\u0338x", "<p>\u0338x</p>")]
        assert len(built) == trees

    # A block element, and a stray inline run outside any block.
    @pytest.mark.parametrize("element", ["<p><strong>\u0338x</strong> y</p>", "<strong>\u0338x</strong> y"])
    def test_a_mark_that_opens_a_strong_run_leaves_its_tag_whole(self, element):
        vol = parse_volume(volume_doc([{"title": "One", "elements": [{"html": element}]}]))
        seg = vol.chapters[0].segments[0]
        assert (seg.text, seg.html) == ("<strong>\u0338x</strong> y", element)
        assert (seg.content(), seg.token_count) == ("\u0338x y", 2)

    def test_a_mark_composes_with_the_text_before_its_tag(self):
        assert segment_html("<p>e<em>\u0301</em></p>") == [("\u00e9", "<p>e<em>\u0301</em></p>")]

    @given(st.text(alphabet="<>e\u0301\u0338\u212b", max_size=12))
    def test_nfc_runs_normalizes_each_run_on_its_own(self, markup):
        assert ingest._nfc_runs(markup) == nfc_runs(markup)

    def test_only_strong_tags_in_output_texts(self):
        out = segment_html("<p><b>a</b> <strong>b</strong> <i>c</i></p>")
        for text, _ in out:
            tags = re.findall(r"</?\s*([a-zA-Z0-9]+)", text)
            assert all(t == "strong" for t in tags)


class TestParseVolume:
    def test_single_chapter_single_element(self):
        vol = parse_volume(volume_doc([{"title": "One", "elements": [{"html": "<p>abc</p>"}]}]))
        assert len(vol.chapters) == 1
        assert len(vol.chapters[0].segments) == 1
        seg = vol.chapters[0].segments[0]
        assert seg.text == "abc"
        assert seg.html == "<p>abc</p>"
        assert seg.id == "sursilvan/v1/one/0"

    @pytest.mark.parametrize("element, text", [
        ("<p>x &lt;em&gt; y</p>", "x &lt;em&gt; y"),
        ("<p>a &lt;b c</p>", "a &lt;b c"),
        ("<p>x <strong>y</strong> &lt;strong&gt; &amp;</p>", "x <strong>y</strong> &lt;strong&gt; &amp;"),
    ])
    def test_escaped_markup_stays_escaped_and_valid(self, element, text):
        vol = parse_volume(volume_doc([{"title": "One", "elements": [{"html": element}]}]))
        seg = vol.chapters[0].segments[0]
        assert (seg.text, seg.html) == (text, element)
        assert_valid_segments(vol)

    def test_real_inline_tag_is_still_stripped(self):
        vol = parse_volume(volume_doc([{"title": "One", "elements": [{"html": "<p>x <em>y</em> z</p>"}]}]))
        assert vol.chapters[0].segments[0].text == "x y z"
        assert_valid_segments(vol)

    @pytest.mark.parametrize("element, tokens", [
        ("<p>a <strong> b</strong> c</p>", 3),
        ("<p>a <strong>b </strong> c</p>", 3),
        ("<p>a &lt;b&gt; c</p>", 3),
    ])
    def test_token_count_counts_the_content(self, element, tokens):
        seg = parse_volume(volume_doc([{"title": "One", "elements": [{"html": element}]}])).chapters[0].segments[0]
        assert seg.token_count == tokens == len(seg.content().split())

    def test_zero_chapters(self):
        vol = parse_volume(volume_doc([]))
        assert vol.chapters == ()

    def test_blank_element_yields_no_segments(self):
        vol = parse_volume(volume_doc([{"title": "One", "elements": [{"html": "<p>  </p>"}]}]))
        assert vol.chapters[0].segments == ()

    def test_positions_are_contiguous_across_elements(self):
        vol = parse_volume(
            volume_doc(
                [{"title": "One", "elements": [{"html": "<p>a</p><p>b</p>"}, {"html": "<p>c</p>"}]}]
            )
        )
        assert [s.position for s in vol.chapters[0].segments] == [0, 1, 2]

    def test_malformed_json_reports_location(self):
        with pytest.raises(PolyalignError, match=r"line \d+"):
            parse_volume(b'{"idiom": "sursilvan", ')

    def test_unknown_idiom_is_config_error(self):
        with pytest.raises(PolyalignError, match="invalid idiom code"):
            parse_volume(volume_doc([], idiom="Not-Valid!"))

    def test_bytes_input_accepted(self):
        vol = parse_volume(volume_doc([]).encode("utf-8"))
        assert vol.idiom == "sursilvan"

    def test_volume_id_must_fit_the_id_grammar(self):
        for bad in ("", "a/b", "a#b", "a b", "a\tb", 7, None):
            with pytest.raises(PolyalignError) as exc:
                parse_volume(volume_doc([], volume_id=bad))
            problem = "not str" if not isinstance(bad, str) else (
                "not a non-empty string free of '/', '#' and whitespace")
            assert str(exc.value) == f"volume document: field 'volume_id' is {bad!r}, {problem}"

    def test_unknown_kind_is_rejected(self):
        doc = json.loads(volume_doc([]))
        doc["kind"] = "reader"
        with pytest.raises(PolyalignError) as exc:
            parse_volume(json.dumps(doc))
        assert str(exc.value) == "volume document: field 'kind' is 'reader', not one of workbook, commentary"

    @pytest.mark.parametrize("grade", [3.7, True, "3"])
    def test_grade_that_is_not_an_integer(self, grade):
        doc = json.loads(volume_doc([]))
        doc["grade"] = grade
        with pytest.raises(PolyalignError) as exc:
            parse_volume(json.dumps(doc))
        assert str(exc.value) == f"volume document: field 'grade' is {grade!r}, not int"

    def test_chapter_key_repeated_in_a_volume(self):
        # "Intro" and "intro!" both normalize to the key "intro".
        chapters = [{"title": "Intro", "elements": [{"html": "<p>a</p>"}]}, {"title": "intro!", "elements": []}]
        with pytest.raises(PolyalignError, match="sursilvan/v1: two chapters have the key 'intro'"):
            parse_volume(volume_doc(chapters))
        assert len(parse_volume(volume_doc(chapters[:1])).chapters) == 1

    @pytest.mark.parametrize("chapter, message", [
        ({"title": 7, "elements": []}, "sursilvan/v1: chapter title 7 is not a string"),
        ({"title": "One", "elements": [{"html": "<p>a</p>"}, {"html": ["<p>b</p>"]}]},
         "sursilvan/v1/one#element1: html ['<p>b</p>'] is not a string"),
    ])
    def test_title_or_html_that_is_not_a_string(self, chapter, message):
        with pytest.raises(PolyalignError) as exc:
            parse_volume(volume_doc([chapter]))
        assert str(exc.value) == message

    @pytest.mark.parametrize("shape", [{}, {"markup": True, "markup_drift": 0.5}], ids=["plain", "markup"])
    def test_only_elements_that_are_not_plain_build_a_parse_tree(self, shape):
        corpus = generate(seed=0, n_groups=2, segs_per_chapter=5, **shape)
        elements = [element["html"] for doc in corpus.raw_docs.values()
                    for chapter in json.loads(doc)["chapters"] for element in chapter["elements"]]
        not_plain = sum(not re.fullmatch(r"<p>[^<>&]*</p>", html) for html in elements)
        with counting_tree_builders() as built:
            for doc in corpus.raw_docs.values():
                parse_volume(doc)
        assert len(built) == not_plain
        assert (not_plain > 0) == bool(shape)


class TestBuildChapterGroups:
    def _volumes(self):
        docs = [
            volume_doc([{"title": "Alpha", "elements": [{"html": "<p>a</p>"}]}], idiom=i, volume_id="v1")
            for i in ("sursilvan", "sutsilvan", "surmiran", "puter", "vallader")
        ]
        return [parse_volume(d) for d in docs]

    def test_five_member_group(self):
        mapping = (
            "sursilvan\tsutsilvan\tsurmiran\tputer\tvallader\n"
            + "\t".join(["v1#alpha"] * 5)
            + "\n"
        )
        groups = build_chapter_groups(self._volumes(), mapping)
        assert len(groups) == 1
        assert sorted(groups[0].members) == ["puter", "surmiran", "sursilvan", "sutsilvan", "vallader"]

    def test_single_cell_row_skipped_with_warning(self):
        mapping = "sursilvan\tsutsilvan\nv1#alpha\t\n"
        warnings = []
        groups = build_chapter_groups(self._volumes(), mapping, warnings)
        assert groups == []
        assert len(warnings) == 1

    def test_empty_chapter_left_out_with_warning(self):
        volumes = self._volumes() + [
            parse_volume(volume_doc([{"title": "Beta", "elements": []}], idiom="puter", volume_id="v2"))
        ]
        mapping = "sursilvan\tputer\tvallader\nv1#alpha\tv2#beta\tv1#alpha\nv1#alpha\tv2#beta\t\n"
        warnings = []
        groups = build_chapter_groups(volumes, mapping, warnings)
        assert [g.group_id for g in groups] == ["g0001"]
        assert sorted(groups[0].members) == ["sursilvan", "vallader"]
        assert [w["source"] for w in warnings] == ["mapping row 1", "mapping row 2", "mapping row 2"]
        assert "idiom puter" in warnings[0]["message"] and "v2#beta" in warnings[0]["message"]
        assert warnings[2]["message"] == "skipped: only 1 member(s), no parallel content"

    def test_dangling_reference_names_the_row(self):
        mapping = "sursilvan\tsutsilvan\nv1#alpha\tv1#missing\n"
        with pytest.raises(PolyalignError, match="row 1"):
            build_chapter_groups(self._volumes(), mapping)

    def test_group_count_bounded_by_mapping_rows(self):
        mapping = (
            "sursilvan\tsutsilvan\n"
            "v1#alpha\tv1#alpha\n"
            "v1#alpha\t\n"
        )
        warnings = []
        groups = build_chapter_groups(self._volumes(), mapping, warnings)
        assert len(groups) <= 2
