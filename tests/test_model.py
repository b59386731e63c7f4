import html
import json

import pytest
from hypothesis import given, settings, strategies as st

from polyalign.model import (
    BookVolume,
    Chapter,
    MultiParallelRow,
    Segment,
    _TAG_RE,
    check_idiom,
    corpus_from_dict,
    count_tokens,
    load_corpus,
    make_segment_id,
    normalize_chapter_key,
    save_corpus,
    segment_index,
    text_content,
    validate_corpus,
    volume_of,
)
from polyalign.multialign import Link

from oracles import corpus_to_dict


def make_segment(idiom="puter", volume="v1", chapter="intro", pos=0, text="hello world"):
    return Segment(
        id=make_segment_id(idiom, volume, chapter, pos),
        idiom=idiom,
        position=pos,
        html=f"<p>{text}</p>",
        text=text,
        token_count=count_tokens(text),
    )


def make_volume(idiom="puter", volume_id="v1", n_segments=3):
    segs = tuple(
        make_segment(idiom, volume_id, "intro", i, f"segment number {i}")
        for i in range(n_segments)
    )
    chapter = Chapter(key="intro", title="Intro", segments=segs)
    return BookVolume(idiom=idiom, volume_id=volume_id, grade=1, kind="workbook", chapters=(chapter,))


class TestValidateCorpus:
    def test_well_formed_volume_gives_empty_report(self):
        assert validate_corpus([make_volume()]) == []

    def test_volume_id_repeated_in_an_idiom(self):
        volumes = [make_volume(), make_volume("vallader"), make_volume(volume_id="v2"), make_volume()]
        assert validate_corpus(volumes) == ["puter/v1: duplicate volume_id"]


def test_check_idiom_rejects_bad_codes():
    for bad in ("", "Sursilvan", "with space", "über", "puter\n"):
        with pytest.raises(ValueError):
            check_idiom(bad)
    assert check_idiom("sursilvan") == "sursilvan"


def test_count_tokens_whitespace_and_nfc():
    assert count_tokens("la polizia ha controllà") == 4
    assert count_tokens("  a\t b\nc ") == 3
    # composed and decomposed forms agree after NFC
    assert count_tokens("é x") == count_tokens("é x")


@given(st.text(alphabet="<>&;#ampltgquox3940 \u0301", max_size=40))
@settings(max_examples=300)
def test_text_content_without_a_tag_skips_only_the_regex(text):
    # A text without "<" holds no tag, so it goes straight to the unescape.
    assert text_content(text) == html.unescape(_TAG_RE.sub("", text))


def test_normalize_chapter_key():
    assert normalize_chapter_key("  L'alfabet, per plaschair!  ") == "l alfabet per plaschair"
    assert normalize_chapter_key("Chapter 003") == "chapter 003"


def test_corpus_round_trip(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(small_corpus.volumes, path)
    reloaded = load_corpus(path)
    assert reloaded == small_corpus.volumes
    # dict-level round trip too
    assert corpus_from_dict(corpus_to_dict(small_corpus.volumes)) == small_corpus.volumes


# Quotes, backslashes, control characters, U+2028 and non-BMP text, among any
# other characters a UTF-8 file can hold (lone surrogates cannot be written).
json_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600'),
                              st.characters(exclude_categories=("Cs",))), max_size=8)


@st.composite
def corpora(draw):
    volumes = []
    for _ in range(draw(st.integers(0, 3))):
        idiom = draw(json_text)
        chapters = tuple(
            Chapter(key=draw(json_text), title=draw(json_text), segments=tuple(
                Segment(id=draw(json_text), idiom=idiom, position=draw(st.integers()), html=draw(json_text),
                        text=draw(json_text), token_count=draw(st.integers()))
                for _ in range(draw(st.integers(0, 3)))
            ))
            for _ in range(draw(st.integers(0, 3)))
        )
        volumes.append(BookVolume(idiom=idiom, volume_id=draw(json_text), grade=draw(st.integers()),
                                  kind=draw(json_text), chapters=chapters))
    return volumes


@given(corpora())
def test_save_corpus_writes_the_json_dump_bytes(tmp_path_factory, volumes):
    path = tmp_path_factory.getbasetemp() / "corpus-property.json"
    save_corpus(volumes, path)
    expected = json.dumps(corpus_to_dict(volumes), ensure_ascii=False, indent=1) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@settings(deadline=None)
@given(st.from_regex(r"[a-z][a-z0-9_-]*", fullmatch=True), st.from_regex(r"[^/#\s]+", fullmatch=True),
       st.integers(), st.sampled_from(["workbook", "commentary"]), json_text, st.integers(0, 3))
def test_segment_ids_of_a_loaded_corpus_parse_back_to_their_volume(tmp_path_factory, idiom, volume_id, grade,
                                                                  kind, key, n_segments):
    segments = tuple(Segment(make_segment_id(idiom, volume_id, key, pos), idiom, pos, "<p>a</p>", "a", 1)
                     for pos in range(n_segments))
    volume = BookVolume(idiom, volume_id, grade, kind, (Chapter(key, "Title", segments),))
    path = tmp_path_factory.getbasetemp() / "corpus-ids.json"
    save_corpus([volume], path)
    assert load_corpus(path) == [volume]
    assert all(volume_of(seg.id) == volume_id for seg in segments)


def test_per_item_records_are_slotted():
    seg = make_segment()
    for record in (seg, Link(src=0, tgt=None), MultiParallelRow(cells={"puter": seg}, provenance="g")):
        assert not hasattr(record, "__dict__")


def test_segment_ids_injective(small_corpus):
    ids = [s.id for v in small_corpus.volumes for c in v.chapters for s in c.segments]
    assert len(ids) == len(set(ids))
    index = segment_index(small_corpus.volumes)
    assert len(index) == len(ids)


def test_segment_length_units():
    seg = make_segment(text="ab cd")
    assert seg.length("tokens") == 2
    assert seg.length("characters") == 5
    assert make_segment(text="<strong>ab</strong> cd").length("characters") == 5
    assert make_segment(text="a &lt; b").length("characters") == 5
    with pytest.raises(ValueError):
        seg.length("bytes")
