"""Synthetic 5-variety fixture corpus with known gold alignment.

Varieties derive from a shared base text by deterministic character
perturbations (~10% rate), plus ~10% variety-specific inserted segments,
so the true row structure is known by construction.

Every element is a plain ``<p>`` unless ``markup`` is on. Then each element
takes one of ``MARKUP_FORMS``, which all yield one segment with the plain
form's text, so the gold and the segment texts do not change.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from polyalign.evaluate import GoldAlignment
from polyalign.model import (
    BookVolume,
    make_segment_id,
    normalize_chapter_key,
)

# The five Romansh idioms the fixture's varieties are named after.
CANONICAL_IDIOMS = ("sursilvan", "sutsilvan", "surmiran", "puter", "vallader")

CONSONANTS = "bcdfglmnprstvz"
VOWELS = "aeiou"
ALPHABET = CONSONANTS + VOWELS

# Element forms of the markup shape; the first is the plain one.
MARKUP_FORMS = (
    "<p>{}</p>",
    '<P class="x">{}</P>',
    "<ul><li>{}</li></ul>",
    "<div><p>{}<br></p></div>",
    "<table><tr><td>{}</td></tr></table>",
    "<p><em>{}</em></p>",
)


def _word(rng: random.Random) -> str:
    n_syll = rng.choice([1, 2, 2, 3, 3, 4])
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n_syll))


def _base_segment(rng: random.Random) -> str:
    # Mostly medium segments; a few short, low-signal ones to keep the
    # aligner fallible (needed for the consensus-vs-pivot comparison).
    n_words = rng.choice([4] + list(range(6, 14)) * 2)
    return " ".join(_word(rng) for _ in range(n_words))


def _char_map(idiom: str, seed: int) -> dict[str, str]:
    """Systematic per-variety orthography: vowels map to vowels, consonants
    to consonants, fixed for the variety."""
    rng = random.Random(f"{seed}/map/{idiom}")
    cmap = {}
    shuffled_v = list(VOWELS)
    rng.shuffle(shuffled_v)
    for a, b in zip(VOWELS, shuffled_v):
        cmap[a] = b
    shuffled_c = list(CONSONANTS)
    rng.shuffle(shuffled_c)
    for a, b in zip(CONSONANTS, shuffled_c):
        cmap[a] = b
    return cmap


def _divergence_sites(text: str, rng: random.Random, rate: float) -> set[int]:
    """Character positions where the varieties realize different forms.

    Sites are shared across varieties (divergence concentrates at the same
    morphological slots, mostly vowels), mimicking how related varieties
    differ in surface form while agreeing in structure. The per-character
    rate works out to roughly ``rate`` since vowels are half the letters.
    """
    return {
        i
        for i, ch in enumerate(text)
        if (ch in VOWELS and rng.random() < 1.45 * rate)
        or (ch in CONSONANTS and rng.random() < rate / 4)
    }


def _realize(text: str, sites: set[int], cmap: dict[str, str]) -> str:
    out = [cmap[ch] if i in sites and ch in cmap else ch for i, ch in enumerate(text)]
    return "".join(out)


@dataclass
class SynthCorpus:
    volumes: list[BookVolume]
    mapping_tsv: str
    gold: GoldAlignment
    raw_docs: dict[str, str]  # filename -> raw volume JSON
    gold_tsv: str
    grades: dict[str, int]  # volume_id -> grade


def generate(
    seed: int = 0,
    n_groups: int = 40,
    segs_per_chapter: int = 30,
    perturb_rate: float = 0.10,
    insert_rate: float = 0.10,
    idioms: tuple[str, ...] = CANONICAL_IDIOMS,
    chapters_per_volume: int = 10,
    markup: bool = False,
    markup_drift: float = 0.0,
) -> SynthCorpus:
    """The fixture corpus. With ``markup``, each base segment slot draws one
    element form for every idiom, and with probability ``markup_drift`` an
    idiom draws its own form for the slot instead; an inserted segment always
    draws its own. The forms come from their own random streams, so the texts
    do not depend on them."""
    base_rng = random.Random(seed)
    n_volumes = (n_groups + chapters_per_volume - 1) // chapters_per_volume

    # Shared base text per (group, segment slot), with shared divergence sites.
    base_texts = [
        [_base_segment(base_rng) for _ in range(segs_per_chapter)] for _ in range(n_groups)
    ]
    # Schoolbook-style repetition: two adjacent segments per chapter reuse
    # the same wording with one word changed, making them confusable for a
    # monotone aligner.
    for chapter in base_texts:
        for _ in range(2):
            a = base_rng.randrange(len(chapter) - 1)
            words = chapter[a].split()
            words[base_rng.randrange(len(words))] = _word(base_rng)
            chapter[a + 1] = " ".join(words)
    site_rng = random.Random(f"{seed}/sites")
    sites = [
        [_divergence_sites(t, site_rng, perturb_rate) for t in chapter]
        for chapter in base_texts
    ]
    char_maps = {idiom: _char_map(idiom, seed) for idiom in idioms}
    form_rng = random.Random(f"{seed}/markup")
    base_forms = [
        [form_rng.choice(MARKUP_FORMS) for _ in range(segs_per_chapter)] for _ in range(n_groups)
    ] if markup else None

    raw_docs: dict[str, str] = {}
    gold_cells: dict[tuple[int, int], dict[str, tuple[str, ...]]] = {}
    grades: dict[str, int] = {}

    for idiom in idioms:
        for vol_idx in range(n_volumes):
            volume_id = f"vol{vol_idx + 1:02d}"
            grade = vol_idx + 1
            grades[volume_id] = grade
            chapters = []
            lo = vol_idx * chapters_per_volume
            hi = min(lo + chapters_per_volume, n_groups)
            for g in range(lo, hi):
                title = f"Chapter {g:03d}"
                key = normalize_chapter_key(title)
                var_rng = random.Random(f"{seed}/{idiom}/{g}")
                texts = [
                    _realize(t, s, char_maps[idiom])
                    for t, s in zip(base_texts[g], sites[g])
                ]
                slots: list[tuple[int | None, str]] = list(enumerate(texts))
                n_inserts = round(insert_rate * segs_per_chapter)
                for k in range(n_inserts):
                    pos = var_rng.randrange(len(slots))
                    if k < n_inserts - 1:
                        extra = _base_segment(var_rng)
                    else:
                        # Variety-specific variant of a neighboring segment:
                        # similar enough to tempt the aligner.
                        words = slots[pos][1].split()
                        words[var_rng.randrange(len(words))] = _word(var_rng)
                        extra = " ".join(words)
                    slots.insert(pos, (None, extra))
                if base_forms is None:
                    forms = [MARKUP_FORMS[0]] * len(slots)
                else:
                    own_rng = random.Random(f"{seed}/markup/{idiom}/{g}")
                    forms = [
                        own_rng.choice(MARKUP_FORMS)
                        if slot is None or own_rng.random() < markup_drift
                        else base_forms[g][slot]
                        for slot, _ in slots
                    ]
                elements = [{"html": form.format(text)} for form, (_, text) in zip(forms, slots)]
                for final_pos, (slot, _text) in enumerate(slots):
                    if slot is not None:
                        gold_cells.setdefault((g, slot), {})[idiom] = (
                            make_segment_id(idiom, volume_id, key, final_pos),
                        )
                chapters.append({"title": title, "elements": elements})
            raw_docs[f"{idiom}-{volume_id}.json"] = json.dumps(
                {
                    "idiom": idiom,
                    "volume_id": volume_id,
                    "grade": grade,
                    "kind": "workbook",
                    "chapters": chapters,
                }
            )

    # Parse the raw docs through the real ingestion path is the caller's
    # job for end-to-end tests; build the in-memory corpus directly here.
    from polyalign.ingest import parse_volume

    volumes = [parse_volume(raw_docs[name]) for name in sorted(raw_docs)]
    volumes.sort(key=lambda v: (v.idiom, v.volume_id))

    header = "\t".join(idioms)
    mapping_lines = [header]
    for g in range(n_groups):
        vol_idx = g // chapters_per_volume
        key = normalize_chapter_key(f"Chapter {g:03d}")
        mapping_lines.append(
            "\t".join(f"vol{vol_idx + 1:02d}#{key}" for _ in idioms)
        )
    mapping_tsv = "\n".join(mapping_lines) + "\n"

    gold_rows = [gold_cells[k] for k in sorted(gold_cells)]
    gold = GoldAlignment(idioms=list(idioms), rows=gold_rows)
    gold_lines = [header]
    for row in gold_rows:
        gold_lines.append("\t".join(";".join(row.get(i, ())) for i in idioms))
    gold_tsv = "\n".join(gold_lines) + "\n"

    return SynthCorpus(
        volumes=volumes,
        mapping_tsv=mapping_tsv,
        gold=gold,
        raw_docs=raw_docs,
        gold_tsv=gold_tsv,
        grades=grades,
    )


def write_fixture(corpus: SynthCorpus, root: Path) -> tuple[Path, Path, Path]:
    """Write the corpus's raw volumes to ``root/raw``, its chapter mapping to
    ``root/mapping.tsv`` and its gold rows to ``root/gold.tsv``; return the three paths."""
    raw = root / "raw"
    raw.mkdir()
    for name, doc in corpus.raw_docs.items():
        (raw / name).write_text(doc, encoding="utf-8")
    mapping = root / "mapping.tsv"
    mapping.write_text(corpus.mapping_tsv, encoding="utf-8")
    gold = root / "gold.tsv"
    gold.write_text(corpus.gold_tsv, encoding="utf-8")
    return raw, mapping, gold
