"""Benchmark inputs from ``tests/synth.generate``, checked against fingerprints.

Two corpus shapes, both five idioms and 6,600 segments:

- ``paper``: 40 chapter groups of 30 base segments (about 33 per idiom
  after insertions), 20 volumes, 400 chapter pairs;
- ``long``: 4 chapter groups of 300 base segments (about 330 per idiom),
  5 volumes, 40 chapter pairs.

A fingerprint is the segment count plus the SHA-256 of the raw volume
documents and of the chapter mapping. ``fingerprints.json`` holds them for
seeds 0-63 of both shapes. A seed outside that table is checked through a
canary instead: seed 0 of the same shape is generated and must match its
entry. Either way an edit to ``tests/synth.py`` fails the run loudly
instead of passing as a change to the program.

Run ``python3 bench/inputs.py`` from the repository root to print the
fingerprints anew; ``--write`` rewrites ``bench/fingerprints.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RECORDED_SEEDS = range(64)

SHAPES = {
    "paper": {"n_groups": 40, "segs_per_chapter": 30},
    "long": {"n_groups": 4, "segs_per_chapter": 300},
}


class FingerprintError(Exception):
    pass


def fingerprint(corpus) -> dict:
    raw = hashlib.sha256()
    for name in sorted(corpus.raw_docs):
        raw.update(name.encode() + b"\0" + corpus.raw_docs[name].encode() + b"\0")
    segments = sum(
        len(chapter["elements"])
        for doc in corpus.raw_docs.values()
        for chapter in json.loads(doc)["chapters"]
    )
    return {
        "segments": segments,
        "raw_sha256": raw.hexdigest(),
        "mapping_sha256": hashlib.sha256(corpus.mapping_tsv.encode()).hexdigest(),
    }


def _generate(shape: str, seed: int):
    from synth import generate

    return generate(seed=seed, **SHAPES[shape])


def generate(shape: str, seed: int):
    """The shape's corpus at ``seed``, after its fingerprint check."""
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        recorded = json.load(fh)[shape]
    corpus = _generate(shape, seed)
    if str(seed) in recorded:
        got, want = fingerprint(corpus), recorded[str(seed)]
    else:
        got, want = fingerprint(_generate(shape, 0)), recorded["0"]
    if got != want:
        raise FingerprintError(
            f"{shape} inputs do not match bench/fingerprints.json "
            f"(got {got}, want {want}); tests/synth.py changed"
        )
    return corpus


def main() -> None:
    root = os.path.dirname(HERE)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    table = {
        shape: {str(seed): fingerprint(_generate(shape, seed)) for seed in RECORDED_SEEDS}
        for shape in SHAPES
    }
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
