"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import hashlib
import json
import random
import time

import numpy as np
import pytest

from oracles import (align_alone, alignment_of, brute_force_align, greedy_accuracy, left_to_right_total,
                     naive_consensus, naive_pivot_join, pairs_by_id, random_alignment)
from synth import generate
from polyalign.bialign import AlignConfig, cost_matrix
from polyalign.embedding import ProviderConfig, embed_segments
from polyalign.evaluate import multi_prf, strict_prf
from polyalign.ingest import build_chapter_groups
from polyalign.model import MultiParallelRow, Segment, segment_index
from polyalign.multialign import (
    LengthFilterConfig,
    PairLinkSet,
    align_group_consensus,
    consensus,
    length_filter,
    partner_maps,
    pivot_join,
    pivot_multialign,
)
from polyalign.pipeline import PipelineConfig, run_pipeline


def verdict(ok, name, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_dp_optimality():
    """align_chapter equals brute force on 1,000 seeded random instances."""
    rng = np.random.default_rng(20240917)
    t0 = time.monotonic()
    for _ in range(1000):
        n, m = rng.integers(0, 7, size=2)
        lam = float(rng.choice([0.05, 0.15, 0.5]))
        costs = rng.random((n, m))
        cfg = AlignConfig(skip_cost=lam)
        fast = align_alone(costs, cfg)
        slow, best = brute_force_align(costs, cfg)
        assert left_to_right_total(fast) == best
        assert fast == slow
    elapsed = time.monotonic() - t0
    verdict(elapsed < 10.0, "criterion 1: DP optimality on 1000 instances",
            f"{elapsed:.2f}s")


def test_criterion_2_join_consensus_oracles():
    """pivot_join and consensus match naive set oracles on 500 instances."""
    rng = random.Random(20240917)
    t0 = time.monotonic()
    subset_holds = 0
    for _ in range(500):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a_ip = random_alignment(rng, n, k, "a", "p")
        a_pj = random_alignment(rng, k, m, "p", "b")
        partners = partner_maps({("i", "p"): a_ip, ("p", "j"): a_pj})
        joined = pivot_join(partners[("i", "p")], partners[("p", "j")], partners[("j", "p")])
        assert joined.pairs == frozenset(
            naive_pivot_join(pairs_by_id(a_ip), pairs_by_id(a_pj))
        )

        universe = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        raw_sets = [
            set(rng.sample(universe, rng.randint(0, 8)))
            for _ in range(rng.randint(1, 5))
        ]
        sets = {
            f"p{idx}": PairLinkSet(frozenset(p))
            for idx, p in enumerate(raw_sets)
        }
        out = consensus(sets)
        assert out.pairs == frozenset(naive_consensus(raw_sets))
        if all(out.pairs <= s.full_pairs() for s in sets.values()):
            subset_holds += 1
    elapsed = time.monotonic() - t0
    verdict(subset_holds == 500 and elapsed < 5.0,
            "criterion 2: join/consensus oracle equivalence on 500 instances",
            f"subset law {subset_holds}/500, {elapsed:.2f}s")


def build_end_to_end(corpus, dim=256, skip_cost=0.15):
    """Align the synthetic corpus: per-group pair DPs, consensus and pivot rows."""
    groups = build_chapter_groups(corpus.volumes, corpus.mapping_tsv)
    seg_index = segment_index(corpus.volumes)
    pconfig = ProviderConfig()
    aconfig = AlignConfig(skip_cost=skip_cost)

    mats = {}
    for group in groups:
        for idiom, chap in group.members.items():
            mats[(group.group_id, idiom)] = embed_segments(
                list(chap.segments), pconfig, "text", dim=dim
            )

    consensus_rows = []
    pivot_rows = []
    pivot_idiom = "sursilvan"
    for group in groups:
        idioms = group.idioms()
        pair_alignments = {}
        for a, i in enumerate(idioms):
            for j in idioms[a + 1 :]:
                costs = cost_matrix(mats[(group.group_id, i)], mats[(group.group_id, j)])
                pair_alignments[(i, j)] = alignment_of(
                    align_alone(costs, aconfig),
                    tuple(s.id for s in group.members[i].segments),
                    tuple(s.id for s in group.members[j].segments),
                )
        consensus_rows.extend(
            align_group_consensus(group, pair_alignments, seg_index)
        )
        pivot_rows.extend(
            pivot_multialign(pivot_idiom, idioms, partner_maps(pair_alignments),
                             seg_index, provenance=group.group_id)
        )

    return consensus_rows, pivot_rows, corpus.gold


def test_criterion_3_synthetic_recovery():
    """Consensus recovers the synthetic gold; precision traded over recall."""
    t0 = time.monotonic()
    corpus = generate(seed=0, n_groups=40)
    consensus_rows, pivot_rows, gold = build_end_to_end(corpus)

    _, cons = multi_prf(consensus_rows, gold)
    _, piv = multi_prf(pivot_rows, gold)
    elapsed = time.monotonic() - t0

    ok = (
        cons.precision >= 0.95
        and cons.recall >= 0.80
        and cons.precision > piv.precision
        and cons.recall < piv.recall
        and elapsed < 60.0
    )
    verdict(ok, "criterion 3: synthetic end-to-end recovery",
            f"consensus P={cons.precision:.4f} R={cons.recall:.4f}, "
            f"pivot P={piv.precision:.4f} R={piv.recall:.4f}, {elapsed:.1f}s")


def test_criterion_4_length_heuristic():
    """length_filter matches hand arithmetic on 50 enumerated length tuples."""
    cases = [
        (4, 4, 4, 10),   # 10 > 1.5 * 5.5
        (3, 9),          # 9 == 1.5 * 6 kept, 3 < 0.67 * 6 removed
        (2, 3),          # 2 < 0.67 * 2.5 removed at the margin
        (5, 6, 7),       # all inside the bounds
        (1, 1, 1),       # equal lengths always kept
        (1, 100),        # both sides out of bounds
        (10, 15),        # 15 == 1.5 * 12.5 would be 18.75; inside
        (2, 2, 2, 3),    # 3 == 1.333 * 2.25; inside
        (4, 6),          # 6 < 1.5 * 5; inside
        (1, 2, 3),       # 1 < 0.67 * 2 removed
    ]
    rng = random.Random(13)
    while len(cases) < 50:
        cases.append(tuple(rng.randint(1, 40) for _ in range(rng.randint(2, 6))))
    assert len(cases) == 50

    cfg = LengthFilterConfig()
    mismatches = 0
    for lengths in cases:
        cells = {}
        for k, n in enumerate(lengths):
            text = " ".join(["w"] * n)
            cells[f"i{k}"] = Segment(
                id=f"i{k}/v/c/{k}", idiom=f"i{k}", position=k,
                html=f"<p>{text}</p>", text=text, token_count=n,
            )
        row = MultiParallelRow(cells=cells, provenance="g")
        out = length_filter(row, cfg)

        avg = sum(lengths) / len(lengths)
        expected = {
            f"i{k}" for k, n in enumerate(lengths)
            if not (n > 1.5 * avg or n < 0.67 * avg)
        }
        if set(out.non_null()) != expected:
            mismatches += 1
    verdict(mismatches == 0, "criterion 4: length heuristic matches hand oracle",
            f"{len(cases)} tuples, {mismatches} mismatches")


def test_criterion_5_evaluator_sanity():
    """strict_prf: identity is perfect, disjoint is zero, worked example exact."""
    rng = random.Random(17)
    for _ in range(100):
        universe = [(f"a{i}", f"b{j}") for i in range(5) for j in range(5)]
        links = set(rng.sample(universe, rng.randint(1, 12)))
        out = strict_prf(links, links)
        assert (out.precision, out.recall, out.f1) == (1.0, 1.0, 1.0)

    disjoint = strict_prf({("a1", "b1")}, {("a2", "b2")})
    assert (disjoint.precision, disjoint.recall, disjoint.f1) == (0.0, 0.0, 0.0)

    hyp = {("a1", "b1"), ("a2", "b2"), ("a3", "b4")}
    gold = {("a1", "b1"), ("a2", "b2"), ("a3", "b3")}
    worked = strict_prf(hyp, gold)
    ok = (
        abs(worked.precision - 2 / 3) < 1e-12
        and abs(worked.recall - 2 / 3) < 1e-12
        and abs(worked.f1 - 2 / 3) < 1e-12
    )
    verdict(ok, "criterion 5: evaluator sanity",
            f"worked example P/R/F1 = {worked.precision:.12f}")


def test_criterion_6_greedy_harness():
    """Self-alignment 1.0, half-wrong 0.5, argmax invariant under scaling."""
    def unit(rows):
        arr = np.asarray(rows, dtype=np.float64)
        arr = arr / np.linalg.norm(arr, axis=1, keepdims=True)
        return arr.astype(np.float32)

    rng = np.random.default_rng(23)
    m = unit(rng.normal(size=(12, 16)))
    self_acc = greedy_accuracy(m, m, [(i, i) for i in range(12)])

    src = unit([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
    tgt = unit([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.9, 0.1, 0]])
    half = greedy_accuracy(src, tgt, [(3, 3), (3, 0)])

    # The argmax decision is invariant under scaling every target vector.
    scaled_tgt = tgt * 7.0
    pairs = [(0, 0), (1, 1), (2, 2), (3, 3)]
    base = greedy_accuracy(src, tgt, pairs)
    scaled = greedy_accuracy(src, scaled_tgt, pairs)

    ok = self_acc == 1.0 and half == 0.5 and base == scaled
    verdict(ok, "criterion 6: greedy harness",
            f"self={self_acc}, half-wrong={half}, scaled delta={scaled - base}")


@pytest.fixture(scope="module")
def fixture_on_disk(small_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    raw = root / "raw"
    raw.mkdir()
    for name, doc in small_corpus.raw_docs.items():
        (raw / name).write_text(doc, encoding="utf-8")
    (root / "mapping.tsv").write_text(small_corpus.mapping_tsv, encoding="utf-8")
    return root


def pipeline_config(root, out_name):
    return PipelineConfig(
        raw_dir=str(root / "raw"),
        mapping=str(root / "mapping.tsv"),
        cache_dir=str(root / "cache"),
        out_dir=str(root / out_name),
    )


def test_criterion_7_determinism(fixture_on_disk):
    """Two warm-cache pipeline runs produce byte-identical artifacts."""
    root = fixture_on_disk
    m1 = run_pipeline(pipeline_config(root, "run1"))
    m2 = run_pipeline(pipeline_config(root, "run2"))
    identical = m1["artifacts"] == m2["artifacts"]
    for name in ("rows.jsonl", "stats.json", "stats.txt"):
        identical = identical and (
            (root / "run1" / name).read_bytes() == (root / "run2" / name).read_bytes()
        )
        digest = hashlib.sha256((root / "run1" / name).read_bytes()).hexdigest()
        identical = identical and m1["artifacts"][name] == digest
    verdict(identical, "criterion 7: pipeline determinism",
            f"{len(m1['artifacts'])} artifacts compared")


def test_criterion_8_stats_fidelity(fixture_on_disk, small_corpus):
    """stats equals an independent raw-JSON counting script exactly."""
    root = fixture_on_disk
    out = root / "run1"
    if not (out / "stats.json").exists():
        run_pipeline(pipeline_config(root, "run1"))
    reported = json.loads((out / "stats.json").read_text(encoding="utf-8"))

    # Independent tally over the raw JSON artifacts, no polyalign code.
    corpus_doc = json.loads((out / "corpus.json").read_text(encoding="utf-8"))
    tally = {}
    token_of = {}
    idiom_of = {}
    for vol in corpus_doc["volumes"]:
        t = tally.setdefault(vol["idiom"], {
            "volumes": 0, "segments": 0, "tokens": 0,
            "aligned_segments": 0, "aligned_tokens": 0,
        })
        t["volumes"] += 1
        for chap in vol["chapters"]:
            for s in chap["segments"]:
                t["segments"] += 1
                t["tokens"] += s["token_count"]
                token_of[s["id"]] = s["token_count"]
                idiom_of[s["id"]] = vol["idiom"]

    seen = set()
    for line in (out / "rows.jsonl").read_text(encoding="utf-8").splitlines():
        cells = json.loads(line)["cells"]
        present = [c["segment_id"] for c in cells.values() if c is not None]
        if len(present) < 2:
            continue
        for sid in present:
            if sid in seen:
                continue
            seen.add(sid)
            t = tally[idiom_of[sid]]
            t["aligned_segments"] += 1
            t["aligned_tokens"] += token_of[sid]

    total = {k: sum(t[k] for t in tally.values())
             for k in next(iter(tally.values()))}
    expected = {"per_idiom": dict(sorted(tally.items())), "total": total}
    verdict(reported == expected, "criterion 8: stats fidelity",
            f"total segments={total['segments']}, tokens={total['tokens']}")
