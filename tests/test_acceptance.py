"""Acceptance gate: one test per release criterion, one printed verdict each.

The gate has seven criteria, numbered 1-5, 7 and 8.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import hashlib
import json
import random
import time

import numpy as np
import pytest

from oracles import (align_alone, brute_force_align, left_to_right_total, naive_consensus,
                     naive_pivot_join, pairs_by_id, random_alignment)
from synth import generate, write_fixture
from test_pipeline import make_config
from polyalign.bialign import AlignConfig
from polyalign.evaluate import multi_prf, strict_prf
from polyalign.export import load_rows
from polyalign.model import MultiParallelRow, Segment, segment_index
from polyalign.multialign import (
    LengthFilterConfig,
    PairLinkSet,
    consensus,
    length_filter,
    partner_maps,
    pivot_join,
)
from polyalign.pipeline import build_rows, corpus_groups, run_pipeline


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


def test_criterion_3_synthetic_recovery(tmp_path):
    """Consensus recovers the synthetic gold; precision traded over recall.
    Both row files are the package's: the consensus rows a full run writes,
    and the sursilvan pivot's rows built from that run's alignments."""
    t0 = time.monotonic()
    corpus = generate(seed=0, n_groups=40)
    raw, mapping, _ = write_fixture(corpus, tmp_path)
    config = make_config(tmp_path, raw, mapping)
    run_pipeline(config)
    out = tmp_path / "out"
    volumes, groups = corpus_groups(out / "corpus.json", out / "mapping.tsv")
    build_rows(groups, out / "alignments.jsonl", tmp_path / "pivot.jsonl", config.length_filter, pivot="sursilvan")
    seg_index = segment_index(volumes)
    consensus_rows = load_rows(out / "rows.jsonl", seg_index)
    pivot_rows = load_rows(tmp_path / "pivot.jsonl", seg_index)

    _, cons = multi_prf(consensus_rows, corpus.gold)
    _, piv = multi_prf(pivot_rows, corpus.gold)
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


@pytest.fixture(scope="module")
def fixture_on_disk(small_corpus, tmp_path_factory):
    """The small corpus written to disk: its directory, raw volumes and mapping."""
    root = tmp_path_factory.mktemp("acceptance")
    return (root, *write_fixture(small_corpus, root)[:2])


def test_criterion_7_determinism(fixture_on_disk):
    """Two warm-cache pipeline runs produce byte-identical artifacts."""
    root = fixture_on_disk[0]
    m1 = run_pipeline(make_config(*fixture_on_disk, "run1"))
    m2 = run_pipeline(make_config(*fixture_on_disk, "run2"))
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
    out = fixture_on_disk[0] / "run1"
    if not (out / "stats.json").exists():
        run_pipeline(make_config(*fixture_on_disk, "run1"))
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
