import dataclasses
import hashlib
import importlib.util
import json
import random
import shutil
import time
import weakref
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

import polyalign.cli as cli
from polyalign.cli import main
from polyalign.embedding import EmbeddingCache, hash_embed
from polyalign.export import export_rows
from polyalign.model import CORPUS_FORMAT, PolyalignError, make_segment_id
import polyalign.pipeline as pipeline
from polyalign.pipeline import load_alignments as pipeline_load_alignments
from polyalign.pipeline import (
    PipelineConfig,
    build_rows,
    corpus_groups,
    ingest_raw,
    load_config,
    run_pipeline,
)
from synth import generate
from test_embedding import FakeResponse


def write_fixture(corpus, root):
    raw = root / "raw"
    raw.mkdir()
    for name, doc in corpus.raw_docs.items():
        (raw / name).write_text(doc, encoding="utf-8")
    mapping = root / "mapping.tsv"
    mapping.write_text(corpus.mapping_tsv, encoding="utf-8")
    gold = root / "gold.tsv"
    gold.write_text(corpus.gold_tsv, encoding="utf-8")
    return raw, mapping, gold


def write_bad_volume(corpus, root):
    """The fixture with one puter volume renamed to the id "a/b", and the
    error that names it."""
    raw, mapping, _ = write_fixture(corpus, root)
    path = next(raw.glob("puter-*.json"))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["volume_id"] = "a/b"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return raw, mapping, ("volume document: field 'volume_id' is 'a/b', not a non-empty string "
                          f"free of '/', '#' and whitespace (in {path})")


def make_config(root, raw, mapping, out_name="out"):
    return PipelineConfig(
        raw_dir=str(raw),
        mapping=str(mapping),
        cache_dir=str(root / "cache"),
        out_dir=str(root / out_name),
    )


def write_config(path, config: PipelineConfig, **changes) -> str:
    """Write ``config`` as a config file, with the top-level keys ``changes`` replaced; return its path."""
    path.write_text(json.dumps({**config.to_dict(), **changes}), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pipeline_run(small_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    raw, mapping, gold = write_fixture(small_corpus, root)
    config = make_config(root, raw, mapping)
    manifest = run_pipeline(config)
    return root, config, manifest, gold


class TestRunPipeline:
    def test_all_stages_ran(self, pipeline_run):
        _, _, manifest, _ = pipeline_run
        assert list(manifest["stages"]) == ["ingest", "embed", "bialign", "multialign", "export"]

    def test_ingest_counts_match_fixture(self, pipeline_run, small_corpus):
        _, _, manifest, _ = pipeline_run
        counts = manifest["stages"]["ingest"]
        assert counts["volumes"] == len(small_corpus.volumes)
        assert counts["segments"] == sum(
            len(c.segments) for v in small_corpus.volumes for c in v.chapters
        )
        assert counts["chapter_groups"] > 0

    def test_artifacts_exist_and_hashes_match(self, pipeline_run):
        import hashlib

        root, config, manifest, _ = pipeline_run
        for name, digest in manifest["artifacts"].items():
            path = root / "out" / name
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_multialign_writes_only_its_rows(self, pipeline_run):
        # Checked alignments are 1-1 covers, so no consensus component is ever
        # contradictory; the count stays as a tripwire, with no file of its own.
        root, _, manifest, _ = pipeline_run
        assert list(manifest["artifacts"]) == ["corpus.json", "mapping.tsv", "warnings.jsonl", "alignments.jsonl",
                                               "rows.jsonl", "stats.json", "stats.txt"]
        assert not (root / "out" / "dropped.jsonl").exists()
        assert manifest["stages"]["multialign"]["dropped_components"] == 0

    def test_rows_reference_known_segments(self, pipeline_run, small_corpus):
        root, _, _, _ = pipeline_run
        known = {
            s.id for v in small_corpus.volumes for c in v.chapters for s in c.segments
        }
        for line in (root / "out" / "rows.jsonl").read_text().splitlines():
            doc = json.loads(line)
            for cell in doc["cells"].values():
                if cell is not None:
                    assert cell["segment_id"] in known

    def test_warm_rerun_is_bit_identical(self, pipeline_run):
        root, config, manifest, _ = pipeline_run
        config2 = PipelineConfig.from_dict(config.to_dict())
        config2.out_dir = str(root / "out2")
        manifest2 = run_pipeline(config2)
        assert manifest2["artifacts"] == manifest["artifacts"]
        assert manifest2["config_hash"] != ""  # out_dir differs, so hashes may too
        for name in manifest["artifacts"]:
            assert (root / "out" / name).read_bytes() == (root / "out2" / name).read_bytes()

    def test_path_config_matches_str_config(self, pipeline_run):
        root, config, _, _ = pipeline_run
        paths = {name: getattr(config, name) for name in ("raw_dir", "mapping", "cache_dir")}
        out = root / "out-path"
        from_str = run_pipeline(PipelineConfig(**paths, out_dir=str(out)))
        from_path = run_pipeline(PipelineConfig(**{k: Path(v) for k, v in paths.items()}, out_dir=out))
        assert from_path["config"] == from_str["config"]
        assert from_path["config_hash"] == from_str["config_hash"]
        assert from_path["artifacts"] == from_str["artifacts"]

    def test_embed_stage_used_cache_on_rerun(self, pipeline_run, small_corpus):
        root, _, _, _ = pipeline_run
        expected = {
            EmbeddingCache.key("hash", "ngram3-v1", "text", 256, [s.text for s in c.segments]) + ".bin"
            for v in small_corpus.volumes for c in v.chapters
        }
        assert len(expected) == sum(len(v.chapters) for v in small_corpus.volumes)
        assert {p.name for p in (root / "cache").iterdir()} == expected

    def test_manifest_names_sampler(self, pipeline_run):
        _, _, manifest, _ = pipeline_run
        assert manifest["sampler"] == "mt19937/sample-v1"

    def test_later_stages_read_the_stored_mapping(self, pipeline_run, small_corpus, tmp_path):
        # A partial rerun is the CLI's stage commands over out/: with the input
        # mapping edited, they still reproduce the run from the stored copy.
        root, _, manifest, _ = pipeline_run
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        config = make_config(tmp_path, raw, mapping)
        config_path = write_config(tmp_path / "config.json", config)
        manifest2 = run_pipeline(config)
        out = tmp_path / "out"
        assert (out / "mapping.tsv").read_bytes() == mapping.read_bytes()
        n_cols = len(small_corpus.mapping_tsv.splitlines()[0].split("\t"))
        with open(mapping, "a", encoding="utf-8") as fh:
            fh.write("\t".join(["vol09#nowhere"] * n_cols) + "\n")
        corpus, stored = str(out / "corpus.json"), str(out / "mapping.tsv")
        runner = CliRunner()
        for args in (
            ["bialign", "--config", config_path, "--corpus", corpus, "--mapping", stored,
             "--out", str(out / "alignments.jsonl")],
            ["multialign", "--config", config_path, "--corpus", corpus, "--mapping", stored,
             "--alignments", str(out / "alignments.jsonl"), "--out", str(out / "rows.jsonl")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        for name in ("alignments.jsonl", "rows.jsonl"):
            assert (out / name).read_bytes() == (root / "out" / name).read_bytes()
        for run_manifest, run_dir in ((manifest, root / "out"), (manifest2, out)):
            assert set(run_manifest["artifacts"]) == {p.name for p in run_dir.iterdir()} - {"manifest.json"}

    def test_corpus_is_loaded_once_per_run(self, small_corpus, tmp_path, monkeypatch):
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        loads = []
        original = pipeline.load_corpus

        def load_corpus(path):
            loads.append(path)
            return original(path)

        monkeypatch.setattr(pipeline, "load_corpus", load_corpus)
        run_pipeline(make_config(tmp_path, raw, mapping))
        assert loads == [str(tmp_path / "out" / "corpus.json")]

    def test_empty_member_chapter_is_warned_and_left_out(self, tmp_path):
        corpus = generate(seed=0, n_groups=3, segs_per_chapter=5)
        raw, mapping, _ = write_fixture(corpus, tmp_path)
        path = raw / "puter-vol01.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["chapters"][0]["elements"] = []
        path.write_text(json.dumps(doc), encoding="utf-8")
        manifest = run_pipeline(make_config(tmp_path, raw, mapping))
        out = tmp_path / "out"
        warnings = [json.loads(line) for line in (out / "warnings.jsonl").read_text().splitlines()]
        assert warnings == [{
            "source": "mapping row 1",
            "message": "idiom puter: chapter vol01#chapter 000 has no segments, left out",
        }]
        assert manifest["stages"]["bialign"]["chapter_pairs"] == 6 + 10 + 10
        records = [json.loads(line) for line in (out / "alignments.jsonl").read_text().splitlines()]
        assert not [r for r in records if r["group"] == "g0001" and "puter" in (r["src_idiom"], r["tgt_idiom"])]
        rows = [json.loads(line) for line in (out / "rows.jsonl").read_text().splitlines()]
        assert rows and all("puter" not in r["cells"] for r in rows if r["provenance"] == "g0001")

    def test_missing_raw_dir_fails_with_stage_name(self, tmp_path):
        config = PipelineConfig(
            raw_dir=str(tmp_path / "nowhere"), mapping=str(tmp_path / "m.tsv"),
            cache_dir=str(tmp_path / "cache"), out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(PolyalignError, match="ingest"):
            run_pipeline(config)

    def test_failed_stage_leaves_no_partial_artifacts(self, small_corpus, tmp_path):
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        bad_mapping = tmp_path / "bad.tsv"
        header = small_corpus.mapping_tsv.splitlines()[0]
        n_cols = len(header.split("\t"))
        bad_mapping.write_text(
            header + "\n" + "\t".join(["vol01#missing"] * n_cols) + "\n",
            encoding="utf-8",
        )
        config = make_config(tmp_path, raw, bad_mapping)
        with pytest.raises(PolyalignError, match="missing"):
            run_pipeline(config)
        out = tmp_path / "out"
        assert not (out / "corpus.json").exists()
        assert not list(out.glob("*.tmp"))

    def test_provider_failure_mid_stage_leaves_complete_records(
        self, pipeline_run, small_corpus, tmp_path, monkeypatch
    ):
        import numpy as np

        import polyalign.embedding as emb

        clean_artifacts = pipeline_run[2]["artifacts"]
        made = []

        class DownOnThirdChapter(emb.HashProvider):
            def embed_batch(self, texts):
                if len(made) == 3:
                    raise PolyalignError("provider down")
                return super().embed_batch(texts)

        def make_provider(cfg, dim=256):
            made.append(DownOnThirdChapter(dim))
            return made[-1]

        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        config = make_config(tmp_path, raw, mapping)
        with monkeypatch.context() as patch:
            patch.setattr(emb, "make_provider", make_provider)
            with pytest.raises(PolyalignError, match="stage 'embed' failed: provider down"):
                run_pipeline(config)
        assert len(made) == 3
        assert not list((tmp_path / "out").glob("*.tmp"))
        cache = tmp_path / "cache"
        assert not list(cache.glob("*.tmp"))
        chapters = {
            EmbeddingCache.key("hash", "ngram3-v1", "text", 256, [s.text for s in c.segments]): c
            for v in small_corpus.volumes for c in v.chapters
        }
        records = {p.stem for p in cache.glob("*.bin")}
        assert len(records) == 2 and records <= set(chapters)
        for key in records:
            texts = [s.text for s in chapters[key].segments]
            vectors = EmbeddingCache(cache).get(key, len(texts), 256)
            assert np.array_equal(vectors, np.stack([emb.hash_embed(t, 256) for t in texts]))
        assert run_pipeline(config)["artifacts"] == clean_artifacts

    def test_bolded_words_keep_every_row(self, tmp_path):
        """Bolding the first word of about half of puter's elements changes no row:
        ``text`` mode embeds a segment's content, tags removed."""
        corpus = generate(seed=0, n_groups=2, segs_per_chapter=5)
        rng = random.Random(1)
        bolded = dict(corpus.raw_docs)
        for name in sorted(n for n in bolded if n.startswith("puter-")):
            doc = json.loads(bolded[name])
            for element in (e for chapter in doc["chapters"] for e in chapter["elements"]):
                if rng.random() < 0.5:
                    element["html"] = element["html"].replace("<p>", "<p><strong>", 1).replace(" ", "</strong> ", 1)
            bolded[name] = json.dumps(doc)
        ids = []
        for name, raw_docs in (("plain", corpus.raw_docs), ("bold", bolded)):
            (tmp_path / name).mkdir()
            raw, mapping, _ = write_fixture(dataclasses.replace(corpus, raw_docs=raw_docs), tmp_path / name)
            run_pipeline(make_config(tmp_path / name, raw, mapping))
            rows = (tmp_path / name / "out" / "rows.jsonl").read_text(encoding="utf-8").splitlines()
            ids.append([{k: c and c["segment_id"] for k, c in json.loads(line)["cells"].items()} for line in rows])
        assert "<strong>" in (tmp_path / "bold" / "out" / "corpus.json").read_text(encoding="utf-8")
        assert len(ids[0]) == 8
        assert ids[1] == ids[0]

    def test_markup_shape_writes_the_plain_shape_rows(self, tmp_path):
        """Each markup form is one segment with the plain form's text, so the rows are the
        same bytes, though the elements that are not a plain <p> take the HTML parser."""
        outs = []
        for name, shape in (("plain", {}), ("markup", {"markup": True, "markup_drift": 0.5})):
            (tmp_path / name).mkdir()
            raw, mapping, _ = write_fixture(generate(seed=0, n_groups=8, segs_per_chapter=10, **shape), tmp_path / name)
            run_pipeline(make_config(tmp_path / name, raw, mapping))
            outs.append(tmp_path / name / "out")
        assert (outs[0] / "corpus.json").read_bytes() != (outs[1] / "corpus.json").read_bytes()
        assert (outs[0] / "rows.jsonl").read_bytes() == (outs[1] / "rows.jsonl").read_bytes()

    def test_stage_writer_quarantines_on_failure(self, pipeline_run, small_corpus, tmp_path, monkeypatch):
        # Export fails once it has written stats.json and opened stats.txt.
        def render_fails(report):
            raise RuntimeError("render failed")

        monkeypatch.setattr(pipeline.export_mod, "render_stats", render_fails)
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        with pytest.raises(PolyalignError, match="stage 'export' failed: render failed"):
            run_pipeline(make_config(tmp_path, raw, mapping))
        out, clean = tmp_path / "out", pipeline_run[0] / "out"
        assert (out / "stats.json.quarantine").read_bytes() == (clean / "stats.json").read_bytes()
        assert (out / "stats.txt.quarantine").read_text() == ""
        assert not (out / "stats.json").exists() and not (out / "stats.txt").exists()
        assert not list(out.glob("*.tmp"))
        assert not (out / "manifest.json").exists()
        # The stages before export committed theirs.
        assert (out / "rows.jsonl").read_bytes() == (clean / "rows.jsonl").read_bytes()

    def test_failed_rerun_leaves_no_manifest_of_the_earlier_build(self, tmp_path, monkeypatch):
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        config = make_config(tmp_path, raw, mapping)
        run_pipeline(config)
        assert (tmp_path / "out" / "manifest.json").exists()

        def render_fails(report):
            raise RuntimeError("render failed")

        monkeypatch.setattr(pipeline.export_mod, "render_stats", render_fails)
        with pytest.raises(PolyalignError, match="stage 'export' failed: render failed"):
            run_pipeline(config)
        # The earlier manifest would hash alignments.jsonl and rows.jsonl, which the rerun replaced.
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_integer_skip_cost_writes_integer_costs_that_multialign_loads(self, tmp_path):
        # One puter chapter is a segment short, so each of its pairs deletes a segment at
        # the skip cost, here the int 1; multialign must still load those records.
        corpus = generate(seed=0, n_groups=2, segs_per_chapter=5)
        doc = json.loads(corpus.raw_docs["puter-vol01.json"])
        doc["chapters"][0]["elements"].pop()
        raw_docs = {**corpus.raw_docs, "puter-vol01.json": json.dumps(doc)}
        raw, mapping, _ = write_fixture(dataclasses.replace(corpus, raw_docs=raw_docs), tmp_path)
        config = make_config(tmp_path, raw, mapping)
        run_pipeline(dataclasses.replace(config, align=dataclasses.replace(config.align, skip_cost=1)))
        out = tmp_path / "out"
        links = [link for line in (out / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
                 for link in json.loads(line)["links"]]
        deletion_costs = [link["cost"] for link in links if None in (link["src"], link["tgt"])]
        assert deletion_costs and all(type(cost) is int and cost == 1 for cost in deletion_costs)
        assert (out / "rows.jsonl").read_text(encoding="utf-8")

    def test_stage_writer_commit_replaces_atomically(self, pipeline_run, small_corpus, tmp_path):
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "rows.jsonl").write_text("old")
        with open(out / "rows.jsonl", encoding="utf-8") as reader:
            manifest = run_pipeline(make_config(tmp_path, raw, mapping))
            # Renamed over, not rewritten in place: a reader of the old file still sees all of it.
            assert reader.read() == "old"
        rows = (out / "rows.jsonl").read_bytes()
        assert rows == (pipeline_run[0] / "out" / "rows.jsonl").read_bytes()
        assert manifest["artifacts"]["rows.jsonl"] == hashlib.sha256(rows).hexdigest()
        assert not list(out.glob("*.tmp"))

    def test_config_round_trip(self, tmp_path):
        config = PipelineConfig(raw_dir="a", mapping="b", cache_dir="c", out_dir="d", dim=64)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        loaded = load_config(path)
        assert loaded.to_dict() == config.to_dict()
        assert loaded == config

    @pytest.mark.parametrize("section, key, value", [
        (None, "skip_cost", 0.9), (None, "stages", {"multialgin": False}), ("align", "skip_cots", 0.9),
    ])
    def test_config_unknown_key_rejected(self, tmp_path, section, key, value):
        doc = PipelineConfig(raw_dir="a", mapping="b", cache_dir="c", out_dir="d").to_dict()
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(PolyalignError, match=key):
            load_config(path)
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and key in result.output

    @pytest.mark.parametrize("dim", ["256", 0, True, 4])
    def test_dim_other_than_a_positive_integer_rejected(self, dim):
        with pytest.raises(PolyalignError, match="dim must be a positive integer, at least 8 for the hash provider"):
            PipelineConfig.from_dict({"dim": dim})

    def test_dim_below_the_hash_minimum_accepted_for_a_remote_provider(self):
        provider = {"name": "remote", "endpoint": "http://unit.test/embed", "model": "m"}
        assert PipelineConfig.from_dict({"provider": provider, "dim": 4}).dim == 4

    @pytest.mark.parametrize("batch_size", ["64", 0, True, 2.5])
    def test_batch_size_other_than_a_positive_integer_rejected(self, batch_size):
        with pytest.raises(PolyalignError, match="batch_size must be a positive integer"):
            PipelineConfig.from_dict({"provider": {"batch_size": batch_size}})

    @pytest.mark.parametrize("section, key, value", [
        (None, "dim", 4), (None, "dim", True), ("provider", "batch_size", 2.5),
        ("provider", "name", 5), ("provider", "endpoint", 5), ("provider", "model", 5), ("provider", "auth", 5),
    ])
    def test_config_the_embed_stage_refuses_rejected_before_any_stage_runs(self, tmp_path, section, key, value):
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        doc = make_config(tmp_path, raw, mapping).to_dict()
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_reported(CliRunner().invoke(main, ["run", "--config", str(path)]), key, repr(value))
        assert not (tmp_path / "out" / "corpus.json").exists()

    def test_unknown_mode_rejected_before_any_stage_runs(self, tmp_path):
        with pytest.raises(PolyalignError, match="mode"):
            PipelineConfig(mode="bogus")
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        doc = make_config(tmp_path, raw, mapping).to_dict()
        doc["mode"] = "bogus"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_reported(CliRunner().invoke(main, ["run", "--config", str(path)]), "mode", "bogus")
        assert not (tmp_path / "out" / "corpus.json").exists()

    @pytest.mark.parametrize("section, value, message", [
        # Only the hash provider needs no endpoint; a misspelt name is a remote provider without one.
        ("provider", {"name": "hsh"}, "provider 'hsh' is not 'hash' and has no endpoint"),
        ("length_filter", {"unit": "words"}, "unknown length unit 'words'"),
        # A value of the wrong type is named with its field, as dim and batch_size are.
        ("align", {"skip_cost": "0.1"}, "skip_cost must be a finite number >= 0, got '0.1'"),
        ("length_filter", {"upper_ratio": "2"}, "upper_ratio must be a number, got '2'"),
        ("length_filter", {"lower_ratio": True}, "lower_ratio must be a number, got True"),
        ("align", 0.3, "align must be an object, got 0.3"),
        ("raw_dir", 5, "raw_dir must be a path, got 5"),
    ], ids=["provider-without-endpoint", "length-unit-words", "skip-cost-str", "upper-ratio-str",
            "lower-ratio-bool", "align-number", "raw-dir-number"])
    def test_config_a_later_stage_refuses_rejected_before_any_stage_runs(self, tmp_path, section, value, message):
        with pytest.raises(PolyalignError, match=message):
            PipelineConfig.from_dict({section: value})
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        path = write_config(tmp_path / "config.json", make_config(tmp_path, raw, mapping), **{section: value})
        assert_reported(CliRunner().invoke(main, ["run", "--config", path]), message)
        assert not (tmp_path / "out").exists()

    def test_integer_skip_cost_and_ratios_accepted(self):
        config = PipelineConfig.from_dict({"align": {"skip_cost": 1}, "length_filter": {"upper_ratio": 2}})
        assert config.align.skip_cost == 1 and config.length_filter.upper_ratio == 2

    @pytest.mark.parametrize("key", ["raw_dir", "mapping", "cache_dir", "out_dir"])
    def test_config_that_leaves_a_path_empty_rejected_before_any_stage_runs(self, tmp_path, monkeypatch, key):
        # An empty path is the working directory's: an empty raw_dir would read config.json as a volume.
        monkeypatch.chdir(tmp_path)
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        doc = make_config(tmp_path, raw, mapping).to_dict()
        del doc[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_reported(CliRunner().invoke(main, ["run", "--config", str(path)]), f"no path given for {key}")
        assert not list(tmp_path.rglob("corpus.json"))

    @pytest.mark.parametrize("skip_cost", [float("nan"), float("inf"), True])
    def test_skip_cost_that_is_not_finite_rejected(self, tmp_path, skip_cost):
        with pytest.raises(PolyalignError, match="skip_cost must be a finite number >= 0"):
            PipelineConfig.from_dict({"align": {"skip_cost": skip_cost}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"align": {"skip_cost": skip_cost}}), encoding="utf-8")
        assert_reported(CliRunner().invoke(main, ["run", "--config", str(path)]), "skip_cost")

    @pytest.mark.skipif(not Path("/proc/self/io").exists(), reason="the tracer reads /proc/self/io")
    def test_traced_run_records_every_expected_span(self, tmp_path):
        # The benchmark's tracer wraps the names the pipeline calls; a rename
        # of one of them leaves its span without calls.
        spec = importlib.util.spec_from_file_location("bench_spans", Path(__file__).parents[1] / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        tracer = spans.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            run_pipeline(make_config(tmp_path, raw, mapping))
            build_s = time.perf_counter() - t0
        assert spans.missing_spans(tracer.metrics(build_s), cold=True) == []

    def test_workers_other_than_one_rejected(self):
        with pytest.raises(PolyalignError, match="workers"):
            PipelineConfig(workers=2)

    def test_stored_alignments_hold_the_corpus_segment_ids(self, tmp_path, monkeypatch):
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=40, segs_per_chapter=30), tmp_path)
        calls, loaded = [], []

        def load_alignments(path, chapter_ids):
            calls.append(chapter_ids)
            for gid, pairs in pipeline_load_alignments(path, chapter_ids):
                loaded.extend(((gid, i, j), alignment) for (i, j), alignment in pairs.items())
                yield gid, pairs

        monkeypatch.setattr(pipeline, "load_alignments", load_alignments)
        run_pipeline(make_config(tmp_path, raw, mapping))
        [chapter_ids] = calls
        assert len(loaded) == 400
        for (gid, i, j), alignment in loaded:
            assert alignment.src_ids is chapter_ids[(gid, i)] and alignment.tgt_ids is chapter_ids[(gid, j)]

    def test_multialign_holds_one_group_of_alignments(self, tmp_path, monkeypatch):
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=40, segs_per_chapter=30), tmp_path)
        live = weakref.WeakSet()
        held = []

        class Counted(pipeline.BilingualAlignment):
            __hash__ = object.__hash__  # a WeakSet member must be hashable

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)

        def align_group_consensus(*args):
            held.append(len(live))
            return original(*args)

        original = pipeline.align_group_consensus
        monkeypatch.setattr(pipeline, "BilingualAlignment", Counted)
        monkeypatch.setattr(pipeline, "align_group_consensus", align_group_consensus)
        run_pipeline(make_config(tmp_path, raw, mapping))
        # One group's 10 pairs, plus the next group's first record read ahead.
        assert len(held) == 40 and 10 <= max(held) <= 11

    def test_ingest_of_the_paper_fixture_is_pinned(self, tmp_path):
        # corpus.json holds no floats, so its bytes are the same on every Python.
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=40, segs_per_chapter=30), tmp_path)
        ingest_raw(raw, mapping, tmp_path / "corpus.json", tmp_path / "warnings.jsonl")
        digest = hashlib.sha256((tmp_path / "corpus.json").read_bytes()).hexdigest()
        assert digest == "86e1c7b626e1c6699afcdd9027cf7fab631e81677e41ec6ddc70996fbd3dde21"
        assert (tmp_path / "warnings.jsonl").read_bytes() == b""

    def test_volume_id_breaking_the_id_grammar_fails_ingest(self, small_corpus, tmp_path):
        raw, mapping, message = write_bad_volume(small_corpus, tmp_path)
        with pytest.raises(PolyalignError) as exc:
            run_pipeline(make_config(tmp_path, raw, mapping))
        assert str(exc.value) == f"stage 'ingest' failed: {message}"


def _substitutions(doc):
    return [l for l in doc["links"] if l["src"] is not None and l["tgt"] is not None]


def _source_out_of_range(doc):
    next(l for l in doc["links"] if l["src"] is not None)["src"] = len(doc["src_ids"])


def _target_negative(doc):
    next(l for l in doc["links"] if l["tgt"] is not None)["tgt"] = -1


def _target_repeated(doc):
    first, second = _substitutions(doc)[:2]
    second["tgt"] = first["tgt"]


def _link_missing(doc):
    doc["links"].remove(_substitutions(doc)[0])


def _links_swapped(doc):
    first, second = (doc["links"].index(l) for l in _substitutions(doc)[:2])
    doc["links"][first], doc["links"][second] = doc["links"][second], doc["links"][first]


def _source_a_string(doc):
    link = next(l for l in doc["links"] if l["src"] is not None)
    link["src"] = str(link["src"])


def _source_a_float(doc):
    link = next(l for l in doc["links"] if l["src"] is not None)
    link["src"] = float(link["src"])


def _link_on_neither_side(doc):
    _substitutions(doc)[0].update(src=None, tgt=None)


def _record_repeated(doc):
    return dict(doc)


def _reverse_pair_appended(doc):
    reverse = {"src_idiom": "tgt_idiom", "src_chapter": "tgt_chapter", "src_ids": "tgt_ids"}
    reverse.update({v: k for k, v in reverse.items()})
    record = {reverse.get(k, k): v for k, v in doc.items()}
    record["links"] = [{"src": l["tgt"], "tgt": l["src"], "cost": l["cost"]} for l in doc["links"]]
    return record


# Each edit of the first stored record (group g0001, puter:surmiran), or
# record it appends, and the error it must raise.
BROKEN_COVERS = [
    (_source_out_of_range, "has a segment index out of range"),
    (_target_negative, "has a segment index out of range"),
    (_target_repeated, "does not link every segment exactly once"),
    (_link_missing, "does not link every segment exactly once"),
    (_links_swapped, "has 1-1 links that are not increasing"),
    (_source_a_string, "has a link index that is not an integer"),
    (_source_a_float, "has a link index that is not an integer"),
    (_link_on_neither_side, "has a link that touches neither side: a link must touch at least one side"),
    (_record_repeated, "is stored twice"),
    (_reverse_pair_appended, "is stored twice, the second time as surmiran:puter"),
]


def write_broken_alignments(out, edit, path) -> int:
    """Write the stored alignments with ``edit`` applied to path; return the
    line of the record the error must name."""
    lines = (out / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    assert (doc["group"], doc["src_idiom"], doc["tgt_idiom"]) == ("g0001", "puter", "surmiran")
    appended = edit(doc)
    lines = [json.dumps(doc)] + lines[1:] + ([json.dumps(appended)] if appended else [])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) if appended else 1


class TestStoredAlignmentsMustBeCovers:
    @pytest.mark.parametrize("edit, problem", BROKEN_COVERS)
    def test_build_rows_rejects(self, pipeline_run, tmp_path, edit, problem):
        out = pipeline_run[0] / "out"
        broken = tmp_path / "alignments.jsonl"
        write_broken_alignments(out, edit, broken)
        _, groups = corpus_groups(out / "corpus.json", out / "mapping.tsv")
        for pivot in (None, "sursilvan"):
            with pytest.raises(PolyalignError, match=f"group g0001: the puter:surmiran alignment {problem}"):
                build_rows(groups, broken, tmp_path / "rows.jsonl", None, pivot)
            assert not (tmp_path / "rows.jsonl").exists()

    @pytest.mark.parametrize("edit, problem", BROKEN_COVERS)
    def test_multialign_command_rejects(self, cli_workspace, tmp_path, edit, problem):
        root, runner = cli_workspace
        out = root / "out"
        broken = tmp_path / "alignments.jsonl"
        line = write_broken_alignments(out, edit, broken)
        for pivot in ("all", "sursilvan"):
            result = runner.invoke(main, [
                "multialign", "--config", str(root / "config.json"),
                "--corpus", str(out / "corpus.json"), "--mapping", str(out / "mapping.tsv"),
                "--alignments", str(broken), "--pivot", pivot,
                "--out", str(tmp_path / "rows.jsonl"),
            ])
            assert_reported(result, f"{broken}, line {line}: group g0001: the puter:surmiran alignment {problem}")
            assert not (tmp_path / "rows.jsonl").exists()


def test_blank_lines_of_the_stored_alignments_are_skipped(pipeline_run, tmp_path):
    out, config = pipeline_run[0] / "out", pipeline_run[1]
    lines = (out / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
    spaced = tmp_path / "alignments.jsonl"
    spaced.write_text("\n" + "\n \n".join(lines) + "\n\n", encoding="utf-8")
    _, groups = corpus_groups(out / "corpus.json", out / "mapping.tsv")
    build_rows(groups, spaced, tmp_path / "rows.jsonl", config.length_filter)
    assert (tmp_path / "rows.jsonl").read_bytes() == (out / "rows.jsonl").read_bytes()


def group_blocks(out):
    """The stored alignment lines of the first two groups, and the lines after them."""
    lines = (out / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
    groups = [json.loads(line)["group"] for line in lines]
    first, second = groups[0], next(g for g in groups if g != groups[0])
    n_a, n_b = groups.count(first), groups.count(second)
    assert groups[:n_a + n_b] == [first] * n_a + [second] * n_b
    return first, second, lines[:n_a], lines[n_a:n_a + n_b], lines[n_a + n_b:]


def _one_record_after_the_next_group(a, b):
    return a[:-1] + b + a[-1:], len(a) + len(b)


def _groups_swapped(a, b):
    return b + a, len(b) + 1


class TestStoredAlignmentsMustBeGrouped:
    @pytest.mark.parametrize("arrange", [_one_record_after_the_next_group, _groups_swapped])
    def test_multialign_command_rejects(self, cli_workspace, tmp_path, arrange):
        root, runner = cli_workspace
        out = root / "out"
        first, second, a, b, rest = group_blocks(out)
        lines, line = arrange(a, b)
        broken = tmp_path / "alignments.jsonl"
        broken.write_text("\n".join(lines + rest) + "\n", encoding="utf-8")
        for pivot in ("all", "sursilvan"):
            result = runner.invoke(main, [
                "multialign", "--config", str(root / "config.json"),
                "--corpus", str(out / "corpus.json"), "--mapping", str(out / "mapping.tsv"),
                "--alignments", str(broken), "--pivot", pivot, "--out", str(tmp_path / "rows.jsonl"),
            ])
            assert_reported(result, f"{broken}, line {line}: group {first}: ",
                            f"alignment follows group {second}'s records")
            assert not (tmp_path / "rows.jsonl").exists()


@pytest.fixture(scope="module")
def two_sizes(tmp_path_factory):
    """Output directories of full runs on two-group corpora with 5 and 8
    segments per chapter: the same groups and idioms, different segments.
    Each run's config file is config.json beside its output directory."""
    outs = {}
    for n in (5, 8):
        root = tmp_path_factory.mktemp(f"segs{n}")
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=n), root)
        config = make_config(root, raw, mapping)
        write_config(root / "config.json", config)
        run_pipeline(config)
        outs[n] = root / "out"
    return outs


def test_total_cost_is_the_left_to_right_sum_of_link_costs(two_sizes):
    # Exactly, so the stored bytes do not depend on how a Python version sums floats.
    for out in two_sizes.values():
        for line in (out / "alignments.jsonl").read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            total = 0.0
            for link in doc["links"]:
                total += link["cost"]
            assert doc["links"] and doc["total_cost"] == total


@pytest.fixture(scope="module")
def eight_groups(tmp_path_factory):
    """A full run on the 8-group, 10-segment seed-0 corpus: its config, its
    chapter groups and its output directory."""
    root = tmp_path_factory.mktemp("eight")
    raw, mapping, _ = write_fixture(generate(seed=0, n_groups=8, segs_per_chapter=10), root)
    config = make_config(root, raw, mapping)
    run_pipeline(config)
    out = root / "out"
    return config, corpus_groups(out / "corpus.json", out / "mapping.tsv")[1], out


class TestAlignPairsBatches:
    @staticmethod
    def align(eight_groups, path, monkeypatch, pair=None):
        """``align_pairs``' file bytes, the batch size of each DP pass, and the
        cache keys it read, in order."""
        config, groups, _ = eight_groups
        passes, keys = [], []
        tables, get = pipeline.dp_tables, EmbeddingCache.get

        def counted_tables(costs, lam):
            passes.append(len(costs))
            return tables(costs, lam)

        def logged_get(cache, key, *args):
            keys.append(key)
            return get(cache, key, *args)

        monkeypatch.setattr(pipeline, "dp_tables", counted_tables)
        monkeypatch.setattr(EmbeddingCache, "get", logged_get)
        pipeline.align_pairs(groups, path, config, pair)
        return path.read_bytes(), passes, keys

    @pytest.mark.parametrize("budget", ["pair", "group", "corpus"])
    def test_batch_budget_never_changes_the_bytes(self, eight_groups, tmp_path, monkeypatch, budget):
        _, groups, out = eight_groups
        shapes = [[(len(g.members[i].segments), len(g.members[j].segments)) for i, j in combinations(g.idioms(), 2)]
                  for g in groups]

        def cells(shapes):
            return len(shapes) * max(n for n, _ in shapes) * max(m for _, m in shapes)

        every = [s for group in shapes for s in group]
        monkeypatch.setattr("polyalign.bialign.BATCH_CELLS",
                            {"pair": 1, "group": cells(shapes[0]), "corpus": cells(every)}[budget])
        data, passes, keys = self.align(eight_groups, tmp_path / "alignments.jsonl", monkeypatch)
        assert data == (out / "alignments.jsonl").read_bytes()
        assert sum(passes) == len(every) == 80
        if budget == "pair":
            assert passes == [1] * 80
        elif budget == "group":
            assert passes[0] >= 10 and 1 < len(passes) < 80
        else:
            assert passes == [80]
        # Each chapter is read from the cache once.
        assert len(keys) == len(set(keys)) == sum(len(g.members) for g in groups) == 40

    def test_one_pair_writes_that_pair_s_records_of_the_full_file(self, eight_groups, tmp_path, monkeypatch):
        _, groups, out = eight_groups
        data, _, keys = self.align(eight_groups, tmp_path / "pv.jsonl", monkeypatch, ("puter", "vallader"))
        full = (out / "alignments.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in full
                if {json.loads(line)["src_idiom"], json.loads(line)["tgt_idiom"]} == {"puter", "vallader"}]
        assert len(kept) == 8 and data.decode("utf-8") == "".join(kept)
        assert len(keys) == len(set(keys)) == 16


@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    """A run's out_dir and its rows split by `export split`. Four volumes of two
    chapters each, split alternately: each split holds rows from the middle of
    rows.jsonl."""
    root = tmp_path_factory.mktemp("split")
    corpus = generate(seed=0, n_groups=8, segs_per_chapter=5, chapters_per_volume=2)
    raw, mapping, _ = write_fixture(corpus, root)
    run_pipeline(make_config(root, raw, mapping))
    splits_path = root / "splits.json"
    splits_path.write_text(json.dumps({"vol01": "train", "vol02": "test", "vol03": "train", "vol04": "test"}),
                           encoding="utf-8")
    result = CliRunner().invoke(main, [
        "export", "split", "--rows", str(root / "out" / "rows.jsonl"),
        "--corpus", str(root / "out" / "corpus.json"),
        "--splits", str(splits_path), "--out", str(root / "splits"),
    ])
    assert result.exit_code == 0, result.output
    return root / "out", root / "splits"


@pytest.fixture(scope="module")
def cli_workspace(small_corpus, tmp_path_factory):
    """A fixture corpus on disk plus a completed `run` invocation of
    root/config.json, the config file every stage command is given."""
    root = tmp_path_factory.mktemp("cli")
    raw, mapping, gold = write_fixture(small_corpus, root)
    config_path = write_config(root / "config.json", make_config(root, raw, mapping))
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", config_path])
    assert result.exit_code == 0, result.output
    return root, runner


class TestCli:
    def test_version(self):
        result = CliRunner().invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "polyalign" in result.output and f"({CORPUS_FORMAT})" in result.output

    def test_run_emits_stage_counts(self, cli_workspace):
        root, _ = cli_workspace
        assert (root / "out" / "manifest.json").exists()

    def test_ingest_command(self, cli_workspace):
        root, runner = cli_workspace
        result = runner.invoke(main, [
            "ingest", "--raw-dir", str(root / "raw"),
            "--mapping", str(root / "mapping.tsv"),
            "--out", str(root / "corpus2.json"),
            "--report", str(root / "warnings2.jsonl"),
        ])
        assert result.exit_code == 0, result.output
        assert "volumes" in result.output
        assert (root / "corpus2.json").exists()
        assert not (root / "corpus2.json.groups.json").exists()

    def test_ingest_command_rejects_bad_volume_id(self, small_corpus, tmp_path):
        raw, mapping, message = write_bad_volume(small_corpus, tmp_path)
        result = CliRunner().invoke(main, [
            "ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"
        assert not (tmp_path / "corpus.json").exists()

    def test_ingest_command_reports_malformed_volume(self, small_corpus, tmp_path):
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        next(raw.glob("puter-*.json")).write_text("{not json", encoding="utf-8")
        result = CliRunner().invoke(main, [
            "ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert result.exit_code == 1
        assert result.output.startswith("Error: malformed volume document at line 1")
        assert not (tmp_path / "corpus.json").exists()

    def test_ingest_command_fails_on_empty_raw_dir(self, tmp_path):
        (tmp_path / "raw").mkdir()
        (tmp_path / "mapping.tsv").write_text("puter\n", encoding="utf-8")
        result = CliRunner().invoke(main, [
            "ingest", "--raw-dir", str(tmp_path / "raw"),
            "--mapping", str(tmp_path / "mapping.tsv"),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert result.exit_code == 1
        assert "no raw volume documents" in result.output

    def test_ingest_refuses_one_path_for_both_outputs(self, cli_workspace, tmp_path):
        root, runner = cli_workspace
        corpus = tmp_path / "x.json"
        shutil.copyfile(root / "out" / "corpus.json", corpus)
        result = runner.invoke(main, [
            "ingest", "--raw-dir", str(root / "raw"), "--mapping", str(root / "mapping.tsv"),
            "--out", str(corpus), "--report", f"{tmp_path}/./x.json",
        ])
        assert_reported(result, "is named for two outputs")
        assert corpus.read_bytes() == (root / "out" / "corpus.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]

    def test_embed_command(self, cli_workspace):
        root, runner = cli_workspace
        config = write_config(root / "config-dim64.json", load_config(root / "config.json"), dim=64)
        result = runner.invoke(main, ["embed", "--config", config, "--corpus", str(root / "out" / "corpus.json"),
                                      "--mapping", str(root / "out" / "mapping.tsv")])
        assert result.exit_code == 0, result.output
        assert "embedded" in result.output

    def test_bialign_single_pair(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "pair.jsonl"
        result = runner.invoke(main, [
            "bialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"),
            "--pair", "puter:vallader", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert docs
        assert all({d["src_idiom"], d["tgt_idiom"]} == {"puter", "vallader"} for d in docs)

    @pytest.mark.parametrize("pair", ["puter", "puter:nowhere", "puter:puter", "puter:vallader:surmiran"])
    def test_bialign_rejects_a_bad_pair(self, cli_workspace, pair):
        root, runner = cli_workspace
        out = root / "bad-pair.jsonl"
        result = runner.invoke(main, [
            "bialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"), "--pair", pair, "--out", str(out),
        ])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and repr(pair) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("skip_cost", ["nan", "inf", "-0.5"])
    def test_bialign_rejects_a_skip_cost_that_is_not_finite_and_non_negative(self, cli_workspace, skip_cost):
        root, runner = cli_workspace
        out = root / "bad-lambda.jsonl"
        config = write_config(root / "config-bad-lambda.json", load_config(root / "config.json"),
                              align={"skip_cost": float(skip_cost)})
        result = runner.invoke(main, [
            "bialign", "--config", config, "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"), "--out", str(out),
        ])
        assert_reported(result, f"skip_cost must be a finite number >= 0, got {float(skip_cost)!r}")
        assert not out.exists()

    def test_failed_bialign_keeps_the_alignments_it_was_to_replace(self, cli_workspace, tmp_path, monkeypatch):
        root, runner = cli_workspace
        corpus, mapping = str(root / "out" / "corpus.json"), str(root / "out" / "mapping.tsv")
        first = corpus_groups(corpus, mapping)[1][0]
        n = len(first.members)
        alignments = tmp_path / "alignments.jsonl"
        shutil.copyfile(root / "out" / "alignments.jsonl", alignments)
        # One request per chapter: the endpoint answers the first group's, then refuses.
        session = EndpointDownAfter(n)
        monkeypatch.setattr("requests.Session", lambda: session)
        monkeypatch.setattr("polyalign.embedding.time.sleep", lambda seconds: None)
        config = write_config(tmp_path / "remote.json", load_config(root / "config.json"),
                              provider={"name": "remote", "endpoint": "http://127.0.0.1:9/embed"},
                              cache_dir=str(tmp_path / "cache"))
        result = runner.invoke(main, ["bialign", "--config", config, "--corpus", corpus, "--mapping", mapping,
                                      "--out", str(alignments)])
        assert_reported(result, "connection refused")
        assert session.left == 0
        assert alignments.read_bytes() == (root / "out" / "alignments.jsonl").read_bytes()
        # A DP batch may span groups, so the second group's refusal can come
        # before any record of the first is written: what was written is whole
        # records, a prefix of the good file.
        written = (tmp_path / "alignments.jsonl.quarantine").read_text(encoding="utf-8")
        good = (root / "out" / "alignments.jsonl").read_text(encoding="utf-8")
        assert good.startswith(written) and (not written or written.endswith("\n"))
        assert not (tmp_path / "alignments.jsonl.tmp").exists()

    def test_bialign_after_a_failed_one_leaves_no_quarantine(self, cli_workspace, tmp_path, monkeypatch):
        root, runner = cli_workspace
        alignments = tmp_path / "alignments.jsonl"
        args = ["--corpus", str(root / "out" / "corpus.json"), "--mapping", str(root / "out" / "mapping.tsv"),
                "--out", str(alignments)]
        monkeypatch.setattr("requests.Session", lambda: EndpointDownAfter(0))
        monkeypatch.setattr("polyalign.embedding.time.sleep", lambda seconds: None)
        down = write_config(tmp_path / "remote.json", load_config(root / "config.json"),
                            provider={"name": "remote", "endpoint": "http://127.0.0.1:9/embed"},
                            cache_dir=str(tmp_path / "cache"))
        assert_reported(runner.invoke(main, ["bialign", "--config", down, *args]), "connection refused")
        assert (tmp_path / "alignments.jsonl.quarantine").exists()
        result = runner.invoke(main, ["bialign", "--config", str(root / "config.json"), *args])
        assert result.exit_code == 0, result.output
        assert alignments.read_bytes() == (root / "out" / "alignments.jsonl").read_bytes()
        assert sorted(p.name for p in tmp_path.glob("alignments.jsonl*")) == ["alignments.jsonl"]

    def test_multialign_consensus_command(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "rows-cli.jsonl"
        result = runner.invoke(main, [
            "multialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"),
            "--alignments", str(root / "out" / "alignments.jsonl"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        # Same inputs as the pipeline run, so the row file must agree.
        assert out.read_bytes() == (root / "out" / "rows.jsonl").read_bytes()

    def test_multialign_single_pivot_command(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "rows-pivot.jsonl"
        result = runner.invoke(main, [
            "multialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"),
            "--alignments", str(root / "out" / "alignments.jsonl"),
            "--pivot", "sursilvan",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert out.read_text().strip()

    def test_multialign_pivot_skips_a_group_without_the_pivot(self, tmp_path):
        corpus = generate(seed=0, n_groups=2, segs_per_chapter=5)
        raw, mapping, _ = write_fixture(corpus, tmp_path)
        # Group g0002 holds no sursilvan chapter.
        header, first, second = corpus.mapping_tsv.splitlines()
        mapping.write_text("\n".join([header, first, "\t" + second.split("\t", 1)[1]]) + "\n", encoding="utf-8")
        config = make_config(tmp_path, raw, mapping)
        run_pipeline(config)
        out = tmp_path / "out"
        args = ["multialign", "--config", write_config(tmp_path / "config.json", config),
                "--corpus", str(out / "corpus.json"), "--mapping", str(out / "mapping.tsv"),
                "--alignments", str(out / "alignments.jsonl")]
        provenance = {}
        for pivot in ("sursilvan", "puter"):
            rows = tmp_path / f"rows-{pivot}.jsonl"
            result = CliRunner().invoke(main, [*args, "--pivot", pivot, "--out", str(rows)])
            assert result.exit_code == 0, result.output
            lines = rows.read_text(encoding="utf-8").splitlines()
            provenance[pivot] = {json.loads(line)["provenance"] for line in lines}
        assert provenance == {"sursilvan": {"g0001"}, "puter": {"g0001", "g0002"}}

    def test_multialign_rejects_an_unknown_pivot(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "rows-nowhere.jsonl"
        result = runner.invoke(main, [
            "multialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"),
            "--alignments", str(root / "out" / "alignments.jsonl"),
            "--pivot", "nowhere", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and "'nowhere'" in result.output
        assert not out.exists()

    def test_evaluate_command(self, cli_workspace):
        root, runner = cli_workspace
        report = root / "eval.json"
        result = runner.invoke(main, [
            "evaluate", "--hyp", str(root / "out" / "rows.jsonl"),
            "--gold", str(root / "gold.tsv"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        assert "macro P/R/F1" in result.output
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["macro"]["f1"] <= 1.0

    def test_export_bitext_command(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "bitext.tsv"
        result = runner.invoke(main, [
            "export", "bitext", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--pair", "puter:vallader", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert all("\t" in l for l in out.read_text().splitlines())

    def test_export_bitext_reports_a_missing_idiom(self, cli_workspace):
        root, runner = cli_workspace
        result = runner.invoke(main, [
            "export", "bitext", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--pair", "puter", "--out", str(root / "bitext-bad.tsv"),
        ])
        assert result.exit_code == 1
        assert result.output == "Error: pair 'puter' is not SRC:TGT, two distinct idiom codes\n"

    def test_export_stats_command(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "stats-cli.json"
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "Total" in result.output
        assert result.output == (root / "out" / "stats.txt").read_text(encoding="utf-8")
        assert out.read_bytes() == (root / "out" / "stats.json").read_bytes()

    def test_export_split_command(self, cli_workspace, small_corpus):
        root, runner = cli_workspace
        volume_ids = {v.volume_id for v in small_corpus.volumes}
        assignment = {
            vid: ("test" if vid.endswith("1") else "train") for vid in sorted(volume_ids)
        }
        splits_path = root / "splits.json"
        splits_path.write_text(json.dumps(assignment), encoding="utf-8")
        out_dir = root / "splits"
        result = runner.invoke(main, [
            "export", "split", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--splits", str(splits_path), "--out", str(out_dir),
        ])
        assert result.exit_code == 0, result.output
        for name in ("train", "validation", "test", "extra"):
            assert (out_dir / f"{name}.jsonl").exists()

    def test_export_split_keeps_each_rows_id(self, split_run):
        out, splits = split_run
        rows = {}
        for line in (out / "rows.jsonl").read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            rows[doc["row_id"]] = doc["cells"]
        for name in ("train", "test"):
            lines = (splits / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
            assert lines
            for line in lines:
                doc = json.loads(line)
                assert doc["cells"] == rows[doc["row_id"]], doc["row_id"]

    def test_export_rows_writes_back_a_split_file_byte_for_byte(self, split_run, tmp_path):
        out, splits = split_run
        echo = tmp_path / "echo.jsonl"
        result = CliRunner().invoke(main, [
            "export", "rows", "--rows", str(splits / "test.jsonl"), "--corpus", str(out / "corpus.json"),
            "--out", str(echo),
        ])
        assert result.exit_code == 0, result.output
        assert echo.read_bytes() == (splits / "test.jsonl").read_bytes()

    def test_sheet_sampled_from_a_split_names_rows_of_the_split(self, split_run, tmp_path):
        out, splits = split_run
        sheet = tmp_path / "sheet.tsv"
        result = CliRunner().invoke(main, [
            "export", "sample", "--rows", str(splits / "test.jsonl"), "--corpus", str(out / "corpus.json"),
            "--n", "3", "--seed", "1", "--out", str(sheet),
        ])
        assert result.exit_code == 0, result.output
        header, *lines = [line.split("\t") for line in sheet.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 3
        for path in (splits / "test.jsonl", out / "rows.jsonl"):
            docs = {doc["row_id"]: doc for doc in map(json.loads, path.read_text(encoding="utf-8").splitlines())}
            for row_id, *texts in lines:
                cells = docs[row_id]["cells"]
                assert texts == [cells[i]["text"] if cells.get(i) else "" for i in header[1:]], row_id

    def test_failed_export_split_keeps_the_split_files_it_was_to_replace(self, split_run, tmp_path, monkeypatch):
        out, splits = split_run
        shutil.copytree(splits, tmp_path / "splits")
        old = {p.name: p.read_bytes() for p in (tmp_path / "splits").iterdir()}
        # Another assignment: each split file it writes differs from the one it replaces.
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps({"vol01": "test", "vol02": "train", "vol03": "test", "vol04": "train"}),
                           encoding="utf-8")
        written = []

        def third_file_fails(*args):
            if len(written) == 2:
                raise PolyalignError("disk full")
            written.append(args[1])
            return export_rows(*args)

        monkeypatch.setattr(cli, "export_rows", third_file_fails)
        result = CliRunner().invoke(main, [
            "export", "split", "--rows", str(out / "rows.jsonl"), "--corpus", str(out / "corpus.json"),
            "--splits", str(swapped), "--out", str(tmp_path / "splits"),
        ])
        assert_reported(result, "disk full")
        assert {name: (tmp_path / "splits" / name).read_bytes() for name in old} == old
        assert sorted(p.name for p in (tmp_path / "splits").glob("*.quarantine")) == [
            "train.jsonl.quarantine", "validation.jsonl.quarantine"]
        assert not list((tmp_path / "splits").glob("*.tmp"))

    def test_export_split_writes_a_row_of_two_splits_to_conflicts(self, tmp_path):
        corpus = generate(seed=0, n_groups=4, segs_per_chapter=5, chapters_per_volume=2)
        raw, mapping, _ = write_fixture(corpus, tmp_path)
        run_pipeline(make_config(tmp_path, raw, mapping))
        out = tmp_path / "out"
        docs = [json.loads(line) for line in (out / "rows.jsonl").read_text(encoding="utf-8").splitlines()]
        # Row 0 lies in vol01; its puter cell moves to a puter segment of vol02.
        puter = docs[0]["cells"]["puter"]
        assert puter["segment_id"].startswith("puter/vol01/")
        puter["segment_id"] = "puter/vol02/chapter 002/0"
        rows = tmp_path / "rows-mixed.jsonl"
        rows.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps({"vol01": "train", "vol02": "test"}), encoding="utf-8")
        result = CliRunner().invoke(main, [
            "export", "split", "--rows", str(rows), "--corpus", str(out / "corpus.json"),
            "--splits", str(splits), "--out", str(tmp_path / "splits"),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.endswith(", conflicts: 1\n")
        conflicts = (tmp_path / "splits" / "conflicts.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in conflicts] == [{"row_id": docs[0]["row_id"], "splits": ["test", "train"]}]
        written = [json.loads(line)["row_id"] for name in ("train", "test")
                   for line in (tmp_path / "splits" / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(written) == len(docs) - 1 and docs[0]["row_id"] not in written

    def test_export_sample_command(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "sheet.tsv"
        result = runner.invoke(main, [
            "export", "sample", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--n", "5", "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("row_id\t")

    def test_export_rows_command_is_idempotent(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "rows-echo.jsonl"
        result = runner.invoke(main, [
            "export", "rows", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (root / "out" / "rows.jsonl").read_bytes()

    def test_stage_commands_match_the_pipeline(self, cli_workspace):
        root, runner = cli_workspace
        chain = root / "chain"
        chain.mkdir()
        corpus, mapping = str(chain / "corpus.json"), str(root / "mapping.tsv")
        config = write_config(chain / "config.json", load_config(root / "config.json"), cache_dir=str(chain / "cache"))
        commands = [
            ["ingest", "--raw-dir", str(root / "raw"), "--mapping", mapping,
             "--out", corpus, "--report", str(chain / "warnings.jsonl")],
            ["embed", "--config", config, "--corpus", corpus, "--mapping", mapping],
            ["bialign", "--config", config, "--corpus", corpus, "--mapping", mapping,
             "--pair", "all", "--out", str(chain / "alignments.jsonl")],
            ["multialign", "--config", config, "--corpus", corpus, "--mapping", mapping,
             "--alignments", str(chain / "alignments.jsonl"),
             "--out", str(chain / "rows.jsonl")],
        ]
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        for name in ("alignments.jsonl", "rows.jsonl"):
            assert (chain / name).read_bytes() == (root / "out" / name).read_bytes()

    def test_stage_commands_reproduce_a_run_of_a_non_default_config(self, tmp_path):
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        # Puter's first segment of g0001 gains half its words again, and its second keeps 8 of its 11:
        # the default length ratios (1.5, 0.67) filter neither, this config's (1.3, 0.8) both.
        path = raw / "puter-vol01.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        elements = doc["chapters"][0]["elements"]
        first, second = (element["html"][len("<p>"):-len("</p>")].split() for element in elements[:2])
        elements[:2] = [{"html": f"<p>{' '.join(first + first[:len(first) // 2])}</p>"},
                        {"html": f"<p>{' '.join(second[:8])}</p>"}]
        path.write_text(json.dumps(doc), encoding="utf-8")
        config = write_config(tmp_path / "config.json", make_config(tmp_path, raw, mapping), dim=64,
                              align={"skip_cost": 0.3}, length_filter={"upper_ratio": 1.3, "lower_ratio": 0.8})
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", config])
        assert result.exit_code == 0, result.output
        chain = tmp_path / "chain"
        chain.mkdir()
        corpus = str(chain / "corpus.json")
        for args in (
            ["ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
             "--out", corpus, "--report", str(chain / "warnings.jsonl")],
            ["embed", "--config", config, "--corpus", corpus, "--mapping", str(mapping)],
            ["bialign", "--config", config, "--corpus", corpus, "--mapping", str(mapping),
             "--out", str(chain / "alignments.jsonl")],
            ["multialign", "--config", config, "--corpus", corpus, "--mapping", str(mapping),
             "--alignments", str(chain / "alignments.jsonl"), "--out", str(chain / "rows.jsonl")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        for name in ("alignments.jsonl", "rows.jsonl"):
            assert (chain / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
        rows = [json.loads(line) for line in (chain / "rows.jsonl").read_text(encoding="utf-8").splitlines()]
        assert {row["row_id"]: row["flags"] for row in rows if row.get("flags")} == {
            "g0001/r00000": ["noise-filtered:puter"], "g0001/r00001": ["noise-filtered:puter"],
        }

    def test_bialign_reuses_the_model_embed_cached(self, cli_workspace):
        root, runner = cli_workspace
        cache = root / "cache-other"
        corpus, mapping = str(root / "out" / "corpus.json"), str(root / "out" / "mapping.tsv")
        config = write_config(root / "config-other.json", load_config(root / "config.json"),
                              cache_dir=str(cache), provider={"model": "other-v2"})
        result = runner.invoke(main, ["embed", "--config", config, "--corpus", corpus, "--mapping", mapping])
        assert result.exit_code == 0, result.output
        filled = {p.name for p in cache.glob("*.bin")}
        assert filled
        result = runner.invoke(main, [
            "bialign", "--config", config, "--corpus", corpus, "--mapping", mapping,
            "--pair", "all", "--out", str(root / "pairs-other.jsonl"),
        ])
        assert result.exit_code == 0, result.output
        assert {p.name for p in cache.glob("*.bin")} == filled

    def test_stage_chain_caches_what_run_caches(self, tmp_path):
        # The fixture has 10 chapters, and a one-row mapping groups 5 of them: only those are embedded.
        corpus = generate(seed=0, n_groups=2, segs_per_chapter=5)
        raw, mapping, _ = write_fixture(corpus, tmp_path)
        mapping.write_text("\n".join(corpus.mapping_tsv.splitlines()[:2]) + "\n", encoding="utf-8")
        config = make_config(tmp_path, raw, mapping)
        run_pipeline(config)
        chain = tmp_path / "chain"
        chain.mkdir()
        path = write_config(chain / "config.json", config, cache_dir=str(chain / "cache"))
        corpus_path = str(chain / "corpus.json")
        runner = CliRunner()
        for args in (
            ["ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
             "--out", corpus_path, "--report", str(chain / "warnings.jsonl")],
            ["embed", "--config", path, "--corpus", corpus_path, "--mapping", str(mapping)],
            ["bialign", "--config", path, "--corpus", corpus_path, "--mapping", str(mapping),
             "--out", str(chain / "alignments.jsonl")],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        cached = {p.name for p in (tmp_path / "cache").glob("*.bin")}
        assert len(cached) == 5
        assert {p.name for p in (chain / "cache").glob("*.bin")} == cached

    def test_multialign_names_the_missing_pairs(self, cli_workspace):
        root, runner = cli_workspace
        corpus, mapping = str(root / "out" / "corpus.json"), str(root / "out" / "mapping.tsv")
        pairs = str(root / "pairs-pv.jsonl")
        result = runner.invoke(main, [
            "bialign", "--config", str(root / "config.json"), "--corpus", corpus, "--mapping", mapping,
            "--pair", "puter:vallader", "--out", pairs,
        ])
        assert result.exit_code == 0, result.output
        for pivot, missing in (("all", "puter:surmiran"), ("sursilvan", "sursilvan:puter")):
            result = runner.invoke(main, [
                "multialign", "--config", str(root / "config.json"), "--corpus", corpus, "--mapping", mapping,
                "--alignments", pairs, "--pivot", pivot, "--out", str(root / "rows-pv.jsonl"),
            ])
            assert result.exit_code == 1
            assert missing in result.output
            assert "bialign --pair all" in result.output

    def test_multialign_rejects_stale_alignments(self, two_sizes):
        # Either corpus's alignments are stale for the other, in both modes.
        stale = "group g0001: the puter:surmiran alignment does not match the corpus's chapters; rerun bialign"
        runner = CliRunner()
        for corpus, other in ((8, 5), (5, 8)):
            out = two_sizes[corpus]
            for pivot in ("all", "sursilvan"):
                result = runner.invoke(main, [
                    "multialign", "--config", str(out.parent / "config.json"),
                    "--corpus", str(out / "corpus.json"), "--mapping", str(out / "mapping.tsv"),
                    "--alignments", str(two_sizes[other] / "alignments.jsonl"), "--pivot", pivot,
                    "--out", str(out.parent / "rows-stale.jsonl"),
                ])
                assert result.exit_code == 1
                assert stale in result.output
                assert not (out.parent / "rows-stale.jsonl").exists()


class EndpointDownAfter:
    """A remote endpoint's session that answers ``n`` requests with hash
    vectors, then refuses every connection."""

    def __init__(self, n):
        self.left = n

    def post(self, url, json=None, headers=None, timeout=None):
        if not self.left:
            raise ConnectionError("connection refused")
        self.left -= 1
        return FakeResponse([[float(x) for x in hash_embed(t, 256)] for t in json["texts"]])


def assert_reported(result, *names):
    """Exit 1 through the CLI's own error path: one `Error:` line naming each of ``names``."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1, result.output
    for name in names:
        assert str(name) in result.output


class TestCliChecksValues:
    def test_export_bitext_rejects_one_idiom_twice(self, cli_workspace):
        root, runner = cli_workspace
        out = root / "bitext-same.tsv"
        result = runner.invoke(main, [
            "export", "bitext", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--pair", "puter:puter", "--out", str(out),
        ])
        assert_reported(result, "'puter:puter'")
        assert not out.exists()

    def test_export_bitext_checks_idioms_against_the_corpus(self, cli_workspace):
        root, runner = cli_workspace
        empty = root / "rows-empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = root / "bitext-nowhere.tsv"
        result = runner.invoke(main, [
            "export", "bitext", "--rows", str(empty), "--corpus", str(root / "out" / "corpus.json"),
            "--pair", "nowhere:else", "--out", str(out),
        ])
        assert_reported(result, "'nowhere'")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-1", "100000"])
    def test_export_sample_rejects_n_outside_the_rows(self, cli_workspace, n):
        root, runner = cli_workspace
        out = root / "sheet-bad.tsv"
        result = runner.invoke(main, [
            "export", "sample", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"), "--n", n, "--out", str(out),
        ])
        assert_reported(result, f"cannot sample {n} of")
        assert not out.exists()


def _format_missing(doc, segments):
    del doc["format"]
    return "KeyError: 'format'"


def _format_other(doc, segments):
    doc["format"] = "polyalign-corpus/2"
    return "format 'polyalign-corpus/2' is not 'polyalign-corpus/1'"


def _segment_id_repeated(doc, segments):
    segments[1]["id"], segments[1]["position"] = segments[0]["id"], segments[0]["position"]
    return f"segment id {segments[0]['id']!r} is held by two segments"


def _segment_id_misspelled(doc, segments):
    segments[0]["id"] += "x"
    return f"segment id {segments[0]['id']!r} does not spell idiom/volume_id/key/position"


def _volume_id_repeated(doc, segments):
    # A copy of the first volume under other chapter keys: no segment id repeats.
    volume = json.loads(json.dumps(doc["volumes"][0]))
    for chapter in volume["chapters"]:
        chapter["key"] += " copy"
        for seg in chapter["segments"]:
            seg["id"] = make_segment_id(volume["idiom"], volume["volume_id"], chapter["key"], seg["position"])
    doc["volumes"].append(volume)
    return f"ValueError: {volume['idiom']}/{volume['volume_id']}: duplicate volume_id"


class TestCliReportsFileSystemErrors:
    def test_bialign_into_a_missing_directory(self, cli_workspace, tmp_path):
        root, runner = cli_workspace
        result = runner.invoke(main, [
            "bialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"), "--out", str(tmp_path / "nodir" / "al.jsonl"),
        ])
        # The file is named as given, not as the temporary file committing writes.
        assert_reported(result, "No such file or directory", f"{tmp_path / 'nodir' / 'al.jsonl'}'")
        assert ".tmp" not in result.output

    def test_corpus_that_is_a_directory(self, cli_workspace, tmp_path):
        root, runner = cli_workspace
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(root / "out" / "rows.jsonl"), "--corpus", str(tmp_path),
        ])
        assert_reported(result, "Is a directory", tmp_path)

    def test_split_into_a_file(self, split_run, tmp_path):
        out, _ = split_run
        (tmp_path / "splits").write_text("", encoding="utf-8")
        result = CliRunner().invoke(main, [
            "export", "split", "--rows", str(out / "rows.jsonl"), "--corpus", str(out / "corpus.json"),
            "--splits", str(out.parent / "splits.json"), "--out", str(tmp_path / "splits"),
        ])
        assert_reported(result, "File exists", tmp_path / "splits")
        assert (tmp_path / "splits").read_text(encoding="utf-8") == ""


class TestCliReportsMalformedFiles:
    @pytest.mark.parametrize("text", ['{"raw_dir": ', "[1, 2]"])
    def test_run_config_not_a_json_object(self, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert_reported(CliRunner().invoke(main, ["run", "--config", str(config)]), config)

    def test_corpus_not_json(self, cli_workspace):
        root, runner = cli_workspace
        corpus = root / "corpus-bad.json"
        corpus.write_text("not json\n", encoding="utf-8")
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(root / "out" / "rows.jsonl"), "--corpus", str(corpus),
        ])
        assert_reported(result, corpus)

    @pytest.mark.parametrize("field, value", [("token_count", "3"), ("position", True), ("html", 7)])
    def test_corpus_segment_field_of_the_wrong_type(self, cli_workspace, tmp_path, field, value):
        root, runner = cli_workspace
        doc = json.loads((root / "out" / "corpus.json").read_text(encoding="utf-8"))
        doc["volumes"][0]["chapters"][0]["segments"][0][field] = value
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(root / "out" / "rows.jsonl"), "--corpus", str(corpus),
        ])
        assert_reported(result, f"{corpus}: not a polyalign corpus", f"field {field!r} is {value!r}")

    @pytest.mark.parametrize("edit", [_format_missing, _format_other, _segment_id_repeated, _segment_id_misspelled,
                                      _volume_id_repeated])
    def test_corpus_that_is_not_polyalign_corpus_1(self, cli_workspace, tmp_path, edit):
        root, runner = cli_workspace
        doc = json.loads((root / "out" / "corpus.json").read_text(encoding="utf-8"))
        problem = edit(doc, doc["volumes"][0]["chapters"][0]["segments"])
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(root / "out" / "rows.jsonl"), "--corpus", str(corpus),
        ])
        assert_reported(result, f"{corpus}: not a polyalign corpus", problem)

    @pytest.mark.parametrize("field, value, expected", [
        ("kind", "novel", "field 'kind' is 'novel'"),
        ("idiom", "PUTER", "invalid idiom code: 'PUTER'"),
        ("volume_id", "a b", "field 'volume_id' is 'a b'"),
        ("volume_id", "a#b", "field 'volume_id' is 'a#b'"),
        ("volume_id", "vol01/b", "field 'volume_id' is 'vol01/b'"),
    ], ids=["kind-novel", "idiom-upper-case", "volume-id-space", "volume-id-hash", "volume-id-slash"])
    def test_corpus_volume_header_that_ingest_refuses(self, cli_workspace, tmp_path, field, value, expected):
        # The segment ids spell the new header, so only the header rules can refuse it.
        root, runner = cli_workspace
        doc = json.loads((root / "out" / "corpus.json").read_text(encoding="utf-8"))
        volume = doc["volumes"][0]
        volume[field] = value
        for chapter in volume["chapters"]:
            for seg in chapter["segments"]:
                seg["id"] = make_segment_id(volume["idiom"], volume["volume_id"], chapter["key"], seg["position"])
        corpus, rows = tmp_path / "corpus.json", tmp_path / "rows.jsonl"
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        rows.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["export", "stats", "--rows", str(rows), "--corpus", str(corpus)])
        assert_reported(result, f"{corpus}: not a polyalign corpus", field, expected)

    @pytest.mark.parametrize("key, value", [
        ("total_cost", "x"), ("src_chapter", 5), ("cost", "x"), ("cost", True), ("cost", float("nan")),
    ])
    def test_alignment_key_of_the_wrong_type(self, cli_workspace, tmp_path, key, value):
        root, runner = cli_workspace
        lines = (root / "out" / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[1])
        # A link's cost is checked with the record's keys.
        (doc["links"][-1] if key == "cost" else doc)[key] = value
        alignments = tmp_path / "alignments.jsonl"
        alignments.write_text("\n".join([lines[0], json.dumps(doc)] + lines[2:]) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "multialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"), "--alignments", str(alignments),
            "--out", str(tmp_path / "rows.jsonl"),
        ])
        assert_reported(result, f"{alignments}, line 2: not an alignment record", f"field {key!r} is {value!r}")
        assert not (tmp_path / "rows.jsonl").exists()

    def test_alignments_with_a_truncated_line(self, cli_workspace):
        root, runner = cli_workspace
        lines = (root / "out" / "alignments.jsonl").read_text(encoding="utf-8").splitlines()
        alignments = root / "alignments-cut.jsonl"
        alignments.write_text(lines[0] + "\n" + lines[1][:40] + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "multialign", "--config", str(root / "config.json"), "--corpus", str(root / "out" / "corpus.json"),
            "--mapping", str(root / "out" / "mapping.tsv"), "--alignments", str(alignments),
            "--out", str(root / "rows-cut.jsonl"),
        ])
        assert_reported(result, alignments, "line 2")
        assert not (root / "rows-cut.jsonl").exists()

    @pytest.mark.parametrize("field, edit", [
        ("provenance", lambda doc: doc.pop("provenance")),
        ("provenance", lambda doc: doc.update(provenance=["g"])),
        ("flags", lambda doc: doc.update(flags="noise")),
        ("flags", lambda doc: doc.update(flags=["noise", 1])),
        ("row_id", lambda doc: doc.pop("row_id")),
        ("row_id", lambda doc: doc.update(row_id=2)),
        ("row_id", lambda doc: doc.update(row_id="g9999/r00002")),
        # Line 3's id is r00002; r00001 is line 2's.
        ("row_id", lambda doc: doc.update(row_id=doc["row_id"].replace("r00002", "r00001"))),
    ], ids=["no-provenance", "provenance-list", "flags-string", "flags-non-string",
            "no-row-id", "row-id-number", "row-id-of-another-group", "row-id-repeated"])
    def test_row_with_a_malformed_field(self, cli_workspace, tmp_path, field, edit):
        root, runner = cli_workspace
        docs = [json.loads(l) for l in (root / "out" / "rows.jsonl").read_text(encoding="utf-8").splitlines()]
        edit(docs[2])
        rows = tmp_path / "rows-malformed.jsonl"
        rows.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(rows), "--corpus", str(root / "out" / "corpus.json"),
        ])
        assert_reported(result, rows, "line 3", field)

    @pytest.mark.parametrize("chapter, expected", [
        ({"title": "Lecziun"}, "'elements'"),
        ("Lecziun", "string indices"),
    ])
    def test_malformed_chapter(self, small_corpus, tmp_path, chapter, expected):
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        path = next(raw.glob("puter-*.json"))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["chapters"][0] = chapter
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = CliRunner().invoke(main, [
            "ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert_reported(result, path, expected)
        assert not (tmp_path / "corpus.json").exists()

    @pytest.mark.parametrize("field, expected", [
        ("volume_id", "volume document: field 'volume_id' is 7, not str"),
        ("title", "puter/vol01: chapter title 7 is not a string"),
        ("html", "#element0: html 7 is not a string"),
    ])
    def test_volume_field_that_is_a_number(self, small_corpus, tmp_path, field, expected):
        raw, mapping, _ = write_fixture(small_corpus, tmp_path)
        path = next(raw.glob("puter-*.json"))
        doc = json.loads(path.read_text(encoding="utf-8"))
        if field == "volume_id":
            doc["volume_id"] = 7
        elif field == "title":
            doc["chapters"][0]["title"] = 7
        else:
            doc["chapters"][0]["elements"][0]["html"] = 7
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = CliRunner().invoke(main, [
            "ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert_reported(result, path, expected)
        assert not (tmp_path / "corpus.json").exists()

    @pytest.mark.parametrize("cell", ["an id that is a list", "a segment of another idiom"])
    def test_row_cell_that_does_not_fit_the_corpus(self, cli_workspace, cell):
        root, runner = cli_workspace
        docs = [json.loads(l) for l in (root / "out" / "rows.jsonl").read_text(encoding="utf-8").splitlines()]
        puter = docs[2]["cells"]["puter"]
        if cell == "an id that is a list":
            puter["segment_id"] = [puter["segment_id"]]
            expected = f"row references unknown segment {puter['segment_id']!r}, no puter segment of the corpus"
        else:
            docs[2]["cells"]["vallader"] = puter
            expected = f"row references unknown segment {puter['segment_id']!r}, no vallader segment of the corpus"
        rows = root / "rows-misfiled.jsonl"
        rows.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        result = runner.invoke(main, [
            "export", "stats", "--rows", str(rows), "--corpus", str(root / "out" / "corpus.json"),
        ])
        assert_reported(result, f"{rows}, line 3: {expected}")

    def test_two_chapters_with_one_key(self, tmp_path):
        # "Chapter 000!" normalizes to the key of "Chapter 000"; the later
        # chapter, empty, would otherwise take the earlier one's place.
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        path = raw / "puter-vol01.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["chapters"].append({"title": doc["chapters"][0]["title"] + "!", "elements": []})
        path.write_text(json.dumps(doc), encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(make_config(tmp_path, raw, mapping).to_dict()), encoding="utf-8")
        result = CliRunner().invoke(main, ["run", "--config", str(config_path)])
        assert_reported(result, "puter/vol01: two chapters have the key 'chapter 000'")

    @pytest.mark.parametrize("command", ["ingest", "bialign", "multialign"])
    def test_mapping_with_an_invalid_idiom_code(self, cli_workspace, tmp_path, command):
        root, runner = cli_workspace
        mapping = tmp_path / "mapping-bad.tsv"
        text = (root / "out" / "mapping.tsv").read_text(encoding="utf-8")
        mapping.write_text(text.replace("puter", "Puter", 1), encoding="utf-8")
        corpus = str(root / "out" / "corpus.json")
        args = {
            "ingest": ["--raw-dir", str(root / "raw"), "--out", str(tmp_path / "corpus.json"),
                       "--report", str(tmp_path / "w.jsonl")],
            "bialign": ["--config", str(root / "config.json"), "--corpus", corpus,
                        "--out", str(tmp_path / "alignments.jsonl")],
            "multialign": ["--config", str(root / "config.json"), "--corpus", corpus,
                           "--alignments", str(root / "out" / "alignments.jsonl"),
                           "--out", str(tmp_path / "rows.jsonl")],
        }[command]
        result = runner.invoke(main, [command, "--mapping", str(mapping), *args])
        assert_reported(result, mapping, "'Puter'")
        assert not any(tmp_path.glob("*.json*"))

    @pytest.mark.parametrize("case", ["one idiom twice", "a cell beyond the header", "a chapter in two groups"])
    def test_mapping_that_would_lose_or_repeat_a_chapter(self, cli_workspace, tmp_path, case):
        root, runner = cli_workspace
        header, *rows = (root / "mapping.tsv").read_text(encoding="utf-8").splitlines()
        first = rows[0].split("\t")[0]
        if case == "one idiom twice":
            header, expected = header.replace("vallader", "puter"), "header: idiom puter names two columns"
        elif case == "a cell beyond the header":
            rows[1] += "\t\t" + first
            expected = "mapping row 2: a cell lies beyond the header's 5 columns"
        else:
            rows.append(rows[0])
            expected = f"mapping row {len(rows)}, idiom sursilvan: chapter {first} is already grouped by row 1"
        mapping = tmp_path / "mapping-bad.tsv"
        mapping.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "ingest", "--raw-dir", str(root / "raw"), "--mapping", str(mapping),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert_reported(result, mapping, expected)
        assert not (tmp_path / "corpus.json").exists()

    @pytest.mark.parametrize("case", ["two volumes with one id", "a title with no key", "an empty mapping",
                                      "a mapping cell without #"])
    def test_raw_volumes_or_mapping_that_ingest_rejects(self, tmp_path, case):
        raw, mapping, _ = write_fixture(generate(seed=0, n_groups=2, segs_per_chapter=5), tmp_path)
        volume = raw / "puter-vol01.json"
        if case == "two volumes with one id":
            shutil.copyfile(volume, raw / "puter-copy.json")
            expected = "corpus validation failed: puter/vol01: duplicate volume_id"
        elif case == "a title with no key":
            doc = json.loads(volume.read_text(encoding="utf-8"))
            doc["chapters"][0]["title"] = "?!"
            volume.write_text(json.dumps(doc), encoding="utf-8")
            expected = f"puter/vol01: chapter title '?!' normalizes to an empty key (in {volume})"
        elif case == "an empty mapping":
            mapping.write_text("\n \n", encoding="utf-8")
            expected = f"empty chapter mapping file (in {mapping})"
        else:
            mapping.write_text(mapping.read_text(encoding="utf-8").replace("vol01#chapter 000", "vol01", 1),
                               encoding="utf-8")
            expected = f"mapping row 1, idiom sursilvan: cell 'vol01' is not volume_id#chapter_key (in {mapping})"
        result = CliRunner().invoke(main, [
            "ingest", "--raw-dir", str(raw), "--mapping", str(mapping),
            "--out", str(tmp_path / "corpus.json"), "--report", str(tmp_path / "w.jsonl"),
        ])
        assert_reported(result, expected)
        assert not (tmp_path / "corpus.json").exists()

    @pytest.mark.parametrize("text", ["{vol01: train}", '["vol01"]'])
    def test_splits_not_a_json_object(self, cli_workspace, text):
        root, runner = cli_workspace
        splits = root / "splits-bad.json"
        splits.write_text(text, encoding="utf-8")
        result = runner.invoke(main, [
            "export", "split", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--splits", str(splits), "--out", str(root / "splits-bad"),
        ])
        assert_reported(result, splits)

    def test_splits_value_that_is_not_a_split_name(self, cli_workspace, small_corpus):
        root, runner = cli_workspace
        splits = root / "splits-list.json"
        splits.write_text(json.dumps({v.volume_id: ["train"] for v in small_corpus.volumes}), encoding="utf-8")
        result = runner.invoke(main, [
            "export", "split", "--rows", str(root / "out" / "rows.jsonl"),
            "--corpus", str(root / "out" / "corpus.json"),
            "--splits", str(splits), "--out", str(root / "splits-list"),
        ])
        assert_reported(result, splits, "['train']")
        assert not (root / "splits-list").exists()

    @pytest.mark.parametrize("command", ["export-stats", "multialign", "bialign", "evaluate", "ingest"])
    def test_bytes_that_are_not_utf8(self, cli_workspace, tmp_path, command):
        root, runner = cli_workspace
        out = root / "out"
        corpus, mapping = str(out / "corpus.json"), str(out / "mapping.tsv")
        bad = tmp_path / "undecodable"
        if command == "ingest":
            shutil.copytree(root / "raw", tmp_path / "raw")
            bad = next((tmp_path / "raw").glob("puter-*.json"))
        bad.write_bytes(b"\xff\xfe")
        written = tmp_path / "written"
        args = {
            "export-stats": ["export", "stats", "--rows", bad, "--corpus", corpus, "--out", written],
            "multialign": ["multialign", "--config", root / "config.json", "--corpus", corpus, "--mapping", mapping,
                           "--alignments", bad, "--out", written],
            "bialign": ["bialign", "--config", root / "config.json", "--corpus", corpus, "--mapping", bad,
                        "--out", written],
            "evaluate": ["evaluate", "--hyp", out / "rows.jsonl", "--gold", bad, "--corpus", corpus,
                         "--report", written],
            "ingest": ["ingest", "--raw-dir", tmp_path / "raw", "--mapping", root / "mapping.tsv",
                       "--out", written, "--report", tmp_path / "warnings.jsonl"],
        }[command]
        assert_reported(runner.invoke(main, [str(a) for a in args]), bad)
        assert not written.exists()

    @pytest.mark.parametrize("gold", ["config", "foreign ids"])
    def test_gold_file_that_does_not_fit_the_corpus(self, cli_workspace, tmp_path, gold):
        root, runner = cli_workspace
        path = tmp_path / "gold.tsv"
        if gold == "config":
            shutil.copyfile(root / "config.json", path)
        else:
            path.write_text("puter\tvallader\nputer/x/y/0\tvallader/x/y/0\n", encoding="utf-8")
        report = tmp_path / "eval.json"
        result = runner.invoke(main, [
            "evaluate", "--hyp", str(root / "out" / "rows.jsonl"), "--gold", str(path),
            "--corpus", str(root / "out" / "corpus.json"), "--report", str(report),
        ])
        assert_reported(result, path, "invalid idiom code" if gold == "config" else "'puter/x/y/0'")
        assert not report.exists()
