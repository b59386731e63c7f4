import dataclasses
import errno
import hashlib
import io
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import cosine, hash_embed_reference
from polyalign.embedding import (
    EmbeddingCache,
    ProviderConfig,
    RemoteProvider,
    embed_segments,
    hash_embed,
)
from polyalign.model import PolyalignError, Segment


def seg(text, pos=0, html=None):
    return Segment(
        id=f"puter/v1/c/{pos}", idiom="puter", position=pos,
        html=html if html is not None else f"<p>{text}</p>",
        text=text, token_count=max(1, len(text.split())),
    )


class TestCosine:
    def test_identity(self):
        u = np.array([0.3, 0.4, 0.5])
        assert cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine((1, 0), (0, 1)) == 0.0

    def test_hand_value(self):
        assert cosine((1, 0), (0.6, 0.8)) == pytest.approx(0.6)

    def test_zero_vector_errors(self):
        with pytest.raises(PolyalignError, match="cosine of a zero vector is undefined"):
            cosine((0, 0), (1, 0))

    def test_dim_mismatch_errors(self):
        with pytest.raises(PolyalignError, match=r"dimension mismatch: \(2,\) vs \(3,\)"):
            cosine((1, 0), (1, 0, 0))

    def test_clamped_to_unit_interval(self):
        u = np.full(64, 0.125)
        assert -1.0 <= cosine(u, u) <= 1.0


class TestHashEmbed:
    def test_deterministic(self):
        a = hash_embed("la polizia ha controllà", 64)
        b = hash_embed("la polizia ha controllà", 64)
        assert np.array_equal(a, b)

    def test_self_similarity(self):
        v = hash_embed("abcdefgh", 256)
        assert cosine(v, v) == pytest.approx(1.0)

    def test_unit_norm(self):
        for text in ("x", "ab", "some longer piece of text"):
            assert np.linalg.norm(hash_embed(text, 32)) == pytest.approx(1.0, abs=1e-6)

    def test_similar_texts_rank_above_unrelated(self):
        x = hash_embed("la polizia ha controllà", 256)
        y = hash_embed("la polizia ho controllo", 256)
        z = hash_embed("quatter chavals", 256)
        assert cosine(x, y) > cosine(x, z)

    def test_dim_too_small_errors(self):
        with pytest.raises(PolyalignError, match="hash_embed requires dim >= 8"):
            hash_embed("abc", 4)

    def test_anagrams_differ(self):
        # same character multiset, different order
        a = hash_embed("abcdef", 128)
        b = hash_embed("fedcba", 128)
        assert not np.array_equal(a, b)

    def test_case_and_nfc_insensitive(self):
        assert np.array_equal(hash_embed("ABC def", 64), hash_embed("abc def", 64))
        assert np.array_equal(hash_embed("é", 64), hash_embed("é", 64))

    @given(
        st.one_of(st.text(max_size=40), st.text(alphabet="ae\u00e9\u0301İıßΣς", max_size=8)),
        st.sampled_from([8, 16, 64, 256, 257]),
    )
    @example("", 8)
    @example("ab", 257)
    @example("e\u0301", 16)
    @example("İstanbul", 64)
    def test_equals_the_gram_by_gram_reference(self, text, dim):
        assert hash_embed(text, dim).tobytes() == hash_embed_reference(text, dim).tobytes()

    # Recorded before the slot table existed: the vectors every ngram3-v1
    # cache record holds must not change, even if the reference moves too.
    PINNED_TEXTS = (
        "", "a", "ab", "abc", "La polizia ha controllà la via.", "İstanbul", "e\u0301", "\u00e9",
        "<p>Il <strong>chaun</strong> &lt;b&gt; cur</p>", "Ün cudesch da scoula \U0001f404",
        "Straße ΑΒΓ ﬁ\t\n", "a" * 90,
    )

    @pytest.mark.parametrize("dim, sha256", [
        (64, "07ad1e7add417d47cfde726df3acaf5e7d3b0e21b26abd89a6aaac67c1e30255"),
        (256, "c482f773c2479489d7014e98cd468818efc684669672a2a469052589998f3960"),
    ])
    def test_pinned_vectors(self, dim, sha256):
        vectors = b"".join(hash_embed(t, dim).tobytes() for t in self.PINNED_TEXTS)
        assert hashlib.sha256(vectors).hexdigest() == sha256


class FakeProvider:
    """Returns fixed unit vectors keyed by text; counts calls."""

    def __init__(self, table, dim):
        self.table = table
        self.dim = dim
        self.calls = []

    def embed_batch(self, texts):
        self.calls.append(list(texts))
        return np.stack([np.asarray(self.table[t], dtype=np.float32) for t in texts])


class TestEmbedSegments:
    def test_empty_input(self):
        mat = embed_segments([], ProviderConfig(), "text")
        assert mat.shape == (0, 256)
        assert embed_segments([], ProviderConfig(), "concat", dim=64).shape == (0, 128)

    def test_batching_and_order(self, monkeypatch):
        import polyalign.embedding as emb

        segs = [seg(f"text {i}", i) for i in range(3)]
        provider = FakeProvider({s.text: hash_embed(s.text, 64) for s in segs}, 64)
        monkeypatch.setattr(emb, "make_provider", lambda cfg, dim=256: provider)
        mat = embed_segments(segs, ProviderConfig(batch_size=2), "text", dim=64)
        assert mat.shape == (3, 64)
        assert [len(batch) for batch in provider.calls] == [2, 1]  # two provider calls
        for i, s in enumerate(segs):
            assert np.array_equal(mat[i], hash_embed(s.text, 64))

    def test_html_mode_embeds_markup(self):
        s = seg("abc")
        text_mat = embed_segments([s], ProviderConfig(), "text", dim=64)
        html_mat = embed_segments([s], ProviderConfig(), "html", dim=64)
        assert not np.array_equal(text_mat[0], html_mat[0])
        assert np.array_equal(html_mat[0], hash_embed(s.html, 64))

    def test_text_mode_embeds_the_content(self):
        plain = seg("Il chaun cuorra sur la prada verda.", 0)
        bold = seg("Il <strong>chaun</strong> cuorra sur la prada verda.", 1,
                   html="<p>Il <strong>chaun</strong> cuorra sur la prada verda.</p>")
        text_mat = embed_segments([plain, bold, seg("Tom &amp; Jerry", 2)], ProviderConfig(), "text", dim=64)
        assert np.array_equal(text_mat[0], text_mat[1])
        assert np.array_equal(text_mat[2], hash_embed("Tom & Jerry", 64))
        html_mat = embed_segments([plain, bold], ProviderConfig(), "html", dim=64)
        assert not np.array_equal(html_mat[0], html_mat[1])
        concat = embed_segments([plain, bold], ProviderConfig(), "concat", dim=64)
        assert np.allclose(concat[0, :64], concat[1, :64], atol=1e-6)
        assert not np.allclose(concat[0, 64:], concat[1, 64:], atol=1e-6)

    def test_concat_hand_arithmetic(self, monkeypatch):
        import polyalign.embedding as emb

        s = seg("t", html="h")
        table = {"t": [1.0, 0.0], "h": [0.0, 1.0]}
        monkeypatch.setattr(
            emb, "make_provider", lambda cfg, dim=256: FakeProvider(table, 2)
        )
        mat = embed_segments([s], ProviderConfig(), "concat", dim=2)
        expected = np.array([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)])
        assert np.allclose(mat[0], expected, atol=1e-6)
        assert mat.shape == (1, 4)

    def test_concat_rows_match_the_per_row_reference(self):
        segs = [seg(f"segment <strong>{i}</strong> of {'word ' * i}", i) for i in range(6)]
        mat = embed_segments(segs, ProviderConfig(), "concat", dim=64)
        for row, s in zip(mat, segs):
            cat = np.concatenate([hash_embed(s.content(), 64), hash_embed(s.html, 64)]).astype(np.float64)
            assert np.allclose(row, cat / np.linalg.norm(cat), rtol=0, atol=1e-7)

    @given(st.integers(0, 2**32 - 1))
    def test_concat_cosine_is_mean_of_part_cosines(self, seed):
        rng = np.random.default_rng(seed)
        def unit(v):
            return v / np.linalg.norm(v)
        t1, h1, t2, h2 = (unit(rng.normal(size=16)) for _ in range(4))
        c1 = unit(np.concatenate([t1, h1]))
        c2 = unit(np.concatenate([t2, h2]))
        assert cosine(c1, c2) == pytest.approx((cosine(t1, t2) + cosine(h1, h2)) / 2, abs=1e-9)

    def test_cache_hit_is_bit_identical_and_skips_provider(self, tmp_path, monkeypatch):
        import polyalign.embedding as emb

        segs = [seg(f"text {i}", i) for i in range(3)]
        table = {s.text: hash_embed(s.text, 64) for s in segs}
        providers = []

        def make_provider(cfg, dim=256):
            providers.append(FakeProvider(table, dim))
            return providers[-1]

        monkeypatch.setattr(emb, "make_provider", make_provider)
        cache = EmbeddingCache(tmp_path / "cache")
        mat1 = embed_segments(segs, ProviderConfig(), "text", cache, dim=64)
        cache2 = EmbeddingCache(tmp_path / "cache")
        mat2 = embed_segments(segs, ProviderConfig(), "text", cache2, dim=64)
        assert len(providers) == 1 and providers[0].calls  # the warm call makes no provider
        assert np.array_equal(mat1, mat2)

    def test_cache_keys_the_dim(self, tmp_path):
        segs = [seg(f"text {i}", i) for i in range(3)]
        cache = EmbeddingCache(tmp_path / "cache")
        embed_segments(segs, ProviderConfig(), "text", cache, dim=256)
        mat = embed_segments(segs, ProviderConfig(), "text", cache, dim=64)
        assert mat.shape == (3, 64)
        for i, s in enumerate(segs):
            assert np.array_equal(mat[i], hash_embed(s.text, 64))

    def test_non_unit_rows_rejected(self, tmp_path):
        # A cache record whose rows are not unit-norm is read back and refused.
        texts = chapter_texts(0, n=2)
        cache = EmbeddingCache(tmp_path)
        cache.put(chapter_key(texts), np.ones((2, 16)))
        cache.flush()
        segs = [seg(t, i) for i, t in enumerate(texts)]
        with pytest.raises(PolyalignError, match="unit-norm"):
            embed_segments(segs, ProviderConfig(), "text", EmbeddingCache(tmp_path), dim=16)

    @pytest.mark.parametrize("norm, accepted", [
        (1 + 1.0e-5, True), (1 - 1.0e-5, True), (1 + 1.2e-5, False), (1 - 1.2e-5, False),
        (math.nan, False), (math.inf, False),
    ], ids=["1+1.0e-5", "1-1.0e-5", "1+1.2e-5", "1-1.2e-5", "nan", "inf"])
    def test_cached_rows_keep_the_allclose_unit_norm_tolerance(self, tmp_path, norm, accepted):
        # The tolerance is np.allclose(norms, 1.0, atol=1e-6)'s: |norm - 1| <= 1e-6 + 1e-5.
        texts = chapter_texts(0, n=2)
        rows = np.zeros((2, 16), dtype=np.float32)
        rows[:, 0] = 1.0, norm
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-6) == accepted
        cache = EmbeddingCache(tmp_path)
        cache.put(chapter_key(texts), rows)
        cache.flush()
        segs = [seg(t, i) for i, t in enumerate(texts)]
        if accepted:
            assert np.array_equal(embed_segments(segs, ProviderConfig(), "text", cache, dim=16), rows)
        else:
            with pytest.raises(PolyalignError, match="unit-norm"):
                embed_segments(segs, ProviderConfig(), "text", cache, dim=16)

    def test_non_unit_provider_rows_are_not_cached(self, tmp_path, monkeypatch):
        import polyalign.embedding as emb

        segs = [seg("a", 0), seg("b", 1)]
        provider = FakeProvider({"a": [1.0, 1.0], "b": [0.0, 1.0]}, 2)
        monkeypatch.setattr(emb, "make_provider", lambda cfg, dim=256: provider)
        with pytest.raises(PolyalignError, match="unit-norm"):
            embed_segments(segs, ProviderConfig(), "text", EmbeddingCache(tmp_path), dim=2)
        assert not list(tmp_path.iterdir())

    def test_unknown_mode_errors(self):
        with pytest.raises(PolyalignError, match="unknown mode 'words'"):
            embed_segments([], ProviderConfig(), "words")


class FailingProvider(FakeProvider):
    """A FakeProvider whose ``fail_on``-th call raises."""

    def __init__(self, table, dim, fail_on):
        super().__init__(table, dim)
        self.fail_on = fail_on

    def embed_batch(self, texts):
        if len(self.calls) + 1 == self.fail_on:
            raise PolyalignError("provider down")
        return super().embed_batch(texts)


def chapter_texts(offset, n=30, vocabulary=40):
    return [f"text {(offset + i) % vocabulary}" for i in range(n)]


def chapter_key(texts, dim=16):
    return EmbeddingCache.key("hash", "ngram3-v1", "text", dim, texts)


def chapter_matrix(texts, dim=16):
    return np.stack([hash_embed(t, dim) for t in texts])


class TestEmbeddingCache:
    def test_caches_sharing_a_directory_keep_both_sets(self, tmp_path):
        a, b = EmbeddingCache(tmp_path), EmbeddingCache(tmp_path)
        chapters = [chapter_texts(5 * i, n=3 + i) for i in range(4)]
        a.put(chapter_key(chapters[0]), chapter_matrix(chapters[0]))
        b.put(chapter_key(chapters[2]), chapter_matrix(chapters[2]))
        a.flush()
        a.put(chapter_key(chapters[1]), chapter_matrix(chapters[1]))
        b.flush()
        b.put(chapter_key(chapters[3]), chapter_matrix(chapters[3]))
        a.flush()
        b.flush()
        reader = EmbeddingCache(tmp_path)
        for texts in chapters:
            assert np.array_equal(reader.get(chapter_key(texts), len(texts), 16), chapter_matrix(texts))

    def test_concurrent_writers_share_a_directory(self, tmp_path):
        errors = []
        # Offsets 0 and 40 give the same chapter, so two writers race on one record.
        chapters = [chapter_texts(5 * n if n < 5 else 40) for n in range(6)]

        def worker(texts):
            try:
                segs = [seg(t, i) for i, t in enumerate(texts)]
                embed_segments(segs, ProviderConfig(batch_size=3), "text", EmbeddingCache(tmp_path), dim=16)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(texts,)) for texts in chapters]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.bin"))) == 5
        reader = EmbeddingCache(tmp_path)
        for texts in chapters:
            assert np.array_equal(reader.get(chapter_key(texts), 30, 16), chapter_matrix(texts))

    def test_key_separates_texts_unambiguously(self):
        assert chapter_key(["a\0b"]) != chapter_key(["a", "b"])
        assert chapter_key(["a", "b"]) != chapter_key(["b", "a"])
        assert chapter_key(["a"]) != chapter_key(["a"], dim=32)

    def test_wrong_size_record_raises(self, tmp_path):
        texts = chapter_texts(0, n=3)
        chapter_matrix(texts[:2]).astype("<f4").tofile(tmp_path / f"{chapter_key(texts)}.bin")
        with pytest.raises(PolyalignError, match=chapter_key(texts)):
            EmbeddingCache(tmp_path).get(chapter_key(texts), 3, 16)
        segs = [seg(t, i) for i, t in enumerate(texts)]
        with pytest.raises(PolyalignError, match="not 3x16"):
            embed_segments(segs, ProviderConfig(), "text", EmbeddingCache(tmp_path), dim=16)

    def test_repeated_text_in_a_cold_chapter(self, tmp_path):
        segs = [seg("same", 0), seg("other", 1), seg("same", 2)]
        mat = embed_segments(segs, ProviderConfig(batch_size=1), "text", EmbeddingCache(tmp_path), dim=64)
        assert np.array_equal(mat[0], mat[2])
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.bin"))) == 1

    def test_failed_conversion_opens_no_file(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put("k", [[1.0], [1.0, 2.0]])
        assert not list(tmp_path.iterdir()) and not cache.pending

    # An interrupt in the middle of a write removes the temporary file too.
    @pytest.mark.parametrize("error, message", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), "No space left"),
        (KeyboardInterrupt("stopped"), "stopped"),
    ])
    def test_failed_write_removes_its_temporary_file(self, tmp_path, monkeypatch, error, message):
        import polyalign.embedding as emb

        class FailingWrite(io.FileIO):
            def write(self, data):
                raise error

        cache = EmbeddingCache(tmp_path)
        monkeypatch.setattr(emb, "open", FailingWrite, raising=False)
        with pytest.raises(type(error), match=message):
            cache.put("k", chapter_matrix(chapter_texts(0, n=3)))
        assert not list(tmp_path.iterdir()) and not cache.pending

    def test_failed_second_batch_leaves_no_files(self, tmp_path, monkeypatch):
        import polyalign.embedding as emb

        table = {f"text {i}": hash_embed(f"text {i}", 16) for i in range(4)}
        monkeypatch.setattr(emb, "make_provider", lambda cfg, dim=256: FailingProvider(table, 16, 2))
        segs = [seg(f"text {i}", i) for i in range(4)]
        with pytest.raises(PolyalignError, match="provider down"):
            embed_segments(segs, ProviderConfig(batch_size=2), "text", EmbeddingCache(tmp_path / "c"), dim=16)
        assert not list((tmp_path / "c").iterdir())


class FakeResponse:
    def __init__(self, rows, status_code=200):
        self.rows = rows
        self.status_code = status_code

    def raise_for_status(self):
        if self.status_code >= 400:
            raise ConnectionError(f"HTTP {self.status_code}")

    def json(self):
        return {"embeddings": self.rows}


class FlakySession:
    def __init__(self, fail_times=0, dim=8):
        self.fail_times = fail_times
        self.dim = dim
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        self.headers = headers
        if self.calls <= self.fail_times:
            raise ConnectionError("boom")
        return FakeResponse([list(hash_embed(t, self.dim).astype(float)) for t in json["texts"]])


class ShortSession(FlakySession):
    """Returns one row fewer than it was sent texts."""

    def post(self, url, json=None, headers=None, timeout=None):
        return super().post(url, {"texts": json["texts"][1:]}, headers, timeout)


class NanSession(FlakySession):
    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        return FakeResponse([[float("nan")] * self.dim for _ in json["texts"]])


class StatusSession(FlakySession):
    """Answers the n-th call with the n-th HTTP status of ``statuses``; a 200 carries the rows."""

    def __init__(self, statuses):
        super().__init__()
        self.statuses = statuses

    def post(self, url, json=None, headers=None, timeout=None):
        status = self.statuses[self.calls]
        if status == 200:
            return super().post(url, json, headers, timeout)
        self.calls += 1
        return FakeResponse(None, status_code=status)


class BodySession(FlakySession):
    """Answers HTTP 200 with the JSON body ``body``, or with a body that is not JSON."""

    def __init__(self, body):
        super().__init__()
        self.body = body

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        response = FakeResponse(None)
        response.json = (lambda: self.body) if self.body is not None else self.not_json
        return response

    @staticmethod
    def not_json():
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class TestRemoteProvider:
    def config(self):
        return ProviderConfig(name="remote", endpoint="http://unit.test/embed", model="m", batch_size=4)

    def test_retries_then_succeeds(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        provider = RemoteProvider(self.config(), dim=8, session=FlakySession(fail_times=2))
        out = provider.embed_batch(["a", "b"])
        assert out.shape == (2, 8)

    def test_gives_up_after_three_attempts(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        provider = RemoteProvider(self.config(), session=FlakySession(fail_times=10))
        with pytest.raises(PolyalignError, match="after 3 attempts"):
            provider.embed_batch(["a"])

    def test_no_sleep_after_the_last_attempt(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        provider = RemoteProvider(self.config(), session=FlakySession(fail_times=10))
        with pytest.raises(PolyalignError, match="after 3 attempts"):
            provider.embed_batch(["a"])
        assert sleeps == [0.5, 1.0]

    def test_missing_endpoint_errors(self):
        with pytest.raises(PolyalignError, match="provider 'remote' is not 'hash' and has no endpoint"):
            ProviderConfig(name="remote")

    def test_auth_env_var_is_sent_as_a_bearer_token(self, monkeypatch):
        monkeypatch.setenv("POLYALIGN_TEST_SECRET", "s3cret")
        session = FlakySession()
        config = dataclasses.replace(self.config(), auth="POLYALIGN_TEST_SECRET")
        RemoteProvider(config, dim=8, session=session).embed_batch(["a"])
        assert session.headers == {"Authorization": "Bearer s3cret"}

    def test_unset_auth_env_var_fails_without_a_request(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        monkeypatch.delenv("POLYALIGN_TEST_SECRET", raising=False)
        session = FlakySession()
        config = dataclasses.replace(self.config(), auth="POLYALIGN_TEST_SECRET")
        with pytest.raises(PolyalignError, match="env var POLYALIGN_TEST_SECRET is not set"):
            RemoteProvider(config, dim=8, session=session).embed_batch(["a"])
        assert session.calls == 0 and sleeps == []

    def test_wrong_row_count_is_not_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        session = ShortSession()
        with pytest.raises(PolyalignError, match=r"shape \(1, 8\), requested dim 8 for 2 inputs"):
            RemoteProvider(self.config(), dim=8, session=session).embed_batch(["a", "b"])
        assert session.calls == 1 and sleeps == []

    @pytest.mark.parametrize("body", [
        {"vectors": [[1.0] * 8, [1.0] * 8]},
        {"embeddings": [[1.0] * 8, [1.0] * 7]},
        [[1.0] * 8, [1.0] * 8],
    ])
    def test_malformed_body_is_not_retried(self, monkeypatch, body):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        session = BodySession(body)
        with pytest.raises(PolyalignError, match="no embeddings array"):
            RemoteProvider(self.config(), dim=8, session=session).embed_batch(["a", "b"])
        assert session.calls == 1 and sleeps == []

    def test_body_that_is_not_json_is_retried(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = BodySession(None)
        with pytest.raises(PolyalignError, match="after 3 attempts: Expecting value"):
            RemoteProvider(self.config(), dim=8, session=session).embed_batch(["a"])
        assert session.calls == 3

    def test_client_error_is_not_retried(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        session = StatusSession([401])
        with pytest.raises(PolyalignError, match="HTTP 401"):
            RemoteProvider(self.config(), session=session).embed_batch(["a"])
        assert session.calls == 1

    @pytest.mark.parametrize("statuses, sleeps, error", [
        ([503, 429, 200], [0.5, 1.0], None),
        ([503, 503, 503], [0.5, 1.0], "batch of 1 failed after 3 attempts: HTTP 503"),
        ([404], [], "provider rejected the batch: HTTP 404"),
    ], ids=["503-429-200", "503-three-times", "404"])
    def test_http_429_and_5xx_are_retried(self, monkeypatch, statuses, sleeps, error):
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        session = StatusSession(statuses)
        provider = RemoteProvider(self.config(), dim=8, session=session)
        if error is None:
            assert np.allclose(provider.embed_batch(["a"]), hash_embed("a", 8), atol=1e-6)
        else:
            with pytest.raises(PolyalignError, match=f"^{error}$"):
                provider.embed_batch(["a"])
        assert session.calls == len(statuses) and slept == sleeps

    def test_nan_batch_is_not_cached(self, tmp_path, monkeypatch):
        import polyalign.embedding as emb

        segs = [seg(f"text {i}", i) for i in range(3)]

        def embed_with(session):
            monkeypatch.setattr(emb, "make_provider", lambda cfg, dim=256: RemoteProvider(cfg, dim=dim, session=session))
            return embed_segments(segs, self.config(), "text", EmbeddingCache(tmp_path), dim=8)

        nan_session = NanSession()
        with pytest.raises(PolyalignError, match="non-finite"):
            embed_with(nan_session)
        assert nan_session.calls == 1
        mat = embed_with(FlakySession())
        for i, s in enumerate(segs):
            assert np.allclose(mat[i], hash_embed(s.text, 8), atol=1e-6)

    def test_width_other_than_dim_is_not_cached(self, tmp_path, monkeypatch):
        session = FlakySession(dim=8)
        monkeypatch.setattr("requests.Session", lambda: session)
        segs = [seg(f"text {i}", i) for i in range(3)]
        with pytest.raises(PolyalignError, match=r"\(3, 8\), requested dim 16"):
            embed_segments(segs, self.config(), "text", EmbeddingCache(tmp_path), dim=16)
        assert session.calls == 1
        assert not list(tmp_path.glob("*.bin"))
