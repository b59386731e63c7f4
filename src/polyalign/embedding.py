"""Unit-norm segment embeddings with pluggable providers and a disk cache.

Three input modes are supported: ``text`` embeds the plain text (a
segment's ``content()``: tags removed, escapes decoded), ``html`` embeds the
segment's markup, ``concat`` concatenates the two unit vectors and
renormalizes. The default offline provider is a deterministic character
3-gram hashing embedder, so the whole pipeline runs without network access.
The disk cache holds one record per chapter and setting: the chapter's
whole matrix, which is the unit every caller asks for.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass

import numpy as np

from .model import PolyalignError, Segment, _Fields, nfc

MODES = ("text", "html", "concat")

HASH_DIM_DEFAULT = 256
HASH_DIM_MIN = 8
_HASH_SEED = b"polyalign-ngram-v1"


_provider_strings = _Fields(name=str, endpoint=str, model=str, auth=str)


@dataclass(frozen=True)
class ProviderConfig:
    name: str = "hash"
    endpoint: str = ""
    model: str = "ngram3-v1"
    batch_size: int = 64
    auth: str = ""  # env var holding the API secret, for remote providers

    def __post_init__(self):
        try:
            _provider_strings(vars(self))
        except TypeError as exc:
            raise PolyalignError(f"provider {exc}") from exc
        if type(self.batch_size) is not int or self.batch_size < 1:
            raise PolyalignError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if self.name != "hash" and not self.endpoint:
            raise PolyalignError(f"provider {self.name!r} is not 'hash' and has no endpoint")


@functools.lru_cache(maxsize=1 << 14)
def _slot(gram: str, dim: int) -> tuple[int, float]:
    """The bucket and sign of one 3-gram: a keyed BLAKE2 digest with a fixed
    seed, its value ``% dim`` and its top bit. A bounded table, because a
    corpus repeats a few thousand distinct grams hundreds of times each."""
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=_HASH_SEED).digest()
    value = int.from_bytes(digest, "little")
    return value % dim, 1.0 if value >> 63 else -1.0


def hash_embed(text: str, dim: int = HASH_DIM_DEFAULT) -> np.ndarray:
    """Deterministic unit vector from signed character-3-gram hashing.

    Identical text gives identical vectors across runs and platforms. The
    per-bucket sums are small integers in float64, exact in any order, so
    summing with ``bincount`` gives the same bits as adding gram by gram.
    """
    if dim < HASH_DIM_MIN:
        raise PolyalignError(f"hash_embed requires dim >= {HASH_DIM_MIN}")
    text = nfc(text).lower()
    grams = [text[i : i + 3] for i in range(len(text) - 2)] or [text]
    buckets, signs = zip(*[_slot(gram, dim) for gram in grams])
    vec = np.bincount(buckets, weights=signs, minlength=dim)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return (vec / norm).astype(np.float32)


# ---------------------------------------------------------------------------
# Providers


class HashProvider:
    """Offline default: deterministic 3-gram hashing, no network."""

    def __init__(self, dim: int = HASH_DIM_DEFAULT):
        self.dim = dim

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return np.stack([hash_embed(t, self.dim) for t in texts])


class RemoteProvider:
    """HTTP embedding endpoint: POST {"model", "texts"} -> {"embeddings"}.

    Retries transport failures, HTTP 429, 5xx and a body that is not JSON:
    3 attempts, 0.5 s and then 1 s apart. Any other HTTP 4xx, and a JSON body
    that is not one row of width ``dim`` per text, each finite and not all
    zero, fail at once; a failed batch is an error, never a partial result.
    """

    RETRIES = 3

    def __init__(self, config: ProviderConfig, dim: int = HASH_DIM_DEFAULT, session=None):
        self.config = config
        self.dim = dim
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        headers = {}
        if self.config.auth:
            secret = os.environ.get(self.config.auth)
            if not secret:
                raise PolyalignError(f"env var {self.config.auth} is not set")
            headers["Authorization"] = f"Bearer {secret}"
        payload = {"model": self.config.model, "texts": texts}
        last_exc = None
        for attempt in range(self.RETRIES):
            if attempt:
                time.sleep(0.5 * 2 ** (attempt - 1))
            try:
                resp = self.session.post(self.config.endpoint, json=payload, headers=headers, timeout=60)
                if resp.status_code == 429 or resp.status_code >= 500:
                    resp.raise_for_status()
                doc = resp.json() if resp.status_code < 400 else None
                break
            except Exception as exc:  # transport, 429, 5xx or a body that is not JSON
                last_exc = exc
        else:
            raise PolyalignError(
                f"batch of {len(texts)} failed after {self.RETRIES} attempts: {last_exc}") from last_exc
        if resp.status_code >= 400:
            raise PolyalignError(f"provider rejected the batch: HTTP {resp.status_code}")
        try:
            vectors = np.asarray(doc["embeddings"], dtype=np.float32)
        except (KeyError, TypeError, ValueError) as exc:
            raise PolyalignError(f"provider returned no embeddings array ({type(exc).__name__}: {exc})") from exc
        if vectors.shape != (len(texts), self.dim):
            raise PolyalignError(f"provider returned vectors of shape {vectors.shape}, "
                                 f"requested dim {self.dim} for {len(texts)} inputs")
        if not np.isfinite(vectors).all() or not vectors.any(axis=1).all():
            raise PolyalignError("provider returned a non-finite or all-zero row")
        return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def make_provider(config: ProviderConfig, dim: int = HASH_DIM_DEFAULT):
    if config.name == "hash":
        return HashProvider(dim=dim)
    return RemoteProvider(config, dim=dim)


# ---------------------------------------------------------------------------
# Disk cache: one little-endian float32 (n, dim) file per chapter, named by its key.


class EmbeddingCache:
    """Content-addressed store of chapter matrices.

    A record is the ``(n, dim)`` matrix of one chapter's ordered inputs under
    one provider, model, mode and dim, stored as ``<key>.bin``. ``put``
    writes under a temporary name (removed if the write fails) and ``flush``
    renames, so a ``.bin`` that exists is complete, and runs sharing a
    directory can only ever replace a record with the same record.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.pending: list[tuple[str, str]] = []  # (temporary path, final path)

    @staticmethod
    def key(provider: str, model: str, mode: str, dim: int, texts: list[str]) -> str:
        record = json.dumps([provider, model, mode, dim, list(texts)])
        return hashlib.sha256(record.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.bin")

    def get(self, key: str, n: int, dim: int) -> np.ndarray | None:
        path = self._path(key)
        try:
            values = np.fromfile(path, dtype="<f4").astype(np.float32)
        except FileNotFoundError:
            return None
        if values.size != n * dim:
            raise PolyalignError(f"cache record {path} holds {values.size} values, not {n}x{dim}")
        return values.reshape(n, dim)

    def put(self, key: str, vectors: np.ndarray) -> None:
        data = np.asarray(vectors, dtype="<f4").tobytes()
        tmp = os.path.join(self.directory, f"{key}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "xb") as fh:
                fh.write(data)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        self.pending.append((tmp, self._path(key)))

    def flush(self) -> None:
        for tmp, final in self.pending:
            os.replace(tmp, final)
        self.pending.clear()


# ---------------------------------------------------------------------------


def _embed_texts(
    texts: list[str],
    config: ProviderConfig,
    mode: str,
    dim: int,
    cache: EmbeddingCache | None,
) -> np.ndarray:
    """The ``(n, dim)`` matrix of ``texts``: one cache record, or one provider pass.

    Its rows must be unit-norm. On a miss the record reaches the cache only
    after every provider batch has returned and passed that check, so a
    failed call leaves the cache as it was.
    """
    key = EmbeddingCache.key(config.name, config.model, mode, dim, texts)
    vectors = None if cache is None else cache.get(key, len(texts), dim)
    miss = vectors is None
    if miss:
        provider = make_provider(config, dim)
        batches = [
            provider.embed_batch(texts[start : start + config.batch_size])
            for start in range(0, len(texts), config.batch_size)
        ]
        vectors = np.concatenate(batches, dtype=np.float32) if batches else np.zeros((0, dim), np.float32)
    # np.allclose(norms, 1.0, atol=1e-6)'s test as one comparison; NaN and inf fail it.
    if not (np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= 1e-6 + 1e-5).all():
        raise PolyalignError("embedding rows must be unit-norm")
    if miss and cache is not None:
        cache.put(key, vectors)
        cache.flush()
    return vectors


def embed_segments(
    segments: list[Segment],
    provider_config: ProviderConfig = ProviderConfig(),
    mode: str = "text",
    cache: EmbeddingCache | None = None,
    dim: int = HASH_DIM_DEFAULT,
) -> np.ndarray:
    """Embed a chapter's segments, in order, through the cache: one float32
    unit-norm row per segment.

    ``concat`` mode concatenates the unit-norm text and html vectors and
    renormalizes the result to unit norm.
    """
    if mode not in MODES:
        raise PolyalignError(f"unknown mode {mode!r}")

    if mode == "concat":
        cat = np.concatenate([
            _embed_texts([s.content() for s in segments], provider_config, "text", dim, cache),
            _embed_texts([s.html for s in segments], provider_config, "html", dim, cache),
        ], axis=1, dtype=np.float64)
        return (cat / np.linalg.norm(cat, axis=1, keepdims=True)).astype(np.float32)
    texts = [s.content() if mode == "text" else s.html for s in segments]
    return _embed_texts(texts, provider_config, mode, dim, cache)
