"""Unit-norm segment embeddings with pluggable providers and a disk cache.

Three input modes are supported: ``text`` embeds the plain text, ``html``
embeds the raw markup, ``concat`` concatenates the two unit vectors and
renormalizes. The default offline provider is a deterministic character
3-gram hashing embedder, so the whole pipeline runs without network access.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from .model import Segment

MODES = ("text", "html", "concat")

HASH_DIM_DEFAULT = 256
_HASH_SEED = b"polyalign-ngram-v1"


class EmbeddingError(Exception):
    pass


@dataclass(frozen=True)
class ProviderConfig:
    name: str = "hash"
    endpoint: str = ""
    model: str = "ngram3-v1"
    batch_size: int = 64
    auth: str = ""  # env var holding the API secret, for remote providers

    def __post_init__(self):
        if self.batch_size < 1:
            raise EmbeddingError("batch_size must be >= 1")


@dataclass
class EmbeddingMatrix:
    vectors: np.ndarray  # (n, dim) float32, row order = segment order
    dim: int
    provider: str
    mode: str

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            self.vectors = self.vectors.reshape(-1, self.dim)
        if self.vectors.shape[0] > 0:
            norms = np.linalg.norm(self.vectors, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                raise EmbeddingError("embedding rows must be unit-norm")


def _ngrams(text: str, n: int = 3):
    text = unicodedata.normalize("NFC", text).lower()
    if len(text) < n:
        yield text
        return
    for i in range(len(text) - n + 1):
        yield text[i : i + n]


def hash_embed(text: str, dim: int = HASH_DIM_DEFAULT) -> np.ndarray:
    """Deterministic unit vector from signed character-3-gram hashing.

    Identical text gives identical vectors across runs and platforms; the
    bucket and sign come from a keyed BLAKE2 digest with a fixed seed.
    """
    if dim < 8:
        raise EmbeddingError("hash_embed requires dim >= 8")
    vec = np.zeros(dim, dtype=np.float64)
    for gram in _ngrams(text):
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=_HASH_SEED).digest()
        value = struct.unpack("<Q", digest)[0]
        bucket = value % dim
        sign = 1.0 if (value >> 63) & 1 else -1.0
        vec[bucket] += sign
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
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.stack([hash_embed(t, self.dim) for t in texts])


class RemoteProvider:
    """HTTP embedding endpoint: POST {"model", "texts"} -> {"embeddings"}.

    Retries transport failures with exponential backoff (3 attempts); a
    failed batch is an error, never a partial result.
    """

    RETRIES = 3

    def __init__(self, config: ProviderConfig, session=None):
        if not config.endpoint:
            raise EmbeddingError(f"provider {config.name!r} has no endpoint")
        self.config = config
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        headers = {}
        if self.config.auth:
            secret = os.environ.get(self.config.auth)
            if not secret:
                raise EmbeddingError(f"env var {self.config.auth} is not set")
            headers["Authorization"] = f"Bearer {secret}"
        payload = {"model": self.config.model, "texts": texts}
        last_exc = None
        for attempt in range(self.RETRIES):
            try:
                resp = self.session.post(
                    self.config.endpoint, json=payload, headers=headers, timeout=60
                )
                resp.raise_for_status()
                vectors = np.asarray(resp.json()["embeddings"], dtype=np.float32)
                if vectors.shape[0] != len(texts):
                    raise EmbeddingError(
                        f"provider returned {vectors.shape[0]} rows for {len(texts)} inputs"
                    )
                norms = np.linalg.norm(vectors, axis=1, keepdims=True)
                return vectors / np.where(norms == 0, 1.0, norms)
            except EmbeddingError:
                raise
            except Exception as exc:  # transport or decode failure
                last_exc = exc
                time.sleep(min(2.0**attempt * 0.5, 4.0))
        raise EmbeddingError(
            f"batch of {len(texts)} failed after {self.RETRIES} attempts: {last_exc}"
        ) from last_exc


def make_provider(config: ProviderConfig, dim: int = HASH_DIM_DEFAULT):
    if config.name == "hash":
        return HashProvider(dim=dim)
    return RemoteProvider(config)


# ---------------------------------------------------------------------------
# Disk cache: binary little-endian float32 arrays plus a JSON index.


class EmbeddingCache:
    """Content-addressed store keyed by SHA-256 of (provider, model, mode, dim, input)."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.index_path = os.path.join(self.directory, "index.json")
        if os.path.exists(self.index_path):
            with open(self.index_path, encoding="utf-8") as fh:
                self.index = json.load(fh)
        else:
            self.index = {}

    @staticmethod
    def key(provider: str, model: str, mode: str, dim: int, text: str) -> str:
        h = hashlib.sha256()
        for part in (provider, model, mode, str(dim), text):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def get(self, key: str) -> np.ndarray | None:
        entry = self.index.get(key)
        if entry is None:
            return None
        path = os.path.join(self.directory, entry["file"])
        raw = np.fromfile(path, dtype="<f4")
        return raw.astype(np.float32)

    def put(self, key: str, vector: np.ndarray) -> None:
        fname = f"{key}.bin"
        np.asarray(vector, dtype="<f4").tofile(os.path.join(self.directory, fname))
        self.index[key] = {"file": fname, "dim": int(vector.shape[0])}

    def flush(self) -> None:
        tmp = self.index_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.index, fh, sort_keys=True)
        os.replace(tmp, self.index_path)


# ---------------------------------------------------------------------------


def _embed_texts(
    texts: list[str],
    provider,
    config: ProviderConfig,
    mode: str,
    dim: int,
    cache: EmbeddingCache | None,
    call_log: list[int] | None = None,
) -> list[np.ndarray]:
    results: dict[int, np.ndarray] = {}
    missing: list[int] = []
    if cache is not None:
        for i, text in enumerate(texts):
            vec = cache.get(EmbeddingCache.key(config.name, config.model, mode, dim, text))
            if vec is None:
                missing.append(i)
            else:
                results[i] = vec
    else:
        missing = list(range(len(texts)))

    batch_dim = None
    for start in range(0, len(missing), config.batch_size):
        batch_idx = missing[start : start + config.batch_size]
        batch = provider.embed_batch([texts[i] for i in batch_idx])
        if call_log is not None:
            call_log.append(len(batch_idx))
        if batch_dim is None:
            batch_dim = batch.shape[1]
        elif batch.shape[1] != batch_dim:
            raise EmbeddingError(
                f"dimension mismatch across batches: {batch.shape[1]} vs {batch_dim}"
            )
        for i, vec in zip(batch_idx, batch):
            results[i] = vec
            if cache is not None:
                cache.put(EmbeddingCache.key(config.name, config.model, mode, dim, texts[i]), vec)
    if cache is not None and missing:
        cache.flush()
    return [results[i] for i in range(len(texts))]


def embed_segments(
    segments: list[Segment],
    provider_config: ProviderConfig | None = None,
    mode: str = "text",
    cache: EmbeddingCache | None = None,
    dim: int = HASH_DIM_DEFAULT,
    call_log: list[int] | None = None,
) -> EmbeddingMatrix:
    """Embed a chapter's segments, in order, writing through the cache.

    ``concat`` mode concatenates the unit-norm text and html vectors and
    renormalizes the result to unit norm.
    """
    if provider_config is None:
        provider_config = ProviderConfig()
    if mode not in MODES:
        raise EmbeddingError(f"unknown mode {mode!r}")
    provider = make_provider(provider_config, dim=dim)

    if mode == "concat":
        text_vecs = _embed_texts(
            [s.text for s in segments], provider, provider_config, "text", dim, cache, call_log
        )
        html_vecs = _embed_texts(
            [s.html for s in segments], provider, provider_config, "html", dim, cache, call_log
        )
        rows = []
        for tv, hv in zip(text_vecs, html_vecs):
            cat = np.concatenate([tv, hv]).astype(np.float64)
            rows.append((cat / np.linalg.norm(cat)).astype(np.float32))
        vectors = np.stack(rows) if rows else np.zeros((0, 2 * dim), dtype=np.float32)
        return EmbeddingMatrix(vectors=vectors, dim=vectors.shape[1],
                               provider=provider_config.name, mode=mode)

    texts = [s.text if mode == "text" else s.html for s in segments]
    vecs = _embed_texts(texts, provider, provider_config, mode, dim, cache, call_log)
    vectors = np.stack(vecs) if vecs else np.zeros((0, dim), dtype=np.float32)
    return EmbeddingMatrix(
        vectors=vectors,
        dim=vectors.shape[1] if vecs else dim,
        provider=provider_config.name,
        mode=mode,
    )
