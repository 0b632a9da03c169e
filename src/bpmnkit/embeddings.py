"""Sentence-embedding providers for the semantic similarity measures.

Two providers share one interface: a deterministic hashing bag-of-words
fallback for offline use, and an HTTP client for external embedding services
(JSON POST ``{model, input: [...]}`` -> ``{embeddings: [[...], ...]}``).
Two wrappers take the same interface in front of either: ``MemoEmbedder``,
the in-memory memo one compare or one batch task keeps, and
``CachingEmbedder``, the on-disk cache of remote vectors.
Vectors are unit-norm; empty text maps to the zero vector.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .atomic import write_atomic
from .llm import post_json, retry

DEFAULT_DIMENSION = 384
BATCH_SIZE = 32
TIMEOUT = 30.0

_TOKEN = re.compile(r"[0-9a-z]+")


class RemoteUnavailable(RuntimeError):
    """The remote embedding service failed after all retries."""


class DimensionMismatch(ValueError):
    pass


@dataclass
class ProviderConfig:
    endpoint: str | None = None  # the remote service; None means the hashing fallback
    model_name: str | None = None
    cache_dir: str | Path | None = None


class EmbeddingProvider(Protocol):
    dimension: int
    cache_key: str

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


def make_provider(cfg: ProviderConfig) -> "EmbeddingProvider":
    """The remote embedder, behind the disk cache when ``cache_dir`` is set, or
    the hashing embedder, never cached: it is faster than a cache lookup."""
    if not cfg.endpoint:
        return HashingEmbedder()
    remote = RemoteEmbedder(cfg.endpoint, cfg.model_name)
    return CachingEmbedder(remote, cfg.cache_dir) if cfg.cache_dir else remote


def _tokens(text: str) -> list[str]:
    """The runs of ASCII letters and digits in the lower-cased text."""
    return _TOKEN.findall(text.lower())


@functools.lru_cache(maxsize=1 << 16)
def _bucket_and_sign(token: str, dimension: int) -> tuple[int, float]:
    """Where a token lands in a hashing vector, and with which sign."""
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension, 1.0 if digest[8] & 1 else -1.0


class HashingEmbedder:
    """Signed-hash bag of words. Deterministic across runs and processes;
    word order does not matter."""

    dimension = DEFAULT_DIMENSION
    cache_key = f"hashing-fallback:{DEFAULT_DIMENSION}"

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text: the signed counts of its tokens' buckets, scaled
        to unit norm (a text without tokens stays zero). Each text is
        tokenized once and each distinct token of the batch hashed once; one
        gather of the tokens' buckets and signs and one bincount then build
        all rows. The counts are small integers, so the norms are exact and a
        row does not depend on the rest of the batch."""
        dim = self.dimension
        tokens = [_tokens(text) for text in texts]
        flat = list(itertools.chain.from_iterable(tokens))
        distinct = {token: i for i, token in enumerate(dict.fromkeys(flat))}
        ids = np.fromiter(map(distinct.__getitem__, flat), np.intp, len(flat))
        # (bucket, sign) per distinct token, shape (0, 2) when there are none
        hashed = np.array([_bucket_and_sign(token, dim) for token in distinct]).reshape(-1, 2)
        index = np.repeat(np.arange(len(texts)) * dim, [len(row) for row in tokens])
        index += hashed[ids, 0].astype(np.intp)
        counts = np.bincount(index, weights=hashed[ids, 1], minlength=len(texts) * dim)
        # a bincount of no entries is int64 even with weights
        vectors = counts.astype(np.float64, copy=False).reshape(len(texts), dim)
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        norms[norms == 0] = 1.0
        vectors /= norms[:, None]
        return vectors


class RemoteEmbedder:
    def __init__(self, endpoint: str, model: str | None):
        self.endpoint = endpoint
        self.model = model
        self.dimension = DEFAULT_DIMENSION
        self.cache_key = f"remote:{model or 'default'}@{endpoint}"

    def _request_chunk(self, chunk: list[str]) -> np.ndarray:
        def post() -> np.ndarray:
            try:
                reply = post_json(self.endpoint, {"model": self.model, "input": chunk}, TIMEOUT)
                if not isinstance(reply, dict) or not isinstance(reply.get("embeddings"), list):
                    raise TypeError("reply has no embeddings list")
                return np.asarray(reply["embeddings"], dtype=np.float64)
            except (OSError, TypeError, ValueError) as exc:
                raise RemoteUnavailable(f"embedding service failed: {exc}") from exc

        vectors = retry(post, RemoteUnavailable)
        if vectors.shape != (len(chunk), self.dimension):
            raise DimensionMismatch(
                f"service returned shape {vectors.shape}, expected ({len(chunk)}, {self.dimension})"
            )
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vectors / norms

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if len(texts) == 0:
            return np.zeros((0, self.dimension), dtype=np.float64)
        chunks = [
            list(texts[i:i + BATCH_SIZE])
            for i in range(0, len(texts), BATCH_SIZE)
        ]
        return np.concatenate([self._request_chunk(chunk) for chunk in chunks])


class MemoEmbedder:
    """In-memory vectors in front of another provider, kept for the life of
    the object: each distinct text goes to the inner provider once, and the
    misses of a batch go in one call. Not for sharing between threads."""

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner
        self.dimension = inner.dimension
        self.cache_key = inner.cache_key
        self._vectors: dict[str, np.ndarray] = {}

    def fill(self, texts: Sequence[str]) -> None:
        missing = [text for text in dict.fromkeys(texts) if text not in self._vectors]
        if missing:
            self._vectors.update(zip(missing, self.inner.embed_batch(missing)))

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if len(texts) == 0:
            return np.zeros((0, self.dimension), dtype=np.float64)
        self.fill(texts)
        return np.array([self._vectors[text] for text in texts])


class CachingEmbedder:
    """Content-addressed on-disk cache in front of another provider. Threads
    that miss the same text at once embed it once: the first claims it, the
    others wait for its entry."""

    def __init__(self, inner: EmbeddingProvider, cache_dir: str | Path):
        self.inner = inner
        self.dimension = inner.dimension
        self.cache_key = inner.cache_key
        self.cache_dir = Path(cache_dir)
        buffer = io.BytesIO()  # an entry: what np.save writes for one (dimension,) <f8 vector
        np.save(buffer, np.zeros(self.dimension, dtype="<f8"))
        self._header = buffer.getvalue()[:-8 * self.dimension]
        self._lock = threading.Lock()
        self._claims: dict[str, threading.Event] = {}  # texts being embedded, set when done

    def _path(self, text: str) -> Path:
        key = hashlib.sha256(f"{self.cache_key}\x00{text}".encode("utf-8")).hexdigest()
        return self.cache_dir / key[:2] / f"{key}.npy"

    def _load(self, path: Path) -> np.ndarray | None:
        """The cached vector, or None for a miss: anything but the header and one
        vector of this width (np.load's header parser is not thread-safe)."""
        try:
            data = path.read_bytes()
        except OSError:
            return None
        size = len(self._header)
        if len(data) != size + 8 * self.dimension or not data.startswith(self._header):
            return None
        return np.frombuffer(data, dtype="<f8", offset=size)

    def _store(self, texts: list[str], found: dict[str, np.ndarray | None]) -> None:
        for text, vec in zip(texts, self.inner.embed_batch(texts)):
            path = self._path(text)
            # another writer may have stored this entry since the lookup
            found[text] = self._load(path)
            if found[text] is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_atomic(path, self._header + vec.astype("<f8").tobytes())
                found[text] = vec

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if len(texts) == 0:
            return np.zeros((0, self.dimension), dtype=np.float64)
        found = {text: self._load(self._path(text)) for text in dict.fromkeys(texts)}
        missing = [text for text, vec in found.items() if vec is None]
        while missing:
            with self._lock:
                waits = {text: self._claims[text] for text in missing if text in self._claims}
                mine = [text for text in missing if text not in waits]
                self._claims.update((text, threading.Event()) for text in mine)
            try:
                if mine:
                    self._store(mine, found)
            finally:
                with self._lock:
                    for text in mine:
                        self._claims.pop(text).set()
            # Claims are released before waiting, so no two threads wait on
            # each other. A text whose embedder failed is claimed again.
            for text, done in waits.items():
                done.wait()
                found[text] = self._load(self._path(text))
            missing = [text for text in waits if found[text] is None]
        return np.stack([found[text] for text in texts])
