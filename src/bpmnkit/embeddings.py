"""Sentence-embedding providers for the semantic similarity measures.

Two providers share one interface: a deterministic hashing bag-of-words
fallback for offline use, and an HTTP client for external embedding services
(JSON POST ``{model, input: [...]}`` -> ``{embeddings: [[...], ...]}``).
Vectors are unit-norm; empty text maps to the zero vector.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
import requests

from .atomic import write_atomic

DEFAULT_DIMENSION = 384

ENV_ENDPOINT = "BPMNKIT_EMBED_ENDPOINT"
ENV_MODEL = "BPMNKIT_EMBED_MODEL"

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


class RemoteUnavailable(RuntimeError):
    """The remote embedding service failed after all retries."""


class DimensionMismatch(ValueError):
    pass


@dataclass
class ProviderConfig:
    kind: str = "hashing-fallback"  # or "remote-http"
    endpoint: str | None = None
    model_name: str | None = None
    dimension: int = DEFAULT_DIMENSION
    batch_size: int = 32
    timeout: float = 30.0
    retry_count: int = 2
    cache_dir: str | Path | None = None


class EmbeddingProvider(Protocol):
    dimension: int
    cache_key: str

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray: ...


def make_provider(cfg: ProviderConfig) -> "EmbeddingProvider":
    provider: EmbeddingProvider
    if cfg.kind == "hashing-fallback":
        provider = HashingEmbedder(cfg.dimension)
    elif cfg.kind == "remote-http":
        endpoint = os.environ.get(ENV_ENDPOINT) or cfg.endpoint
        model = os.environ.get(ENV_MODEL) or cfg.model_name
        if not endpoint:
            raise ValueError("remote-http embedding provider requires an endpoint")
        provider = RemoteEmbedder(endpoint, model, cfg.dimension, cfg.batch_size,
                                  cfg.timeout, cfg.retry_count)
    else:
        raise ValueError(f"unknown embedding provider kind {cfg.kind!r}")
    if cfg.cache_dir:
        provider = CachingEmbedder(provider, cfg.cache_dir)
    return provider


def _tokenize(text: str) -> list[str]:
    return [tok for tok in _TOKEN_SPLIT.split(text.lower()) if tok]


class HashingEmbedder:
    """Signed-hash bag of words. Deterministic across runs and processes;
    word order does not matter."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.cache_key = f"hashing-fallback:{dimension}"

    def embed_one(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for token in _tokenize(text):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:8], "big") % self.dimension
            sign = 1.0 if digest[8] & 1 else -1.0
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        return vec / norm if norm > 0 else vec

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if len(texts) == 0:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.stack([self.embed_one(text) for text in texts])


class RemoteEmbedder:
    def __init__(self, endpoint: str, model: str | None, dimension: int,
                 batch_size: int = 32, timeout: float = 30.0, retry_count: int = 2):
        self.endpoint = endpoint
        self.model = model
        self.dimension = dimension
        self.batch_size = max(1, batch_size)
        self.timeout = timeout
        self.retry_count = retry_count
        self.cache_key = f"remote:{model or 'default'}@{endpoint}"

    def _post(self, payload: dict) -> dict:
        response = requests.post(self.endpoint, json=payload, timeout=self.timeout)
        response.raise_for_status()
        return response.json()

    def _request_chunk(self, chunk: list[str]) -> np.ndarray:
        payload = {"model": self.model, "input": chunk}
        last_error: Exception | None = None
        for attempt in range(self.retry_count + 1):
            try:
                data = self._post(payload)
                break
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt < self.retry_count:
                    time.sleep(min(2.0, 0.2 * 2 ** attempt))
        else:
            raise RemoteUnavailable(f"embedding service failed: {last_error}") from last_error
        vectors = np.asarray(data["embeddings"], dtype=np.float64)
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
            list(texts[i:i + self.batch_size])
            for i in range(0, len(texts), self.batch_size)
        ]
        return np.concatenate([self._request_chunk(chunk) for chunk in chunks])


class CachingEmbedder:
    """Content-addressed on-disk cache in front of another provider."""

    def __init__(self, inner: EmbeddingProvider, cache_dir: str | Path):
        self.inner = inner
        self.dimension = inner.dimension
        self.cache_key = inner.cache_key
        self.cache_dir = Path(cache_dir)

    def _path(self, text: str) -> Path:
        key = hashlib.sha256(f"{self.cache_key}\x00{text}".encode("utf-8")).hexdigest()
        return self.cache_dir / key[:2] / f"{key}.npy"

    def _load(self, path: Path) -> np.ndarray | None:
        """The cached vector, or None for a miss: no entry, or one that does
        not load as a vector of this width."""
        try:
            vec = np.load(path)
        except (OSError, ValueError, EOFError):
            return None
        return vec if vec.shape == (self.dimension,) else None

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        out: list[np.ndarray | None] = [self._load(self._path(text)) for text in texts]
        missing = [i for i, vec in enumerate(out) if vec is None]
        if missing:
            fresh = self.inner.embed_batch([texts[i] for i in missing])
            for pos, i in enumerate(missing):
                vec = fresh[pos]
                path = self._path(texts[i])
                path.parent.mkdir(parents=True, exist_ok=True)
                buffer = io.BytesIO()
                np.save(buffer, vec)
                write_atomic(path, buffer.getvalue())
                out[i] = vec
        if not out:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.stack(out)  # type: ignore[arg-type]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
