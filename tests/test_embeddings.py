from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bpmnkit.embeddings import (
    CachingEmbedder,
    DimensionMismatch,
    HashingEmbedder,
    ProviderConfig,
    RemoteEmbedder,
    RemoteUnavailable,
    cosine,
    make_provider,
)


class TestHashingEmbedder:
    def test_same_text_gives_identical_vectors(self, embedder):
        a, b = embedder.embed_batch(["approve order", "approve order"])
        assert np.array_equal(a, b)

    def test_empty_text_is_zero_vector(self, embedder):
        vec = embedder.embed_batch([""])[0]
        assert not vec.any()
        assert embedder.embed_batch(["   "])[0].sum() == 0.0

    def test_vectors_are_unit_norm(self, embedder):
        vecs = embedder.embed_batch(["check stock", "ship goods", "a b c d"])
        norms = np.linalg.norm(vecs, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_word_order_does_not_matter(self, embedder):
        a = embedder.embed_one("approve the order")
        b = embedder.embed_one("order the approve")
        assert np.array_equal(a, b)

    def test_tokenization_is_case_and_punctuation_insensitive(self, embedder):
        a = embedder.embed_one("Approve-Order!")
        b = embedder.embed_one("approve order")
        assert np.array_equal(a, b)

    def test_batch_matches_singleton_calls(self, embedder):
        texts = ["alpha", "beta gamma", ""]
        batch = embedder.embed_batch(texts)
        for i, text in enumerate(texts):
            assert np.array_equal(batch[i], embedder.embed_one(text))

    def test_shared_tokens_raise_cosine(self, embedder):
        # bag-of-words overlap: 2 shared tokens of 2 vs 3 -> 2/sqrt(6)
        close = cosine(embedder.embed_one("approve order"),
                       embedder.embed_one("approve the order"))
        far = cosine(embedder.embed_one("approve order"),
                     embedder.embed_one("reject shipment"))
        assert close == pytest.approx(2 / np.sqrt(6))
        assert close > far

    def test_dimension_is_configurable(self):
        small = HashingEmbedder(dimension=16)
        assert small.embed_batch(["text"]).shape == (1, 16)
        with pytest.raises(ValueError):
            HashingEmbedder(dimension=0)


class TestCosine:
    def test_self_cosine_is_one(self, embedder):
        vec = embedder.embed_one("notify customer")
        assert cosine(vec, vec) == pytest.approx(1.0)

    def test_orthogonal_unit_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self):
        vec = np.array([0.6, 0.8])
        assert cosine(vec, -vec) == pytest.approx(-1.0)

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(3), np.ones(4))


class _FakeRemote(RemoteEmbedder):
    def __init__(self, responses, **kwargs):
        super().__init__("http://embed.invalid/v1", "test-model", **kwargs)
        self._responses = list(responses)
        self.requests_made = 0
        self.payloads = []

    def _post(self, payload):
        self.requests_made += 1
        self.payloads.append(payload)
        entry = self._responses.pop(0)
        if isinstance(entry, Exception):
            raise entry
        return entry


def _fake_vectors(n, dim):
    return {"embeddings": [[1.0] + [0.0] * (dim - 1)] * n}


class TestRemoteEmbedder:
    def test_happy_path_normalizes(self):
        remote = _FakeRemote([{"embeddings": [[3.0, 4.0]]}], dimension=2)
        vecs = remote.embed_batch(["x"])
        assert vecs[0] == pytest.approx([0.6, 0.8])
        assert remote.payloads == [{"model": "test-model", "input": ["x"]}]

    def test_chunks_by_batch_size(self):
        remote = _FakeRemote([_fake_vectors(2, 4), _fake_vectors(1, 4)],
                             dimension=4, batch_size=2)
        vecs = remote.embed_batch(["a", "b", "c"])
        assert vecs.shape == (3, 4)
        assert remote.requests_made == 2

    def test_retries_then_succeeds(self):
        import requests

        remote = _FakeRemote([requests.ConnectionError("down"), _fake_vectors(1, 4)],
                             dimension=4, retry_count=2)
        assert remote.embed_batch(["a"]).shape == (1, 4)
        assert remote.requests_made == 2

    def test_gives_up_after_retries(self):
        import requests

        failures = [requests.ConnectionError("down")] * 3
        remote = _FakeRemote(failures, dimension=4, retry_count=2)
        with pytest.raises(RemoteUnavailable):
            remote.embed_batch(["a"])

    def test_wrong_width_is_dimension_mismatch(self):
        remote = _FakeRemote([{"embeddings": [[1.0, 0.0]]}], dimension=4)
        with pytest.raises(DimensionMismatch):
            remote.embed_batch(["a"])


class _CountingEmbedder(HashingEmbedder):
    def __init__(self):
        super().__init__()
        self.batches = 0

    def embed_batch(self, texts):
        self.batches += 1
        return super().embed_batch(texts)


class TestCache:
    def test_second_lookup_skips_provider(self, tmp_path):
        inner = _CountingEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        first = cached.embed_batch(["approve order", "ship goods"])
        assert inner.batches == 1
        second = cached.embed_batch(["approve order", "ship goods"])
        assert inner.batches == 1
        assert np.array_equal(first, second)

    def test_partial_miss_only_embeds_missing(self, tmp_path):
        inner = _CountingEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        cached.embed_batch(["alpha"])
        out = cached.embed_batch(["alpha", "beta"])
        assert inner.batches == 2
        assert np.array_equal(out[0], inner.embed_one("alpha"))
        assert np.array_equal(out[1], inner.embed_one("beta"))

    def test_truncated_entry_is_a_miss_and_gets_rewritten(self, tmp_path):
        inner = _CountingEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        cached.embed_batch(["approve order"])
        path = cached._path("approve order")
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        out = cached.embed_batch(["approve order"])
        assert inner.batches == 2
        assert np.array_equal(out[0], inner.embed_one("approve order"))
        assert path.read_bytes() == whole
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_concurrent_writers_leave_whole_entries(self, tmp_path):
        # More threads than cores, each walking the texts from another start,
        # so readers meet entries that other threads are writing.
        texts = [f"step {i}" for i in range(12)]
        batches = [texts[k:] + texts[:k] for k in range(0, 12, 3)]
        cached = CachingEmbedder(HashingEmbedder(), tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(batches)) as pool:
                futures = [pool.submit(cached.embed_batch, batch) for batch in batches]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for batch, out in zip(batches, results):
            assert np.array_equal(out, HashingEmbedder().embed_batch(batch))
        assert sorted(p.suffix for p in tmp_path.rglob("*") if p.is_file()) == [".npy"] * 12
        inner = _CountingEmbedder()
        assert np.array_equal(CachingEmbedder(inner, tmp_path).embed_batch(texts),
                              HashingEmbedder().embed_batch(texts))
        assert inner.batches == 0


class TestMakeProvider:
    def test_default_is_hashing(self):
        provider = make_provider(ProviderConfig())
        assert isinstance(provider, HashingEmbedder)

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            make_provider(ProviderConfig(kind="remote-http"))

    def test_env_override_supplies_endpoint(self, monkeypatch):
        monkeypatch.setenv("BPMNKIT_EMBED_ENDPOINT", "http://embed.invalid/v1")
        monkeypatch.setenv("BPMNKIT_EMBED_MODEL", "env-model")
        provider = make_provider(ProviderConfig(kind="remote-http"))
        assert isinstance(provider, RemoteEmbedder)
        assert provider.model == "env-model"

    def test_cache_dir_wraps_provider(self, tmp_path):
        provider = make_provider(ProviderConfig(cache_dir=tmp_path))
        assert isinstance(provider, CachingEmbedder)
