from __future__ import annotations

import hashlib
import io
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpmnkit import embeddings
from bpmnkit.atomic import write_atomic
from bpmnkit.embeddings import (
    DEFAULT_DIMENSION,
    CachingEmbedder,
    DimensionMismatch,
    HashingEmbedder,
    MemoEmbedder,
    ProviderConfig,
    RemoteEmbedder,
    RemoteUnavailable,
    make_provider,
)

from conftest import Reply, narrow_embedder, scripted


def _reference_vector(text, dimension):
    """The hashing embedding of one text, token by token."""
    vec = np.zeros(dimension)
    for token in re.split(r"[^0-9a-z]+", text.lower()):
        if token:
            digest = hashlib.md5(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:8], "big") % dimension] += 1.0 if digest[8] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


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
        a = embedder.embed_batch(["approve the order"])[0]
        b = embedder.embed_batch(["order the approve"])[0]
        assert np.array_equal(a, b)

    def test_tokenization_is_case_and_punctuation_insensitive(self, embedder):
        a = embedder.embed_batch(["Approve-Order!"])[0]
        b = embedder.embed_batch(["approve order"])[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dimension", [DEFAULT_DIMENSION, 7])
    def test_batch_matches_singleton_calls(self, dimension):
        embedder = narrow_embedder(dimension)
        texts = ["alpha", "beta gamma", "", "审批", "beta beta beta gamma", "alpha"]
        batch = embedder.embed_batch(texts)
        for i, text in enumerate(texts):
            assert np.array_equal(batch[i], embedder.embed_batch([text])[0])

    @pytest.mark.parametrize("dimension", [DEFAULT_DIMENSION, 7])
    def test_empty_batch_has_no_rows(self, dimension):
        out = narrow_embedder(dimension).embed_batch([])
        assert out.shape == (0, dimension)
        assert out.dtype == np.float64

    def test_batch_without_tokens_is_float_zeros(self, embedder):
        # np.bincount of no entries is int64, weights or not
        assert np.bincount([], weights=[], minlength=3).dtype == np.int64
        out = embedder.embed_batch(["", "   ", "审批贷款"])
        assert out.dtype == np.float64
        assert out.shape == (3, DEFAULT_DIMENSION)
        assert not out.any()

    def test_shared_tokens_raise_cosine(self, embedder):
        # bag-of-words overlap: 2 shared tokens of 2 vs 3 -> 2/sqrt(6)
        base, near, other = embedder.embed_batch(
            ["approve order", "approve the order", "reject shipment"])
        close = float(base @ near)  # the rows are unit vectors
        far = float(base @ other)
        assert close == pytest.approx(2 / np.sqrt(6))
        assert close > far

    @pytest.mark.parametrize("dimension", [DEFAULT_DIMENSION, 7])
    def test_vectors_equal_an_inline_md5_reference(self, dimension):
        texts = ["Approve order", "Check-Stock 2", "审批贷款", "审批 loan 贷款", "Заявка x",
                 "", "   ", "order order order", "a b a", "x1 y2 x1 x1"]
        embedder = narrow_embedder(dimension)
        for _ in range(2):  # the second pass reads every token from the memo
            for text, vec in zip(texts, embedder.embed_batch(texts)):
                assert np.array_equal(vec, _reference_vector(text, dimension)), text

    @given(st.lists(st.one_of(
        st.text(),  # any Unicode, mostly without an ASCII token
        st.text(alphabet="ab xy-İ", max_size=30),  # repeated tokens; "İ" lowers to two code points
        st.from_regex(r"[0-9 ]*", fullmatch=True),  # digits only, or nothing
    ), max_size=12), st.sampled_from([7, DEFAULT_DIMENSION]))
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_a_per_token_reference_loop(self, texts, dimension):
        embedder = narrow_embedder(dimension)
        batch = embedder.embed_batch(texts)
        assert batch.shape == (len(texts), dimension)
        assert batch.dtype == np.float64
        for text, row in zip(texts, batch):
            assert row.tobytes() == _reference_vector(text, dimension).tobytes()
            # a row does not depend on the rest of its batch
            assert row.tobytes() == embedder.embed_batch([text])[0].tobytes()

    def test_width_and_cache_key_are_fixed(self):
        embedder = HashingEmbedder()
        assert embedder.dimension == DEFAULT_DIMENSION == 384
        # the key of every stored cache entry
        assert embedder.cache_key == "hashing-fallback:384"
        assert embedder.embed_batch(["text"]).shape == (1, 384)


def _fake_vectors(n):
    return {"embeddings": [[1.0] + [0.0] * (DEFAULT_DIMENSION - 1)] * n}


class TestRemoteEmbedder:
    def test_happy_path_normalizes(self, loopback):
        vector = [3.0, 4.0] + [0.0] * (DEFAULT_DIMENSION - 2)
        loopback.answer = lambda body: {"embeddings": [vector]}
        vecs = RemoteEmbedder(loopback.url(), "test-model").embed_batch(["x"])
        assert vecs[0][:2] == pytest.approx([0.6, 0.8])
        assert loopback.posts == [("/v1", "application/json",
                                   {"model": "test-model", "input": ["x"]})]

    def test_chunks_by_batch_size(self, loopback):
        loopback.answer = scripted(_fake_vectors(32), _fake_vectors(1))
        vecs = RemoteEmbedder(loopback.url(), "test-model").embed_batch(
            [f"text {i}" for i in range(33)])
        assert vecs.shape == (33, DEFAULT_DIMENSION)
        assert [len(body["input"]) for _, _, body in loopback.posts] == [32, 1]

    def test_retries_then_succeeds(self, loopback, sleeps):
        loopback.answer = scripted(Reply(status=503), Reply(status=503), _fake_vectors(1))
        remote = RemoteEmbedder(loopback.url(), "test-model")
        assert remote.embed_batch(["a"]).shape == (1, DEFAULT_DIMENSION)
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]

    def test_gives_up_after_retries(self, loopback, sleeps):
        loopback.answer = lambda body: Reply(status=503)
        with pytest.raises(RemoteUnavailable):
            RemoteEmbedder(loopback.url(), "test-model").embed_batch(["a"])
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]

    def test_wrong_width_is_dimension_mismatch(self, loopback):
        loopback.answer = lambda body: {"embeddings": [[1.0, 0.0]]}
        with pytest.raises(DimensionMismatch):
            RemoteEmbedder(loopback.url(), "test-model").embed_batch(["a"])
        assert len(loopback.posts) == 1

    @pytest.mark.parametrize("reply", [{"data": []}, {"embeddings": None}, [[1.0]], "text"])
    def test_reply_without_embeddings_list_is_unavailable(self, loopback, sleeps, reply):
        loopback.answer = lambda body: reply
        with pytest.raises(RemoteUnavailable,
                           match="^embedding service failed: reply has no embeddings list$"):
            RemoteEmbedder(loopback.url(), "test-model").embed_batch(["a"])
        assert len(loopback.posts) == 3
        assert sleeps == [0.5, 1.0]


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
        assert np.array_equal(out[0], inner.embed_batch(["alpha"])[0])
        assert np.array_equal(out[1], inner.embed_batch(["beta"])[0])

    def test_truncated_entry_is_a_miss_and_gets_rewritten(self, tmp_path):
        inner = _CountingEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        cached.embed_batch(["approve order"])
        path = cached._path("approve order")
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        out = cached.embed_batch(["approve order"])
        assert inner.batches == 2
        assert np.array_equal(out[0], inner.embed_batch(["approve order"])[0])
        assert path.read_bytes() == whole
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_entry_is_the_file_np_save_writes(self, tmp_path):
        vec = CachingEmbedder(HashingEmbedder(), tmp_path).embed_batch(["approve order"])[0]
        (entry,) = tmp_path.rglob("*.npy")
        buffer = io.BytesIO()
        np.save(buffer, vec)
        assert entry.read_bytes() == buffer.getvalue()

    @pytest.mark.parametrize("stored", [np.zeros(384, dtype="<f4"), np.zeros(383),
                                        np.zeros((1, 384)), np.zeros(384, dtype=">f8")])
    def test_entry_of_another_shape_or_dtype_is_a_miss(self, tmp_path, stored):
        inner = _CountingEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        path = cached._path("approve order")
        path.parent.mkdir(parents=True)
        np.save(path, stored)
        out = cached.embed_batch(["approve order"])
        assert inner.batches == 1
        assert np.array_equal(out[0], inner.embed_batch(["approve order"])[0])

    def test_repeated_miss_is_embedded_and_written_once(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(embeddings, "write_atomic",
                            lambda path, data: writes.append(path) or write_atomic(path, data))
        inner = _CountingEmbedder()
        out = CachingEmbedder(inner, tmp_path).embed_batch(["t", "t"])
        assert len(writes) == 1
        assert inner.batches == 1
        assert np.array_equal(out, inner.embed_batch(["t", "t"]))

    def test_entry_written_meanwhile_is_not_rewritten(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(embeddings, "write_atomic",
                            lambda path, data: writes.append(path) or write_atomic(path, data))

        class _RacingEmbedder(HashingEmbedder):
            # another writer fills the cache while this call embeds
            def embed_batch(self, texts):
                CachingEmbedder(HashingEmbedder(), tmp_path).embed_batch(texts)
                return super().embed_batch(texts)

        out = CachingEmbedder(_RacingEmbedder(), tmp_path).embed_batch(["t"])
        assert len(writes) == 1
        assert np.array_equal(out, HashingEmbedder().embed_batch(["t"]))

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


    def test_threads_missing_one_text_embed_it_once(self, tmp_path):
        class _SlowEmbedder(HashingEmbedder):
            def __init__(self):
                super().__init__()
                self.texts = []

            def embed_batch(self, texts):
                self.texts.extend(texts)
                time.sleep(0.2)  # long enough for every thread to miss
                return super().embed_batch(texts)

        inner = _SlowEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        threads = 4
        start = threading.Barrier(threads)

        def embed(_):
            start.wait(timeout=10)
            return cached.embed_batch(["approve order", "ship goods"])

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = [f.result(timeout=60)
                       for f in [pool.submit(embed, k) for k in range(threads)]]
        assert sorted(inner.texts) == ["approve order", "ship goods"]
        for out in results:
            assert np.array_equal(out, HashingEmbedder().embed_batch(["approve order",
                                                                       "ship goods"]))
        assert not cached._claims

    def test_failed_claim_is_embedded_by_a_waiting_thread(self, tmp_path):
        class _FailOnceEmbedder(HashingEmbedder):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def embed_batch(self, texts):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(0.2)  # the other thread now waits on this claim
                    raise RemoteUnavailable("down")
                return super().embed_batch(texts)

        inner = _FailOnceEmbedder()
        cached = CachingEmbedder(inner, tmp_path)
        start = threading.Barrier(2)

        def embed(_):
            start.wait(timeout=10)
            return cached.embed_batch(["approve order"])

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(embed, k) for k in range(2)]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=60))
                except RemoteUnavailable:
                    outcomes.append(None)
        assert sum(out is None for out in outcomes) == 1
        assert inner.calls == 2
        (out,) = [out for out in outcomes if out is not None]
        assert np.array_equal(out, HashingEmbedder().embed_batch(["approve order"]))
        assert not cached._claims


class TestMemoEmbedder:
    def test_each_distinct_text_reaches_the_inner_provider_once(self):
        calls = []

        class _RecordingEmbedder(HashingEmbedder):
            def embed_batch(self, texts):
                calls.append(list(texts))
                return super().embed_batch(texts)

        inner = _RecordingEmbedder()
        memo = MemoEmbedder(inner)
        memo.fill(["a b", "c", "a b"])
        out = memo.embed_batch(["c", "d", "a b", "d"])
        assert calls == [["a b", "c"], ["d"]]
        assert np.array_equal(out, HashingEmbedder().embed_batch(["c", "d", "a b", "d"]))
        assert memo.embed_batch([]).shape == (0, DEFAULT_DIMENSION)
        assert calls == [["a b", "c"], ["d"]]
        assert (memo.dimension, memo.cache_key) == (inner.dimension, inner.cache_key)


class TestMakeProvider:
    def test_default_is_hashing(self):
        provider = make_provider(ProviderConfig())
        assert isinstance(provider, HashingEmbedder)

    def test_endpoint_selects_remote(self):
        provider = make_provider(ProviderConfig(endpoint="http://embed.invalid/v1",
                                                model_name="m"))
        assert isinstance(provider, RemoteEmbedder)
        assert (provider.endpoint, provider.model) == ("http://embed.invalid/v1", "m")

    def test_environment_is_not_read(self, monkeypatch):
        monkeypatch.setenv("BPMNKIT_EMBED_ENDPOINT", "http://embed.invalid/v1")
        monkeypatch.setenv("BPMNKIT_EMBED_MODEL", "env-model")
        assert isinstance(make_provider(ProviderConfig()), HashingEmbedder)

    def test_cache_dir_wraps_provider(self, tmp_path):
        provider = make_provider(ProviderConfig(endpoint="http://embed.invalid/v1",
                                                cache_dir=tmp_path))
        assert isinstance(provider, CachingEmbedder)
        assert isinstance(provider.inner, RemoteEmbedder)
        assert provider.cache_dir == tmp_path

    def test_cache_dir_leaves_the_hashing_embedder_uncached(self, tmp_path):
        provider = make_provider(ProviderConfig(cache_dir=tmp_path))
        assert isinstance(provider, HashingEmbedder)
        provider.embed_batch(["Check order", "Ship order"])
        assert list(tmp_path.iterdir()) == []
