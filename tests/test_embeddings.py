import json

import numpy as np
import pytest

from kbforge import embeddings
from kbforge.embeddings import (
    EMBED_DIM,
    EmbeddingCache,
    RemoteEmbedder,
    TrigramHashEmbedder,
    cosine_similarity,
    embed_batch,
    pairwise_cosine_similarity,
)
from kbforge.gateway import GatewayError, Session, TransportError

import oracles
from fixture_server import LocalServer, embeddings_responder, fake_embedding


class TestTrigramEmbedder:
    def test_shape_and_norm(self):
        embedder = TrigramHashEmbedder()
        rows = embedder.embed(["Hammurabi", "Marduk"])
        assert rows.shape == (2, EMBED_DIM)
        assert rows.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), [1.0, 1.0], atol=1e-12)

    def test_deterministic_across_instances(self):
        a = TrigramHashEmbedder().embed(["Temple of Marduk"])
        b = TrigramHashEmbedder().embed(["Temple of Marduk"])
        np.testing.assert_array_equal(a, b)

    def test_distinct_texts_differ(self):
        rows = TrigramHashEmbedder().embed(["Hammurabi", "Nebuchadnezzar II"])
        assert cosine_similarity(rows[0], rows[1]) < 0.999

    def test_short_and_empty_text(self):
        rows = TrigramHashEmbedder().embed(["", "a", "ab"])
        assert rows.shape == (3, EMBED_DIM)
        # Even a single character yields one padded gram, hence a unit row.
        assert np.linalg.norm(rows[1]) == pytest.approx(1.0)

    def test_similar_strings_land_close(self):
        rows = TrigramHashEmbedder().embed(["Marduk Temple", "Marduk Temples"])
        assert cosine_similarity(rows[0], rows[1]) > 0.8

    def test_provider_id_reflects_dim(self):
        assert TrigramHashEmbedder(dim=64).provider_id == "trigram-64"


class TestCosine:
    def test_identical_unit_vectors(self):
        u = np.array([0.6, 0.8])
        assert cosine_similarity(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_convention(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_matches_pure_python_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            expected = oracles.cosine_similarity(u.tolist(), v.tolist())
            assert cosine_similarity(u, v) == pytest.approx(expected, abs=1e-12)

    def test_pairwise_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(3, 6))
        matrix = pairwise_cosine_similarity(a, b)
        assert matrix.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    cosine_similarity(a[i], b[j]), abs=1e-12
                )

    def test_pairwise_rejects_flat_input(self):
        with pytest.raises(ValueError):
            pairwise_cosine_similarity(np.ones(3), np.ones((2, 3)))


class TestEmbeddingCache:
    def test_round_trip_and_reload(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = EmbeddingCache(path)
        cache.put_many("p", [("alpha", np.array([1.0, 2.0]))])
        np.testing.assert_array_equal(cache.get("p", "alpha"), [1.0, 2.0])
        assert cache.get("p", "beta") is None
        assert cache.get("other", "alpha") is None

        reloaded = EmbeddingCache(path)
        np.testing.assert_array_equal(reloaded.get("p", "alpha"), [1.0, 2.0])

    def test_without_a_path_vectors_stay_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = EmbeddingCache()
        vector = np.array([0.5, -0.25])
        cache.put_many("p", [("alpha", vector)])
        assert cache.get("p", "alpha") is vector
        assert cache.get("p", "beta") is None
        assert list(tmp_path.iterdir()) == []

    def test_reads_and_writes_the_original_line_layout(self, tmp_path):
        line = '{"provider": "trigram-4", "text": "Nabû", "vector": [0.5, -0.25, 0.0, 1.0]}\n'
        old = tmp_path / "old.ndjson"
        old.write_text(line, encoding="utf-8")
        np.testing.assert_array_equal(
            EmbeddingCache(old).get("trigram-4", "Nabû"), [0.5, -0.25, 0.0, 1.0]
        )
        new = tmp_path / "new.ndjson"
        EmbeddingCache(new).put_many("trigram-4", [("Nabû", np.array([0.5, -0.25, 0.0, 1.0]))])
        assert new.read_text(encoding="utf-8") == line

    def test_embed_batch_skips_cached_texts(self, tmp_path):
        calls = []

        class CountingEmbedder:
            provider_id = "counting"

            def embed(self, texts):
                calls.append(list(texts))
                return np.ones((len(texts), 4)) / 2.0

        cache = EmbeddingCache(tmp_path / "cache.ndjson")
        provider = CountingEmbedder()
        first = embed_batch(["a", "b", "a"], provider, cache)
        assert first.shape == (3, 4)
        assert calls == [["a", "b"]]

        second = embed_batch(["b", "c"], provider, cache)
        assert calls == [["a", "b"], ["c"]]
        np.testing.assert_array_equal(second[0], first[1])

    def test_embed_batch_without_cache_calls_through(self):
        provider = TrigramHashEmbedder(dim=16)
        rows = embed_batch(["x", "y"], provider)
        np.testing.assert_array_equal(rows, provider.embed(["x", "y"]))

    def test_embed_batch_empty_input(self):
        rows = embed_batch([], TrigramHashEmbedder(dim=8))
        assert rows.shape[0] == 0


class TestRemoteEmbedder:
    def test_round_trip_preserves_order(self):
        with LocalServer(embeddings_responder(dim=6)) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", sleep=lambda s: None)
            rows = embedder.embed(["one", "two"])
        np.testing.assert_allclose(rows[0], fake_embedding("one"))
        np.testing.assert_allclose(rows[1], fake_embedding("two"))

    def test_retries_transient_failures(self):
        slept = []
        with LocalServer(embeddings_responder(fail_first=2, dim=6)) as server:
            embedder = RemoteEmbedder(
                server.url, api_key="k", max_retries=3, sleep=slept.append
            )
            rows = embedder.embed(["one"])
        assert rows.shape == (1, 6)
        assert len(slept) == 2

    def test_rejected_request_is_not_retried(self):
        slept = []
        with LocalServer(lambda *request: (401, {"error": "bad key"})) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", max_retries=2, sleep=slept.append)
            with pytest.raises(TransportError, match="HTTP 401"):
                embedder.embed(["one"])
            assert len(server.requests) == 1
        assert slept == []

    def test_netrc_does_not_replace_the_bearer_key(self, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login u password p\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        with LocalServer(embeddings_responder(dim=6)) as server:
            RemoteEmbedder(server.url, api_key="k", sleep=lambda s: None).embed(["one"])
        assert server.received[0].headers["Authorization"] == "Bearer k"

    def test_batching_splits_requests(self, monkeypatch):
        monkeypatch.setattr(embeddings, "EMBED_BATCH", 2)
        with LocalServer(embeddings_responder(dim=6)) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", sleep=lambda s: None)
            rows = embedder.embed(["a", "b", "c"])
            assert len(server.requests) == 2
        assert rows.shape == (3, 6)

    def test_requests_carry_the_fixed_batch_timeout_user_agent_and_key(self, monkeypatch):
        monkeypatch.setenv("KBFORGE_API_KEY", "env-key")
        timeouts = []
        post = Session.post
        monkeypatch.setattr(Session, "post", lambda self, *a, **kw: timeouts.append(kw["timeout"]) or post(self, *a, **kw))
        texts = [f"label {i}" for i in range(257)]
        with LocalServer(embeddings_responder(dim=6)) as server:
            rows = RemoteEmbedder(server.url, sleep=lambda s: None).embed(texts)
        assert rows.shape == (257, 6)
        assert [len(json.loads(body)["input"]) for *_, body in server.requests] == [256, 1]
        assert timeouts == [60, 60]
        for received in server.received:
            assert received.headers["Authorization"] == "Bearer env-key"
            assert received.headers["User-Agent"].startswith("kbforge/0.1 ")

    def test_missing_api_key_is_fatal(self, monkeypatch):
        monkeypatch.delenv("KBFORGE_API_KEY", raising=False)
        with pytest.raises(GatewayError):
            RemoteEmbedder("http://localhost:1")
