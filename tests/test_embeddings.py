import json
import re
import tracemalloc

import numpy as np
import pytest

from kbforge import embeddings
from kbforge.embeddings import (
    EMBED_DIM,
    EmbeddingCache,
    RemoteEmbedder,
    TrigramHashEmbedder,
    normalise_rows,
    pairwise_cosine_similarity,
)
from kbforge.gateway import GatewayError, Session, TransportError
from kbforge.model import TRIPLE_SEP

import oracles
from conftest import synthetic_kb
from fixture_server import LocalServer, embeddings_responder, fake_embedding


def _unit(rows) -> np.ndarray:
    return normalise_rows(np.array(rows, dtype=np.float64))


def _cosine(u, v) -> float:
    """Cosine of two vectors as a report computes it: unit rows, then their product."""
    return float(pairwise_cosine_similarity(_unit(np.atleast_2d(u)), _unit(np.atleast_2d(v)))[0, 0])


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
        assert _cosine(rows[0], rows[1]) < 0.999

    def test_short_and_empty_text(self):
        rows = TrigramHashEmbedder().embed(["", "a", "ab"])
        assert rows.shape == (3, EMBED_DIM)
        # Even a single character yields one padded gram, hence a unit row.
        assert np.linalg.norm(rows[1]) == pytest.approx(1.0)

    def test_similar_strings_land_close(self):
        rows = TrigramHashEmbedder().embed(["Marduk Temple", "Marduk Temples"])
        assert _cosine(rows[0], rows[1]) > 0.8

    def test_provider_id_reflects_dim(self):
        assert TrigramHashEmbedder(dim=64).provider_id == "trigram-64"

    @pytest.mark.parametrize("dim", [384, 7])
    def test_equals_the_per_gram_loop_bit_for_bit(self, dim):
        texts = [
            "", "a", "ab", "abc", "\x02", "\x03", "a\x02b", "\x03\x02", "\x02\x03",
            "𝄞", "a😀", "😀😀😀", "e\u0301", "Nabû-kudurri-uṣur", "Ṭàbu\u0323\u0304",
            "Marduk", "Marduk", "", "Marduk Temple",
        ]
        rng = np.random.default_rng(5)
        alphabet = list("abcxyz -'é\u0301𝄞😀\x02\x03")
        texts += ["".join(rng.choice(alphabet, size=rng.integers(0, 24))) for _ in range(3000)]
        embedder = TrigramHashEmbedder(dim=dim)
        want = oracles.trigram_embed(texts, dim)
        assert np.array_equal(embedder.embed(texts), want)
        # A second call reuses the hashed grams and still agrees.
        assert np.array_equal(embedder.embed(texts[::-1]), want[::-1])

    def test_no_texts(self):
        assert TrigramHashEmbedder(dim=8).embed([]).shape == (0, 8)

    @pytest.mark.parametrize("count_rows", [1, 2, 3])
    def test_chunks_keep_the_bits(self, monkeypatch, count_rows):
        texts = ["", "𝄞", "a😀", "", "", "Marduk", "😀😀😀", "\x02", "", "Nabû-kudurri-uṣur", "ab"]
        want = oracles.trigram_embed(texts, EMBED_DIM)
        monkeypatch.setattr(embeddings, "_COUNT_ROWS", count_rows)
        assert TrigramHashEmbedder().embed(texts).tobytes() == want.tobytes()

    def test_counting_peaks_near_its_output(self):
        texts = [TRIPLE_SEP.join(t.key()) for t in synthetic_kb(3000).triples]
        tracemalloc.start()
        try:
            counts = TrigramHashEmbedder()._counts(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * counts.nbytes, f"{peak / counts.nbytes:.2f} outputs"


class TestCosine:
    def test_identical_unit_vectors(self):
        u = np.array([0.6, 0.8])
        assert _cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert _cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_convention(self):
        assert _cosine(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_matches_pure_python_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            expected = oracles.cosine_similarity(u.tolist(), v.tolist())
            assert _cosine(u, v) == pytest.approx(expected, abs=1e-12)

    def test_pairwise_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(3, 6))
        matrix = pairwise_cosine_similarity(_unit(a), _unit(b))
        assert matrix.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    oracles.cosine_similarity(a[i].tolist(), b[j].tolist()), abs=1e-12
                )

    def test_normalise_rows_keeps_zero_rows(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(normalise_rows(rows), [[0.6, 0.8], [0.0, 0.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("norm_rows", [1, 2, 256])
    def test_normalise_rows_in_place_equals_unit_rows(self, monkeypatch, norm_rows):
        monkeypatch.setattr(embeddings, "_NORM_ROWS", norm_rows)
        rows = np.random.default_rng(3).normal(size=(7, 5))
        rows[2] = 0.0
        rows[4] = -0.0
        rows[5] = 1e-200  # its squares underflow: norm zero, so the row becomes zero
        whole = np.linalg.norm(rows, axis=1, keepdims=True)
        want = np.divide(rows, whole, out=np.zeros_like(rows), where=whole > 0)
        assert normalise_rows(rows) is rows
        assert rows.tobytes() == want.tobytes()

    def test_pairwise_rejects_flat_input(self):
        with pytest.raises(ValueError):
            pairwise_cosine_similarity(np.ones(3), np.ones((2, 3)))


class _Served:
    """A provider serving each text's row from a dict; it records every call."""

    def __init__(self, vectors, provider_id="p"):
        self.vectors = vectors
        self.provider_id = provider_id
        self.calls = []

    def embed(self, texts):
        self.calls.append(list(texts))
        return np.array([self.vectors[text] for text in texts], dtype=np.float64)


class TestEmbeddingCache:
    def test_round_trip_and_reload(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        provider = _Served({"alpha": [1.0, 2.0], "beta": [3.0, 4.0]})
        np.testing.assert_array_equal(EmbeddingCache(path).rows(["alpha"], provider), [[1.0, 2.0]])

        reloaded = EmbeddingCache(path)
        np.testing.assert_array_equal(reloaded.rows(["alpha", "beta"], provider), [[1.0, 2.0], [3.0, 4.0]])
        assert provider.calls == [["alpha"], ["beta"]]
        other = _Served({"alpha": [5.0, 6.0, 7.0]}, provider_id="other")
        np.testing.assert_array_equal(reloaded.rows(["alpha"], other), [[5.0, 6.0, 7.0]])
        assert other.calls == [["alpha"]]

    def test_without_a_path_vectors_stay_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = EmbeddingCache()
        provider = _Served({"alpha": [0.5, -0.25]})
        cache.rows(["alpha"], provider)
        np.testing.assert_array_equal(cache.rows(["alpha"], provider), [[0.5, -0.25]])
        assert provider.calls == [["alpha"]]
        assert list(tmp_path.iterdir()) == []

    def test_reads_and_writes_the_original_line_layout(self, tmp_path):
        line = '{"provider": "trigram-4", "text": "Nabû", "vector": [0.5, -0.25, 0.0, 1.0]}\n'
        old = tmp_path / "old.ndjson"
        old.write_text(line, encoding="utf-8")
        provider = _Served({"Nabû": [0.5, -0.25, 0.0, 1.0]}, provider_id="trigram-4")
        np.testing.assert_array_equal(EmbeddingCache(old).rows(["Nabû"], provider), [[0.5, -0.25, 0.0, 1.0]])
        assert provider.calls == []
        new = tmp_path / "new.ndjson"
        EmbeddingCache(new).rows(["Nabû"], provider)
        assert new.read_text(encoding="utf-8") == line

    @pytest.mark.parametrize(
        "lines",
        [
            ['{"provider": "p", "text": "a", "vector": [1.0, 2.0]}', '{"provider": "p", "text": "b", "vector": [1.0]}'],
            ['{"provider": "p", "text": "a", "vector": [[1.0, 2.0]]}'],
        ],
        ids=["mixed", "nested"],
    )
    def test_a_file_whose_widths_differ_is_refused(self, tmp_path, lines):
        path = tmp_path / "cache.ndjson"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'p' vectors have width"):
            EmbeddingCache(path)

    def test_providers_may_differ_in_width(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        EmbeddingCache(path).rows(["a"], _Served({"a": [1.0, 2.0]}, provider_id="p"))
        EmbeddingCache(path).rows(["a"], _Served({"a": [1.0, 2.0, 3.0]}, provider_id="q"))
        reloaded = EmbeddingCache(path)
        np.testing.assert_array_equal(reloaded.rows(["a"], _Served({}, provider_id="q")), [[1.0, 2.0, 3.0]])

    def test_rows_skip_cached_texts(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "cache.ndjson")
        provider = _Served({text: [float(i), 0.5] for i, text in enumerate("abc")})
        assert cache.rows(["a", "b"], provider).shape == (2, 2)
        np.testing.assert_array_equal(cache.rows(["b", "c"], provider), [[1.0, 0.5], [2.0, 0.5]])
        cache.rows(["c", "a"], provider)
        assert provider.calls == [["a", "b"], ["c"]]

    def test_no_texts_make_no_provider_call(self):
        provider = _Served({})
        assert EmbeddingCache().rows([], provider).shape == (0, EMBED_DIM)
        assert provider.calls == []

    def test_all_misses_return_the_providers_matrix(self):
        provider = TrigramHashEmbedder(dim=8)
        returned = []
        embed = provider.embed
        provider.embed = lambda texts: returned.append(embed(texts)) or returned[-1]
        cache = EmbeddingCache()
        rows = cache.rows(["a", "b", "c"], provider)
        assert rows is returned[0]
        assert all(np.shares_memory(cache._vectors[provider.provider_id, t], rows) for t in "abc")
        mixed = cache.rows(["c", "d"], provider)
        assert not np.shares_memory(mixed, rows)
        assert mixed.tobytes() == np.vstack([rows[2], returned[1][0]]).tobytes()

    class _ShortProvider:
        provider_id = "short"

        def __init__(self, rows):
            self.rows = rows

        def embed(self, texts):
            return self.rows

    def _assert_missing(self, cache, text):
        """``text`` is not cached: the provider is asked for it again."""
        np.testing.assert_array_equal(cache.rows([text], self._ShortProvider(np.full((1, 4), 7.0))), [[7.0] * 4])

    @pytest.mark.parametrize(
        "returned",
        [np.ones((2, 4)), np.ones((4, 4)), np.ones(3), np.ones((3, 4, 1)), []],
        ids=["short", "long", "flat", "3-d", "empty-list"],
    )
    @pytest.mark.parametrize("cached", [False, True])
    def test_wrong_row_count_names_the_provider(self, returned, cached):
        # A cold cache, or one that already holds a 4-wide vector of the provider.
        cache = EmbeddingCache()
        if cached:
            cache.rows(["z"], self._ShortProvider(np.ones((1, 4))))
        with pytest.raises(ValueError, match="'short' returned shape .* for 3 rows"):
            cache.rows(["a", "b", "c"], self._ShortProvider(returned))
        self._assert_missing(cache, "a")

    def test_rows_must_match_the_cached_width(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        cache = EmbeddingCache(path)
        cache.rows(["a"], self._ShortProvider(np.ones((1, 4))))
        width = rf"'short' returned shape \(2, 3\) for 2 rows of width 4, .* in {re.escape(str(path))}"
        with pytest.raises(ValueError, match=width):
            cache.rows(["a", "b", "c"], self._ShortProvider(np.ones((2, 3))))
        # Texts none of which are cached must match the provider's width too.
        with pytest.raises(ValueError, match=width):
            cache.rows(["b", "c"], self._ShortProvider(np.ones((2, 3))))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        self._assert_missing(cache, "b")


class TestRemoteEmbedder:
    def test_round_trip_preserves_order(self):
        with LocalServer(embeddings_responder(dim=6)) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", sleep=lambda s: None)
            rows = embedder.embed(["one", "two"])
        np.testing.assert_allclose(rows[0], fake_embedding("one"))
        np.testing.assert_allclose(rows[1], fake_embedding("two"))

    def test_retries_transient_failures(self, monkeypatch):
        monkeypatch.setattr(embeddings, "MAX_RETRIES", 3)
        slept = []
        with LocalServer(embeddings_responder(fail_first=2, dim=6)) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", sleep=slept.append)
            rows = embedder.embed(["one"])
        assert rows.shape == (1, 6)
        assert len(slept) == 2

    def test_rejected_request_is_not_retried(self):
        slept = []
        with LocalServer(lambda *request: (401, {"error": "bad key"})) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", sleep=slept.append)
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

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:-1],
            lambda data: [data[0], data[2]],
            lambda data: data + [{"index": 3, "embedding": data[0]["embedding"]}],
            lambda data: [data[0], data[1], data[1]],
            lambda data: [data[0], data[0], data[2]],
            lambda data: [{**row, "index": row["index"] + 1} for row in data],
        ],
        ids=["dropped-last", "dropped-middle", "extra", "duplicated", "duplicated-first", "shifted"],
    )
    @pytest.mark.parametrize("damaged_requests", [1, 3])
    def test_indices_must_be_each_text_once(self, damage, damaged_requests):
        serve = embeddings_responder(dim=6)
        left = [damaged_requests]

        def responder(*request):
            status, body = serve(*request)
            if left[0] > 0:
                left[0] -= 1
                body["data"] = damage(body["data"])
            return status, body

        slept = []
        texts = ["one", "two", "three"]
        with LocalServer(responder) as server:
            embedder = RemoteEmbedder(server.url, api_key="k", sleep=slept.append)
            if damaged_requests > embeddings.MAX_RETRIES:
                with pytest.raises(TransportError, match="unexpected embeddings body"):
                    embedder.embed(texts)
            else:
                rows = embedder.embed(texts)
                np.testing.assert_array_equal(rows, [fake_embedding(text) for text in texts])
            assert len(server.requests) == min(damaged_requests + 1, 3)
        assert len(slept) == len(server.requests) - 1

    def test_missing_api_key_is_fatal(self, monkeypatch):
        monkeypatch.delenv("KBFORGE_API_KEY", raising=False)
        with pytest.raises(GatewayError):
            RemoteEmbedder("http://localhost:1")
