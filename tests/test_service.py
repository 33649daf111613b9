"""HTTP query service, EM/F1 scoring, and the benchmark harness."""

import http.client
import json
import logging
import socket
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import phraseindex.search as search_module
from conftest import SMALL_CONFIG, build_small_index, make_random_corpus
from phraseindex import service
from phraseindex.corpus import tokenize
from phraseindex.dense import PrecomputedEncoder, write_embedding_file
from phraseindex.search import SearchConfig, embed_question, run_search
from phraseindex.service import (
    benchmark,
    em_f1,
    eval_em_f1,
    handle_query,
    make_server,
    normalize_answer,
    start_server_thread,
)


@pytest.fixture(scope="module")
def served_index(tmp_path_factory):
    rng = np.random.default_rng(31)
    corpus = make_random_corpus(rng, n_docs=6)
    index = build_small_index(
        corpus, tmp_path_factory.mktemp("svc") / "idx", max_span=3, ivf_clusters=4
    )
    server = make_server(index)
    start_server_thread(server)
    yield index, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def get(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read())


def post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


def error_status(call, *args) -> int:
    """The status of the HTTPError that call(*args) raises. The error holds
    the response, so it is closed here rather than left to the collector."""
    with pytest.raises(urllib.error.HTTPError) as err:
        call(*args)
    with err.value:
        return err.value.code


class TestNormalization:
    def test_strips_case_punctuation_articles(self):
        assert normalize_answer("The Cat.") == "cat"
        assert normalize_answer("  An   apple , a day ") == "apple day"

    def test_em_f1_normalized_match(self):
        em, f1 = em_f1("The Cat.", ["cat"])
        assert (em, f1) == (1.0, 1.0)

    def test_partial_overlap_f1(self):
        em, f1 = em_f1("red apple", ["apple pie"])
        assert em == 0.0
        assert f1 == pytest.approx(0.5)

    def test_empty_prediction(self):
        em, f1 = em_f1("", ["anything"])
        assert (em, f1) == (0.0, 0.0)

    def test_gold_set_permutation_symmetric(self):
        golds = ["alpha beta", "gamma", "delta eps"]
        for rotated in (golds, golds[1:] + golds[:1], golds[::-1]):
            assert em_f1("gamma", rotated) == (1.0, 1.0)

    def test_casing_and_punctuation_invariance(self):
        base = em_f1("Jerome Wiesner", ["jerome wiesner"])
        spiky = em_f1("JEROME, Wiesner!!", ["jerome wiesner"])
        assert base == spiky == (1.0, 1.0)

    def test_f1_at_least_em_pointwise(self):
        rng = np.random.default_rng(0)
        words = ["alpha", "beta", "gamma", "delta"]
        for _ in range(100):
            pred = " ".join(rng.choice(words, size=int(rng.integers(1, 4))))
            gold = " ".join(rng.choice(words, size=int(rng.integers(1, 4))))
            em, f1 = em_f1(pred, [gold])
            assert f1 >= em
            if em == 1.0:
                assert f1 == 1.0

    def test_empty_gold_set_rejected(self):
        with pytest.raises(ValueError, match="gold"):
            em_f1("x", [])


class TestEvalReport:
    def test_means_over_questions(self):
        report = eval_em_f1(
            ["the cat", "wrong"], [["cat"], ["right answer"]]
        )
        assert report.exact_match == 0.5
        assert report.n_questions == 2
        assert 0.0 <= report.f1 <= 1.0
        assert report.f1 >= report.exact_match

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_em_f1(["a"], [])


class TestHttpService:
    def test_health_reports_manifest_counts(self, served_index):
        index, base = served_index
        status, body = get(base + "/health")
        assert status == 200
        assert body["counts"] == index.counts

    def test_query_round_trip(self, served_index):
        _, base = served_index
        status, body = post(base + "/query", {"question": "where is w001", "top_k": 4})
        assert status == 200
        assert len(body["results"]) == 4
        timings = body["timings"]
        assert timings["total_ms"] >= timings["embed_ms"] + timings["search_ms"] - 1.0
        assert body["docs_visited"] >= len({r["doc_id"] for r in body["results"]}) > 0

    def test_body_reports_the_kernel_work_counters(self, served_index):
        index, base = served_index
        status, body = post(base + "/query", {"question": "where is w001", "strategy": "exact"})
        assert status == 200
        assert body["start_rows_scored"] == index.n_start_rows
        assert body["phrases_scored"] == index.n_phrases

    def test_body_reports_the_phrases_expanded(self, served_index):
        # The bound expands only some of the phrases it scores.
        index, base = served_index
        payload = {"question": "where is w001", "strategy": "exact"}
        status, body = post(base + "/query", payload)
        assert status == 200
        out = run_search(index, embed_question(index, payload["question"]),
                         SearchConfig(strategy="exact"))
        assert body["phrases_expanded"] == out.phrases_expanded
        assert 0 < body["phrases_expanded"] < body["phrases_scored"]

    def test_empty_question_is_400(self, served_index):
        _, base = served_index
        assert error_status(post, base + "/query", {"question": "   "}) == 400

    def test_malformed_json_is_400(self, served_index):
        _, base = served_index
        req = urllib.request.Request(
            base + "/query", data=b"{nope", method="POST"
        )
        assert error_status(urllib.request.urlopen, req) == 400

    def test_deeply_nested_json_is_400_and_the_connection_serves_on(self, served_index):
        # Past its depth limit json.loads raises RecursionError, not ValueError.
        _, base = served_index
        host, port = base.removeprefix("http://").split(":")
        nested = b"[" * 100_000
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            for body in (nested, b'{"question": ' + nested + b"]" * 100_000 + b"}"):
                conn.request("POST", "/query", body=body)
                resp = conn.getresponse()
                assert resp.status == 400
                assert json.loads(resp.read()) == {"error": "malformed JSON body"}
            conn.request("POST", "/query", body=json.dumps({"question": "where is w001"}))
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["results"]
        finally:
            conn.close()

    def test_non_object_json_body_is_400(self, served_index):
        _, base = served_index
        for body in (["where is w001"], "where is w001", 3, None):
            assert error_status(post, base + "/query", body) == 400

    def test_bool_top_k_is_400(self, served_index):
        _, base = served_index
        for flag in (True, False):
            payload = {"question": "where is w001", "top_k": flag}
            assert error_status(post, base + "/query", payload) == 400

    def test_top_k_above_the_bound_is_400(self, served_index):
        _, base = served_index
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base + "/query", {"question": "where is w001", "top_k": service.MAX_TOP_K + 1})
        with err.value as resp:
            assert resp.code == 400
            assert str(service.MAX_TOP_K) in json.loads(resp.read())["error"]
        status, body = post(base + "/query", {"question": "where is w001", "top_k": service.MAX_TOP_K})
        assert status == 200 and body["results"]

    def test_question_over_the_token_bound_is_400_and_never_embedded(
        self, served_index, monkeypatch
    ):
        index, base = served_index

        def must_not_embed(*args, **kwargs):
            raise AssertionError("embedded a question over the bound")

        monkeypatch.setattr(service, "embed_question", must_not_embed)
        long_question = " ".join(["w001"] * (service.MAX_QUESTION_TOKENS + 1))
        with pytest.raises(service._BadRequest, match=str(service.MAX_QUESTION_TOKENS)):
            handle_query(index, {"question": long_question}, SearchConfig())
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base + "/query", {"question": long_question})
        with err.value as resp:
            assert resp.code == 400
            assert str(service.MAX_QUESTION_TOKENS) in json.loads(resp.read())["error"]

    def test_question_that_is_not_valid_unicode_is_400_and_never_embedded(
        self, served_index, monkeypatch, caplog
    ):
        # JSON allows a lone surrogate, which UTF-8 cannot encode.
        _, base = served_index

        def must_not_embed(*args, **kwargs):
            raise AssertionError("embedded a question that is not valid Unicode text")

        monkeypatch.setattr(service, "embed_question", must_not_embed)
        with caplog.at_level(logging.DEBUG, logger=service.__name__):
            with pytest.raises(urllib.error.HTTPError) as err:
                post(base + "/query", {"question": "\ud800 colony"})
            with err.value as resp:
                assert resp.code == 400
                assert json.loads(resp.read())["error"] == "question must be valid Unicode text"
        assert caplog.records == []

    def test_question_at_the_token_bound_is_tokenized_once(self, served_index, monkeypatch):
        index, _ = served_index
        calls = []

        def counted(text, limit=None):
            calls.append(text)
            return tokenize(text, limit)

        monkeypatch.setattr(service, "tokenize", counted)
        monkeypatch.setattr(search_module, "tokenize", counted)
        question = " ".join(["w001"] * service.MAX_QUESTION_TOKENS)
        body = handle_query(index, {"question": question}, SearchConfig())
        assert body["results"] and len(calls) == 1

    def test_negative_content_length_is_400(self, served_index):
        _, base = served_index
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/query")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "error" in json.loads(resp.read())
        finally:
            conn.close()

    def test_oversized_body_is_413_and_closes(self, served_index):
        _, base = served_index
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 1000000000000000\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):  # ends only when the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)

    def test_unexpected_error_is_500(self, tmp_path):
        # An index built from precomputed embeddings has no question encoder,
        # so embed_question raises RuntimeError inside the handler.
        rng = np.random.default_rng(5)
        corpus = make_random_corpus(rng, n_docs=3)
        rows = {
            f"{doc.id}/{pidx}": rng.normal(size=(para.n_tokens, SMALL_CONFIG.dim))
            for _, doc, pidx, para in corpus.iter_paragraphs()
        }
        write_embedding_file(tmp_path / "rows.bin", rows, SMALL_CONFIG.dim)
        encoder = PrecomputedEncoder(tmp_path / "rows.bin", SMALL_CONFIG)
        index = build_small_index(corpus, tmp_path / "idx", max_span=2, ivf_clusters=2,
                                  encoder=encoder)
        server = make_server(index)
        start_server_thread(server)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(base + "/query", {"question": "where is w001"})
            assert err.value.code == 500
            with err.value as resp:
                assert "RuntimeError" in json.loads(resp.read())["error"]
            assert get(base + "/health")[0] == 200
        finally:
            server.shutdown()
            server.server_close()

    def test_a_search_fault_is_500_and_logged_once(self, served_index, monkeypatch, caplog):
        # A ValueError raised inside the search is a fault of the index or the
        # server, not of the request, so it is not answered with 400.
        _, base = served_index

        def broken(*args, **kwargs):
            raise ValueError("math domain error")

        monkeypatch.setattr(service, "run_search", broken)
        with caplog.at_level(logging.ERROR, logger=service.__name__):
            with pytest.raises(urllib.error.HTTPError) as err:
                post(base + "/query", {"question": "where is w001"})
        with err.value as resp:
            assert resp.code == 500
            assert json.loads(resp.read())["error"] == "internal error: ValueError"
        assert [r.name for r in caplog.records] == [service.__name__]

    def test_short_body_times_out(self, served_index, monkeypatch):
        monkeypatch.setattr(service, "REQUEST_TIMEOUT_S", 0.2)
        _, base = served_index
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
                b'{"question": "w001'
            )
            reply = b""
            while chunk := sock.recv(4096):  # ends only when the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408")
        assert "error" in json.loads(body)

    def test_bad_strategy_is_400(self, served_index):
        _, base = served_index
        payload = {"question": "x", "strategy": "psychic"}
        assert error_status(post, base + "/query", payload) == 400

    @pytest.mark.parametrize("fields, why", [
        ({"strategy": None}, "unknown strategy None"),
        ({"strategy": ["exact"]}, "unknown strategy ['exact']"),
        ({"top_k": 0}, "counts must be >= 1: top_k is 0"),
        ({"top_k": -3}, "counts must be >= 1: top_k is -3"),
        ({"top_k": 2.0}, "counts must be integers: top_k is 2.0"),
        ({"top_k": "3"}, "counts must be integers: top_k is '3'"),
        ({"top_k": None}, "counts must be integers: top_k is None"),
    ], ids=["null_strategy", "list_strategy", "top_k_0", "top_k_negative", "top_k_float",
            "top_k_string", "top_k_null"])
    def test_bad_search_fields_are_400_naming_the_field(self, served_index, fields, why):
        # handle_query leaves these checks to SearchConfig, whose ValueError
        # the handler answers with 400.
        _, base = served_index
        payload = {"question": "where is w001", **fields}
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base + "/query", payload)
        with err.value as resp:
            assert resp.code == 400
            assert json.loads(resp.read())["error"] == why

    def test_unknown_path_is_404(self, served_index):
        _, base = served_index
        assert error_status(get, base + "/nope") == 404

    def test_concurrent_identical_queries_agree(self, served_index):
        _, base = served_index
        payload = {"question": "w002 w003 w004", "top_k": 5, "strategy": "hybrid"}

        def call(_):
            return post(base + "/query", payload)[1]["results"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(call, range(16)))
        assert all(o == outcomes[0] for o in outcomes)

    def test_replaying_requests_is_pure(self, served_index):
        index, _ = served_index
        cfg = SearchConfig()
        log = [
            {"question": "w001 w002", "top_k": 3, "strategy": "exact"},
            {"question": "w010", "top_k": 2, "strategy": "sfs"},
            {"question": "w020 w021", "top_k": 4, "strategy": "hybrid"},
        ]
        first = [handle_query(index, req, cfg)["results"] for req in log]
        second = [handle_query(index, req, cfg)["results"] for req in log]
        assert first == second


class TestBenchmark:
    def test_single_query_set(self, served_index):
        index, _ = served_index
        reports = benchmark(
            index,
            [("w001 w002", ["w001 w002"])],
            SearchConfig(top_k=3),
            strategies=("exact",),
            warmup=1,
        )
        rep = reports["exact"]
        assert rep.n_questions == 1
        assert rep.latency_s["p50"] == rep.latency_s["p95"]
        assert rep.words_per_second is not None and rep.words_per_second > 0

    def test_docs_per_query_definitions(self, served_index):
        index, _ = served_index
        questions = [(f"w{k:03d} w{k + 1:03d}", ["x"]) for k in range(0, 8, 2)]
        reports = benchmark(
            index,
            questions,
            SearchConfig(top_k=3, sparse_top_docs=2, dense_top_starts=20, nprobe=2),
            strategies=("exact", "sfs", "dfs"),
            warmup=1,
        )
        assert reports["exact"].docs_per_query == index.n_docs
        assert reports["sfs"].docs_per_query <= 2
        assert reports["dfs"].docs_per_query <= index.n_docs

    def test_empty_set_rejected(self, served_index):
        index, _ = served_index
        with pytest.raises(ValueError):
            benchmark(index, [], SearchConfig())
