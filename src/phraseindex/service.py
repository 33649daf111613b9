"""HTTP query service, answer-string evaluation (EM/F1), and benchmarking."""

from __future__ import annotations

import json
import logging
import math
import string
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from .corpus import tokenize
from .index import PhraseIndex
from .search import STRATEGIES, SearchConfig, embed_question, run_search

REQUEST_TIMEOUT_S = 30.0  # a connection that sends nothing for this long is closed
MAX_BODY_BYTES = 1 << 20  # a longer Content-Length gets 413, and the body is not read
MAX_TOP_K = 1000  # a larger requested top_k gets 400: the kernel materialises top_k results
# A question of more tokens gets 400 and is neither embedded nor tokenized
# past the bound: its sparse vector hashes every unigram and bigram, ~1 s for
# a 1 MB question.
MAX_QUESTION_TOKENS = 512

_log = logging.getLogger(__name__)
_ARTICLES = {"a", "an", "the"}
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    lowered = text.lower().translate(_PUNCT_TABLE)
    words = [w for w in lowered.split() if w not in _ARTICLES]
    return " ".join(words)


def _f1(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def em_f1(prediction: str, golds: Sequence[str]) -> tuple[float, float]:
    """Best exact-match and token F1 of the prediction over the gold set."""
    if not golds:
        raise ValueError("empty gold answer set")
    norm_pred = normalize_answer(prediction)
    em = max(float(norm_pred == normalize_answer(g)) for g in golds)
    f1 = max(_f1(prediction, g) for g in golds)
    return em, f1


@dataclass
class EvalReport:
    exact_match: float
    f1: float
    n_questions: int
    latency_s: dict[str, float] | None = None  # p50/p95 seconds per query
    words_per_second: float | None = None
    docs_per_query: float | None = None


def eval_em_f1(predictions: Sequence[str], gold_sets: Sequence[Sequence[str]]) -> EvalReport:
    """Mean EM and mean max-over-golds token F1 across questions."""
    if len(predictions) != len(gold_sets):
        raise ValueError("predictions and gold sets differ in length")
    if not predictions:
        raise ValueError("empty evaluation set")
    ems, f1s = [], []
    for pred, golds in zip(predictions, gold_sets):
        em, f1 = em_f1(pred, golds)
        ems.append(em)
        f1s.append(f1)
    n = len(ems)
    return EvalReport(exact_match=sum(ems) / n, f1=sum(f1s) / n, n_questions=n)


def _percentile(sorted_values: list[float], q: float) -> float:
    # Nearest-rank: no interpolation, well defined for n = 1.
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def benchmark(
    index: PhraseIndex,
    questions: Sequence[tuple[object, Sequence[str]]],
    config: SearchConfig,
    strategies: Sequence[str] = STRATEGIES,
    warmup: int = 2,
) -> dict[str, EvalReport]:
    """Per-strategy latency, throughput, accuracy, and documents visited.

    `questions` holds (query, gold answers) pairs where query is either a
    question string or a prebuilt QueryVector. All numbers are reported, never
    asserted against any external reference.
    """
    if not questions:
        raise ValueError("empty QA set")
    from .search import QueryVector

    def as_query(q):
        return q if isinstance(q, QueryVector) else embed_question(index, q)

    total_tokens = index.counts["tokens"]
    reports: dict[str, EvalReport] = {}
    for strategy in strategies:
        cfg = replace(config, strategy=strategy)
        for q, _ in questions[: min(warmup, len(questions))]:
            run_search(index, as_query(q), cfg)
        latencies: list[float] = []
        predictions: list[str] = []
        golds: list[Sequence[str]] = []
        visited: list[int] = []
        for q, answer_set in questions:
            query = as_query(q)
            t0 = time.perf_counter()
            out = run_search(index, query, cfg)
            latencies.append(time.perf_counter() - t0)
            predictions.append(out.results[0].text if out.results else "")
            golds.append(answer_set)
            visited.append(out.docs_visited)
        base = eval_em_f1(predictions, golds)
        lat_sorted = sorted(latencies)
        total_time = sum(latencies)
        reports[strategy] = EvalReport(
            exact_match=base.exact_match,
            f1=base.f1,
            n_questions=len(questions),
            latency_s={"p50": _percentile(lat_sorted, 0.5), "p95": _percentile(lat_sorted, 0.95)},
            words_per_second=(total_tokens * len(questions)) / total_time if total_time > 0 else 0.0,
            docs_per_query=sum(visited) / len(visited),
        )
    return reports


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


class _QueryHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def setup(self) -> None:
        # Set per connection, so that a slow or stalled client cannot hold
        # its handler thread forever.
        self.timeout = REQUEST_TIMEOUT_S
        super().setup()

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/health":
            self._send_json(404, {"error": "not found"})
            return
        self._send_json(200, {"status": "ok", "counts": self.server.index.counts})

    def do_POST(self):
        if self.path != "/query":
            self._send_json(404, {"error": "not found"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be reused.
            self.close_connection = True
            self._send_json(400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot be reused.
            self.close_connection = True
            self._send_json(413, {"error": f"request body over {MAX_BODY_BYTES} bytes"})
            return
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            # The rest of the body may still arrive, so the connection cannot be reused.
            self.close_connection = True
            self._send_json(408, {"error": "request body not received in time"})
            return
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, RecursionError):  # RecursionError: nested too deeply
            self._send_json(400, {"error": "malformed JSON body"})
            return
        try:
            response = handle_query(self.server.index, payload, self.server.search_config)
        except _BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # the server keeps serving; the client still gets an answer
            _log.exception("query failed")
            self._send_json(500, {"error": f"internal error: {type(exc).__name__}"})
            return
        self._send_json(200, response)


class _BadRequest(ValueError):
    """A fault of the request itself, which the server answers with 400."""


def handle_query(index: PhraseIndex, payload: dict, base_config: SearchConfig) -> dict:
    """Validate a QueryRequest payload (else _BadRequest), run the search, time the stages."""
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    question = payload.get("question")
    if not isinstance(question, str) or not question.strip():
        raise _BadRequest("question must be a non-empty string")
    try:  # JSON allows a lone surrogate, which the n-gram hash cannot encode
        question.encode("utf-8")
    except UnicodeEncodeError:
        raise _BadRequest("question must be valid Unicode text") from None
    try:
        cfg = replace(  # SearchConfig refuses a bad strategy or top_k
            base_config,
            strategy=payload.get("strategy", base_config.strategy),
            top_k=payload.get("top_k", base_config.top_k),
        )
    except ValueError as exc:
        raise _BadRequest(str(exc)) from exc
    if cfg.top_k > MAX_TOP_K:
        raise _BadRequest(f"top_k must be at most {MAX_TOP_K}")
    t0 = time.perf_counter()
    tokens = tokenize(question, MAX_QUESTION_TOKENS + 1)
    if len(tokens) > MAX_QUESTION_TOKENS:
        raise _BadRequest(f"question must be at most {MAX_QUESTION_TOKENS} tokens")
    query = embed_question(index, question, tokens)
    t1 = time.perf_counter()
    out = run_search(index, query, cfg)
    t2 = time.perf_counter()
    return {
        "results": [r.as_dict() for r in out.results],
        "timings": {
            "embed_ms": (t1 - t0) * 1e3,
            "search_ms": (t2 - t1) * 1e3,
            "total_ms": (t2 - t0) * 1e3,
        },
        "docs_visited": out.docs_visited,
        "start_rows_scored": out.start_rows_scored,
        "phrases_scored": out.phrases_scored,
        "phrases_expanded": out.phrases_expanded,
    }


def make_server(
    index: PhraseIndex,
    host: str = "127.0.0.1",
    port: int = 0,
    config: SearchConfig | None = None,
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server sharing one read-only index handle."""
    server = ThreadingHTTPServer((host, port), _QueryHandler)
    server.daemon_threads = True
    server.index = index
    server.search_config = config or SearchConfig()
    return server


def serve(index_dir: str, addr: str = "127.0.0.1:8080", config: SearchConfig | None = None) -> None:
    """Load the index and serve /query and /health until interrupted."""
    host, _, port = addr.partition(":")
    index = PhraseIndex(index_dir)
    server = make_server(index, host or "127.0.0.1", int(port or 8080), config)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def start_server_thread(server: ThreadingHTTPServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
